"""Video dataset model and on-disk format.

A dataset is a ``manifest.json`` plus one raw feature file per video
(``<id>.f32``, row-major little-endian float32, T rows x D columns).
Segment annotations live in the manifest in seconds; :func:`rasterize`
turns them into per-snippet binary matrices on demand.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError, load_json_object, read_object

DEFAULT_SNIPPET_DURATION = 0.64  # seconds covered by one feature vector


@dataclass(frozen=True)
class GroundTruthSegment:
    """One annotated action interval ``[start, end)`` in seconds, checked by the record that holds it."""

    class_id: int
    start: float
    end: float


@dataclass(frozen=True)
class VideoSample:
    """A feature sequence with its labels and optional segment annotations.

    ``features`` is a read-only (T, D) float32 array.  ``fully_annotated``
    marks the sample as usable for localization supervision and requires
    ``segments``; training sets it (:func:`ttcloc.trainer.apply_supervision`), no manifest holds it.
    """

    id: str
    features: np.ndarray
    labels: frozenset[int]
    snippet_duration: float = DEFAULT_SNIPPET_DURATION
    segments: tuple[GroundTruthSegment, ...] | None = None
    fully_annotated: bool = False

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float32)
        feats.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", frozenset(self.labels))
        if self.segments is not None:
            object.__setattr__(self, "segments", tuple(self.segments))
        elif self.fully_annotated:
            raise ValidationError(f"video {self.id!r}: fully_annotated requires segments")

    @property
    def num_snippets(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def record(self) -> VideoRecord:
        """This video's manifest entry, checked when built."""
        return VideoRecord(
            id=self.id,
            num_snippets=self.num_snippets,
            feature_dim=self.feature_dim,
            labels=tuple(sorted(self.labels)),
            snippet_duration=self.snippet_duration,
            segments=self.segments,
        )

    def validate(self, num_classes: int) -> None:
        """Check what building a sample leaves out: the features, the record and its labels against ``num_classes``."""
        self.validate_features()
        _check_labels(self.record, num_classes)

    def validate_features(self) -> None:
        if self.features.ndim != 2:
            raise ValidationError(f"video {self.id!r}: features must be a T x D matrix")
        if not np.all(np.isfinite(self.features)):
            raise ValidationError(f"video {self.id!r}: non-finite feature values")


@dataclass(frozen=True)
class VideoRecord:
    """Manifest entry for one video, checked when built but for its labels' upper bound; features stay on disk."""

    id: str
    num_snippets: int
    feature_dim: int
    labels: tuple[int, ...]
    snippet_duration: float
    segments: tuple[GroundTruthSegment, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_snippets < 1 or self.feature_dim < 1:
            shape = (self.num_snippets, self.feature_dim)
            raise ValidationError(f"video {self.id!r}: num_snippets and feature_dim must be >= 1, got {shape}")
        if not self.labels:
            raise ValidationError(f"video {self.id!r}: label set is empty")
        for c in self.labels:
            if c < 0:
                raise ValidationError(f"video {self.id!r}: label {c} out of range")
        if not (self.snippet_duration > 0 and math.isfinite(self.snippet_duration)):
            raise ValidationError(f"video {self.id!r}: snippet_duration must be a positive real")
        for seg in self.segments or ():
            if not (math.isfinite(seg.start) and math.isfinite(seg.end)):
                raise ValidationError(f"video {self.id!r}: segment times must be finite, got {seg}")
            if seg.start < 0 or seg.start >= seg.end:
                raise ValidationError(f"video {self.id!r}: segment must satisfy 0 <= start < end, got {seg}")
            if seg.class_id not in self.labels:
                raise ValidationError(
                    f"video {self.id!r}: segment class {seg.class_id} not in labels {sorted(self.labels)}"
                )


def _check_labels(record: VideoRecord, num_classes: int) -> None:
    for c in record.labels:
        if c >= num_classes:
            raise ValidationError(f"video {record.id!r}: label {c} out of range")


@dataclass(frozen=True)
class DatasetManifest:
    num_classes: int
    class_names: tuple[str, ...]
    records: tuple[VideoRecord, ...]
    directory: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.num_classes < 1 or len(self.class_names) != self.num_classes:
            raise ValidationError("manifest: class_names length must equal num_classes")
        if not self.records:
            raise ValidationError("manifest: lists no videos")
        ids = [r.id for r in self.records]
        for vid in ids:
            # an id names its feature file, which must stay inside the dataset directory
            if vid in ("", ".", "..") or "/" in vid or "\\" in vid or "\0" in vid:
                raise ValidationError(f"manifest: video id {vid!r} is not a plain file name")
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"manifest: duplicate video ids {dupes}")
        dims = {r.feature_dim for r in self.records}
        if len(dims) > 1:
            raise ValidationError(f"manifest: videos disagree on feature dim: {sorted(dims)}")
        for record in self.records:
            _check_labels(record, self.num_classes)


def rasterize(
    segments: list[GroundTruthSegment] | tuple[GroundTruthSegment, ...] | None,
    num_snippets: int,
    num_classes: int,
    snippet_duration: float,
) -> np.ndarray:
    """Snippet-grid binary annotation matrix of shape (T, C).

    Entry (t, c) is 1 iff the midpoint of snippet t's time interval lies
    inside some class-c segment.  Segments fully outside the grid simply
    contribute nothing.
    """
    if num_snippets < 1 or num_classes < 1:
        raise ValidationError("rasterize: num_snippets and num_classes must be >= 1")
    a = np.zeros((num_snippets, num_classes), dtype=np.float64)
    if not segments:
        return a
    tau = snippet_duration
    midpoints = (np.arange(num_snippets) + 0.5) * tau
    for seg in segments:
        inside = (midpoints >= seg.start) & (midpoints < seg.end)
        a[inside, seg.class_id] = 1.0
    return a


def crop_clip(sample: VideoSample, max_len: int, rng: np.random.Generator) -> VideoSample:
    """Random clip of at most ``max_len`` snippets.

    Videos already short enough are returned unchanged.  Segment
    annotations are intersected with the clip window and shifted to
    clip-local time; video-level labels are kept even when the labeled
    action falls outside the clip.
    """
    if max_len < 1:
        raise ValidationError("crop_clip: max_len must be >= 1")
    t = sample.num_snippets
    if t <= max_len:
        return sample
    offset = int(rng.integers(0, t - max_len + 1))
    tau = sample.snippet_duration
    window_start = offset * tau
    window_end = (offset + max_len) * tau
    segments = None
    if sample.segments is not None:
        kept = []
        for seg in sample.segments:
            start = max(seg.start, window_start)
            end = min(seg.end, window_end)
            if start < end:
                kept.append(GroundTruthSegment(seg.class_id, start - window_start, end - window_start))
        segments = tuple(kept)
    return replace(sample, features=sample.features[offset : offset + max_len], segments=segments)


# ---------------------------------------------------------------------------
# On-disk format


_MANIFEST_TYPES = {"num_classes": int, "class_names": tuple[str, ...], "videos": tuple[VideoRecord, ...]}


def load_manifest(manifest_path: str) -> DatasetManifest:
    """Parse and check ``manifest.json`` (features are not touched).

    JSON types are checked by :func:`ttcloc.errors.read_object`: counts and
    class ids are integers, times and durations numbers (read as floats).
    """
    obj = load_json_object(manifest_path, "manifest")
    # older manifests carry a per-video fully_annotated flag; the trainer
    # decides supervision itself, so the key is accepted and ignored
    videos = obj.get("videos")
    for video in videos if type(videos) is list else ():
        if type(video) is dict:
            video.pop("fully_annotated", None)
    fields = read_object(obj, _MANIFEST_TYPES, f"manifest {manifest_path}", required=_MANIFEST_TYPES)
    return DatasetManifest(
        fields["num_classes"], fields["class_names"], fields["videos"], os.path.dirname(os.path.abspath(manifest_path))
    )


def feature_path(manifest: DatasetManifest, video_id: str) -> str:
    return os.path.join(manifest.directory, f"{video_id}.f32")


def _load_features(path: str, record: VideoRecord) -> np.ndarray:
    if not os.path.isfile(path):
        raise ValidationError(f"video {record.id!r}: feature file missing: {path}")
    expected = record.num_snippets * record.feature_dim * 4
    actual = os.path.getsize(path)
    if actual != expected:
        raise ValidationError(
            f"video {record.id!r}: feature file is {actual} bytes, expected "
            f"{expected} (T={record.num_snippets}, D={record.feature_dim})"
        )
    raw = np.fromfile(path, dtype="<f4")
    return raw.reshape(record.num_snippets, record.feature_dim)


def load_dataset(manifest: DatasetManifest) -> list[VideoSample]:
    """Load every video of a manifest, whose records were checked when it
    was built; each video's features are checked here."""
    samples = []
    for record in manifest.records:
        feats = _load_features(feature_path(manifest, record.id), record)
        sample = VideoSample(
            id=record.id,
            features=feats,
            labels=frozenset(record.labels),
            snippet_duration=record.snippet_duration,
            segments=record.segments,
        )
        sample.validate_features()
        samples.append(sample)
    return samples


def manifest_to_json(manifest: DatasetManifest) -> str:
    """The text of ``manifest.json``: each record and segment is written as
    the object of its own fields, the form :func:`load_manifest` reads."""
    obj = {"num_classes": manifest.num_classes, "class_names": manifest.class_names, "videos": manifest.records}
    return json.dumps(obj, default=vars, indent=2, sort_keys=True)


def write_dataset(
    samples: list[VideoSample],
    num_classes: int,
    class_names: list[str] | tuple[str, ...],
    out_dir: str,
) -> str:
    """Write manifest + feature files into ``out_dir``; returns manifest path.

    Files are staged under a temporary name and renamed into place, the
    manifest last.  If any step fails, every staged file and every feature
    file that was not there before is removed, so no tmp file and no partial
    new dataset stays behind.  Every sample's features are checked, and its
    metadata once, as the manifest is built.
    """
    for s in samples:
        s.validate_features()
    manifest = DatasetManifest(num_classes, tuple(class_names), tuple(s.record for s in samples))
    os.makedirs(out_dir, exist_ok=True)
    staged, created = [], []
    try:
        for s in samples:
            tmp = os.path.join(out_dir, f".{s.id}.f32.tmp")
            staged.append((tmp, os.path.join(out_dir, f"{s.id}.f32")))
            s.features.astype("<f4").tofile(tmp)
        tmp_manifest = os.path.join(out_dir, ".manifest.json.tmp")
        manifest_path = os.path.join(out_dir, "manifest.json")
        staged.append((tmp_manifest, manifest_path))
        with open(tmp_manifest, "w", encoding="utf-8") as fh:
            fh.write(manifest_to_json(manifest))
            fh.write("\n")
        for tmp, final in staged:
            if not os.path.lexists(final):
                created.append(final)
            os.replace(tmp, final)
    except BaseException:
        for path in [tmp for tmp, _ in staged] + created:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        raise
    return manifest_path
