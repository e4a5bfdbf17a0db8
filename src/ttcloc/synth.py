"""Synthetic untrimmed-video datasets with planted action segments.

Videos are background-prototype snippets with non-overlapping segments of
a single class prototype planted in them, plus Gaussian noise, all scaled
by a per-video amplitude.  The amplitude jitter is what makes any single
manual score threshold unreliable across videos, so localization quality
has to come from a per-video decision rule.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, replace

import numpy as np

from .data import DatasetManifest, GroundTruthSegment, VideoSample
from .errors import GenerationError, ValidationError, check_array_bytes, check_sizes

SNIPPET_DURATION = 1.0  # synthetic snippets use a unit clock
_PROTOTYPE_ATTEMPTS = 100
_PLACEMENT_ATTEMPTS = 20


@dataclass(frozen=True)
class SynthSpec:
    """Everything that determines a generated dataset, seed included."""

    num_classes: int = 5
    feature_dim: int = 16
    videos_per_class: int = 20
    snippets_min: int = 40
    snippets_max: int = 60
    segments_min: int = 1
    segments_max: int = 3
    segment_len_min: int = 5
    segment_len_max: int = 10
    noise_scale: float = 1.0
    prototype_scale: float = 8.0
    amplitude_min: float = 1.0
    amplitude_max: float = 1.0
    seed: int = 0

    # the fields that size arrays or bound random draws
    SIZES = (
        "num_classes", "feature_dim", "videos_per_class", "snippets_min", "snippets_max",
        "segments_min", "segments_max", "segment_len_min", "segment_len_max",
    )

    def validate(self) -> None:
        if self.num_classes < 2:
            raise ValidationError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.feature_dim < 2:
            raise ValidationError(f"feature_dim must be >= 2, got {self.feature_dim}")
        if self.videos_per_class < 1:
            raise ValidationError("videos_per_class must be >= 1")
        for lo, hi, what in (
            (self.snippets_min, self.snippets_max, "snippets"),
            (self.segments_min, self.segments_max, "segments"),
            (self.segment_len_min, self.segment_len_max, "segment_len"),
        ):
            if lo < 1 or hi < lo:
                raise ValidationError(f"{what} range [{lo}, {hi}] must satisfy 1 <= min <= max")
        if not 0 <= self.noise_scale < math.inf:
            raise ValidationError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        if not 0 < self.prototype_scale < math.inf:
            raise ValidationError(f"prototype_scale must be finite and > 0, got {self.prototype_scale}")
        if not 0 < self.amplitude_min <= self.amplitude_max < math.inf:
            raise ValidationError(
                f"amplitude range [{self.amplitude_min}, {self.amplitude_max}] must satisfy 0 < min <= max < inf"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        check_sizes(self, self.SIZES)
        check_array_bytes({
            "a video's snippets_max * feature_dim float64 draws": 8 * self.snippets_max * self.feature_dim,
            "the prototype distances' (num_classes + 1)**2 * feature_dim float64 values": 8 * (self.num_classes + 1) ** 2 * self.feature_dim,
            "the segment draw's segments_max + 1 float64 values": 8 * (self.segments_max + 1),
            "the dataset's num_classes * videos_per_class * snippets_min * feature_dim float32 values": self.min_dataset_bytes,
        })

    @property
    def min_dataset_bytes(self) -> int:
        """The float32 features of a dataset of the shortest videos, all of which :func:`generate` holds at once."""
        return 4 * self.num_classes * self.videos_per_class * self.snippets_min * self.feature_dim


PRESETS: dict[str, SynthSpec] = {
    "easy": SynthSpec(prototype_scale=8.0, noise_scale=1.0, amplitude_min=1.0, amplitude_max=1.0),
    "medium": SynthSpec(prototype_scale=4.0, noise_scale=1.0, amplitude_min=0.5, amplitude_max=2.0),
    "hard": SynthSpec(prototype_scale=2.0, noise_scale=1.0, amplitude_min=0.25, amplitude_max=4.0),
}


def preset_spec(name: str, **overrides) -> SynthSpec:
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    spec = replace(PRESETS[name], **overrides)
    spec.validate()
    return spec


def _prototypes(rng: np.random.Generator, spec: SynthSpec) -> np.ndarray:
    """C class prototypes plus one background row, pairwise >= s_p apart.

    The draw scale puts the expected pairwise distance at 1.25 * s_p, so the
    separation floor is the binding constraint and s_p versus noise_scale is
    the actual difficulty ratio rather than a loose lower bound.
    """
    n = spec.num_classes + 1
    draw_scale = 1.25 * spec.prototype_scale / math.sqrt(2.0 * spec.feature_dim)
    for _ in range(_PROTOTYPE_ATTEMPTS):
        protos = rng.normal(scale=draw_scale, size=(n, spec.feature_dim))
        diffs = protos[:, None, :] - protos[None, :, :]
        dists = np.linalg.norm(diffs, axis=2)
        iu = np.triu_indices(n, k=1)
        if dists[iu].min() >= spec.prototype_scale:
            return protos
    raise GenerationError(
        f"could not draw {n} prototypes separated by {spec.prototype_scale} "
        f"in {_PROTOTYPE_ATTEMPTS} attempts; raise feature_dim or lower prototype_scale"
    )


def _place_segments(
    rng: np.random.Generator, video_id: str, t: int, n_seg: int, len_min: int, len_max: int
) -> list[tuple[int, int]]:
    """(start, length) snippet spans, non-overlapping, >= 1 snippet apart."""
    for _ in range(_PLACEMENT_ATTEMPTS):
        lengths = rng.integers(len_min, len_max + 1, size=n_seg)
        free = t - int(lengths.sum()) - (n_seg - 1)
        if free < 0:
            continue
        pads = rng.multinomial(free, np.full(n_seg + 1, 1.0 / (n_seg + 1)))
        spans = []
        pos = 0
        for i, length in enumerate(lengths):
            pos += int(pads[i]) + (1 if i > 0 else 0)
            spans.append((pos, int(length)))
            pos += int(length)
        return spans
    raise GenerationError(
        f"video {video_id!r}: cannot fit {n_seg} segments of length "
        f"[{len_min}, {len_max}] with unit gaps into {t} snippets"
    )


def generate(spec: SynthSpec) -> tuple:
    """Build the dataset: (manifest, samples), deterministic in the seed."""
    spec.validate()
    # ask the system once for the least memory the dataset takes and release it
    # untouched, so that a refusal comes before any work; a mapping of its own, unlike
    # a freed np.empty, leaves the allocator's mmap threshold (and peak RSS) as it was
    try:
        mmap.mmap(-1, spec.min_dataset_bytes).close()
    except OSError as exc:
        raise MemoryError(f"cannot map the dataset's {spec.min_dataset_bytes} bytes") from exc
    rng = np.random.default_rng(spec.seed)
    protos = _prototypes(rng, spec)
    background = protos[spec.num_classes]

    samples = []
    for c in range(spec.num_classes):
        for v in range(spec.videos_per_class):
            video_id = f"v{c:02d}_{v:03d}"
            t = int(rng.integers(spec.snippets_min, spec.snippets_max + 1))
            n_seg = int(rng.integers(spec.segments_min, spec.segments_max + 1))
            spans = _place_segments(rng, video_id, t, n_seg, spec.segment_len_min, spec.segment_len_max)

            base = np.tile(background, (t, 1))
            for start, length in spans:
                base[start : start + length] = protos[c]
            noise = rng.normal(scale=spec.noise_scale, size=(t, spec.feature_dim))
            alpha = float(rng.uniform(spec.amplitude_min, spec.amplitude_max))
            features = ((base + noise) * alpha).astype(np.float32)

            segments = tuple(
                GroundTruthSegment(c, start * SNIPPET_DURATION, (start + length) * SNIPPET_DURATION)
                for start, length in spans
            )
            samples.append(
                VideoSample(
                    id=video_id,
                    features=features,
                    labels=frozenset({c}),
                    snippet_duration=SNIPPET_DURATION,
                    segments=segments,
                )
            )

    class_names = tuple(f"class{c:02d}" for c in range(spec.num_classes))
    # not validated here: write_dataset validates what it writes, run_training what it trains on
    manifest = DatasetManifest(spec.num_classes, class_names, tuple(s.record for s in samples))
    return manifest, samples
