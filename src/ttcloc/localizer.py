"""Inference: turn a trained network into per-video segment detections.

A segment is a maximal run of snippets whose :func:`network.gate_margins`
are positive, under the same rule the objective trains with.  The default
(predicted) mode compares each score with the learned threshold; the
manual mode reproduces the fixed test-time rule it replaces: per class,
threshold at the midpoint of the max and min snippet scores.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from math import isfinite
from typing import NamedTuple

import numpy as np

from . import network
from .data import VideoSample
from .errors import ValidationError, json_types, replacing, type_error
from .network import NetworkParams
from .objectives import pool_and_classify
from .trainer import TrainConfig


class _DetectionFields(NamedTuple):
    video_id: str
    class_id: int
    start: float  # seconds
    end: float
    score: float


class Detection(_DetectionFields):
    """One scored segment, an immutable tuple; construction rejects a non-finite or empty one.

    Every way to build one validates: the constructor, ``_make`` and
    ``_replace`` (which calls ``_make``), and unpickling (which calls the
    constructor).
    """

    __slots__ = ()

    def __new__(cls, video_id: str, class_id: int, start: float, end: float, score: float):
        if not (isfinite(start) and isfinite(end)):
            raise ValidationError(f"detection in {video_id!r}: non-finite start {start} or end {end}")
        if not start < end:
            raise ValidationError(f"detection in {video_id!r}: start {start} must precede end {end}")
        if not isfinite(score):
            raise ValidationError(f"detection in {video_id!r}: non-finite score")
        return tuple.__new__(cls, (video_id, class_id, start, end, score))

    @classmethod
    def _make(cls, iterable) -> Detection:
        return cls(*iterable)


def extract_segments(margins: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of strictly positive entries, as inclusive spans."""
    mask = np.asarray(margins) > 0
    edges = np.diff(np.concatenate([[0], mask.astype(np.int8), [0]]))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return list(zip(starts.tolist(), ends.tolist()))


def select_classes(probs: np.ndarray) -> set[int]:
    """Classes whose probability strictly exceeds the action-class mean.

    ``probs`` is one video's (C + 1) probabilities; the background
    probability (last) is excluded from the average.
    """
    p = probs[:-1]
    return set(np.flatnonzero(p > p.mean()).tolist())


def infer_video(
    params: NetworkParams,
    sample: VideoSample,
    config: TrainConfig,
    mode: str = "predicted",
    buffers: network.ForwardBuffers | None = None,
) -> list[Detection]:
    """Full-sequence inference; no cropping, no dropout.

    Pooling, and so class selection, follows the ``config`` the parameters
    were trained with: its aggregator, and for ``gated`` its gating kind on
    the ``config.train_localization`` margin.  Segments are the runs where
    the ``mode`` margin is positive.  The detection score is the video-level
    class probability times the mean sigmoid gate on the predicted margin
    across the segment, whatever the checkpoint was trained with.
    The forward pass writes into ``buffers`` (see :func:`network.forward`).
    """
    smap, _ = network.forward(params, sample.features, out=buffers)
    gated = config.loss.aggregator == "gated"
    rules = (mode, "predicted", config.train_localization) if gated else (mode, "predicted")
    margins = {rule: network.gate_margins(smap, rule) for rule in dict.fromkeys(rules)}
    sig_gate = network.gate_values(margins["predicted"], "sigmoid")
    pool_gate = network.gate_values(margins[config.train_localization], config.gating) if gated else None
    probs = pool_and_classify(smap, pool_gate, config.loss.aggregator).probs[0]
    classes = sorted(select_classes(probs))

    runs = [(c, t0, t1) for c in classes for t0, t1 in extract_segments(margins[mode][:, c])]
    if not runs:
        return []
    cls, t0s, t1s = np.array(runs).T
    scores = (probs[cls] * run_means(sig_gate, cls, t0s, t1s)).tolist()
    tau = sample.snippet_duration
    # a snippet index converts to float64 exactly, so each time is the float t * tau
    columns = zip(cls.tolist(), (t0s * tau).tolist(), ((t1s + 1) * tau).tolist(), scores)
    return [Detection(sample.id, c, start, end, score) for c, start, end, score in columns]


def run_means(values: np.ndarray, cls: np.ndarray, t0s: np.ndarray, t1s: np.ndarray) -> np.ndarray:
    """``values[t0 : t1 + 1, c].mean()`` for every run, bit for bit.

    Runs of one length are gathered into a contiguous (runs, length) block
    and averaged along its rows, which sums each row in the same pairwise
    order as the mean of a single slice; prefix-sum differences and
    ``np.add.reduceat`` round differently.
    """
    lengths = t1s - t0s + 1
    means = np.empty(len(lengths))
    order = np.argsort(lengths, kind="stable")
    bounds = np.flatnonzero(np.diff(lengths[order])) + 1
    for group in np.split(order, bounds):
        n = int(lengths[group[0]])
        block = values[t0s[group, None] + np.arange(n), cls[group, None]]
        means[group] = block.mean(axis=1)
    return means


def iter_detections(
    params: NetworkParams,
    samples: list[VideoSample],
    config: TrainConfig,
    mode: str = "predicted",
) -> Iterator[Detection]:
    """The detections of every video in sample order, each video's made when
    the first of them is asked for; one set of forward buffers, sized for
    the longest video, serves them all."""
    buffers = network.ForwardBuffers.empty(params, max((s.num_snippets for s in samples), default=0))
    for sample in samples:
        yield from infer_video(params, sample, config, mode, buffers)


def infer_dataset(
    params: NetworkParams,
    samples: list[VideoSample],
    config: TrainConfig,
    mode: str = "predicted",
) -> list[Detection]:
    return list(iter_detections(params, samples, config, mode))


def _jsonl_lines(detections: Iterable[Detection], class_names: tuple[str, ...]) -> Iterator[str]:
    names = [json.dumps(name) for name in class_names]
    ids: dict = {}
    for video_id, class_id, start, end, score in detections:
        if not 0 <= class_id < len(class_names):
            raise ValidationError(f"detection class {class_id} outside the {len(class_names)}-class space")
        vid = ids.get(video_id)
        if vid is None:
            vid = ids[video_id] = json.dumps(video_id)
        yield (
            f'{{"class_id": {int(class_id)}, "class_name": {names[class_id]}, "end_s": {float(end)!r}, '
            f'"score": {float(score)!r}, "start_s": {float(start)!r}, "video_id": {vid}}}\n'
        )


def detections_to_jsonl(detections: Iterable[Detection], class_names: tuple[str, ...]) -> str:
    """One JSON object per line, keys sorted, as ``json.dumps(..., sort_keys=True)`` writes it.

    Each distinct video id and class name is encoded once.  Times and
    scores are written as floats with ``repr``, which for the finite values
    that a ``Detection`` admits is exactly what ``json.dumps`` writes.
    """
    return "".join(_jsonl_lines(detections, class_names))


def write_detections(detections: Iterable[Detection], class_names: tuple[str, ...], path: str) -> int:
    """Write the lines of :func:`detections_to_jsonl` to ``path`` as the
    detections arrive (an iterator, such as :func:`iter_detections`, is
    consumed once) and return their count.  On any error, ``path`` is left
    as it was and no tmp file stays."""
    count = 0
    with replacing(path) as fh:
        for count, line in enumerate(_jsonl_lines(detections, class_names), start=1):
            fh.write(line)
    return count


_STRING, _INTEGER, _NUMBER = (json_types(t) for t in (str, int, float))
_FIELDS = (("video_id", _STRING), ("class_id", _INTEGER), ("start_s", _NUMBER), ("end_s", _NUMBER), ("score", _NUMBER))


def load_detections(path: str) -> list[Detection]:
    """Parse and validate a detection file, one record per line; errors name ``path:lineno``.

    JSON types are checked, not converted (:func:`ttcloc.errors.json_types`):
    ``video_id`` is a string, ``class_id`` an integer, and ``start_s``,
    ``end_s`` and ``score`` are numbers.  Bytes that are not UTF-8 are an error of their line.
    """
    decode = json.JSONDecoder().raw_decode
    detections = []
    # bytes that are not UTF-8 are read as lone surrogates and rejected per line below
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    line.encode(errors="surrogateescape").decode()
                obj, end = decode(line)
                if end != len(line):
                    raise ValueError(f"extra data at character {end}")
                if type(obj) is not dict:
                    raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
                vid, c, start, stop, score = obj["video_id"], obj["class_id"], obj["start_s"], obj["end_s"], obj["score"]
                # tested inline, with no call per record; the message is built only for a failing one
                typed = type(vid) in _STRING and type(c) in _INTEGER and type(start) in _NUMBER
                if not (typed and type(stop) in _NUMBER and type(score) in _NUMBER):
                    raise next(type_error(key, kinds, obj[key]) for key, kinds in _FIELDS if type(obj[key]) not in kinds)
                detections.append(Detection(vid, c, start, stop, score))
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError, ValidationError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad detection record: {exc}") from exc
    return detections
