"""Inference: turn a trained network into per-video segment detections.

A segment is a maximal run of snippets whose :func:`network.gate_margins`
are positive, under the same rule the objective trains with.  The default
(predicted) mode compares each score with the learned threshold; the
manual mode reproduces the fixed test-time rule it replaces: per class,
threshold at the midpoint of the max and min snippet scores.
"""

from __future__ import annotations

import json
from array import array
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


class Detection(NamedTuple):
    """One row of a :class:`Detections` table, a plain immutable tuple; building one checks nothing."""

    video_id: str
    class_id: int
    start: float  # seconds
    end: float
    score: float


def _check_values(video_id, start, end, score) -> None:
    """The value rule of a detection row: finite times and score, and ``start < end``
    as float64, the form in which a :class:`Detections` table holds them.
    The messages show the values as given."""
    if not (isfinite(start) and isfinite(end)):
        raise ValidationError(f"detection in {video_id!r}: non-finite start {start} or end {end}")
    if not float(start) < float(end):
        raise ValidationError(f"detection in {video_id!r}: start {start} must precede end {end}")
    if not isfinite(score):
        raise ValidationError(f"detection in {video_id!r}: non-finite score")


_INT64 = np.iinfo(np.int64)


def _check_row(video_id, class_id, start, end, score) -> None:
    """The row rule of a :class:`Detections` table, for values given in a
    form its columns do not hold: a class id that is an integer within int64,
    times and a score that are numbers within float64, and :func:`_check_values`."""
    if type(class_id) is bool or not isinstance(class_id, (int, np.integer)) or not _INT64.min <= class_id <= _INT64.max:
        raise ValidationError(f"detection in {video_id!r}: class_id {class_id!r} is not an integer within int64")
    values = []
    for name, value in zip(("start", "end", "score"), (start, end, score)):
        try:
            values.append(float(value))
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"detection in {video_id!r}: {name} is not a number within float64") from None
    _check_values(video_id, *values)


def _int64_column(values) -> np.ndarray:
    """``values`` as int64; a TypeError unless the column is of integer kind within int64."""
    column = np.asarray(values)
    if column.size and not (column.dtype.kind == "i" or column.dtype.kind == "u" and column.max() <= _INT64.max):
        raise TypeError(f"a column of dtype {column.dtype}")
    return column.astype(np.int64, copy=False)


def _check_index(v, count: int) -> None:
    """A row's video index must be an integer position among ``count`` video ids."""
    if type(v) is bool or not isinstance(v, (int, np.integer)):
        raise ValidationError(f"detection video index {v!r} is not an integer")
    if not 0 <= v < count:
        raise ValidationError(f"detection video index outside the {count} video ids")


class Detections:
    """Scored segments as an immutable column table, the one form detections
    take between inference, the detection file and evaluation.

    ``video_ids`` holds each distinct video id once and ``video_index`` each
    row's position in it.  ``class_id`` is int64, and ``start``, ``end`` and
    ``score`` are float64.  Each column is a read-only view; the table takes
    arrays without copying them, so an array passed in must not be written to
    afterwards.  The table is the one place that validates detections: once,
    when built, and the first bad row raises that row's message.  A class
    id and a video index must be integers within int64, not a float or a
    string that would convert to one.  ``len()`` counts rows, iteration yields one
    :class:`Detection` per row, and :meth:`from_records` builds a table from them.
    """

    __slots__ = ("video_ids", "video_index", "class_id", "start", "end", "score")

    def __init__(self, video_ids: Iterable[str], video_index, class_id, start, end, score):
        object.__setattr__(self, "video_ids", tuple(video_ids))
        try:
            values = (
                _int64_column(video_index),
                _int64_column(class_id),
                *(np.asarray(col, dtype=np.float64) for col in (start, end, score)),
            )
        except (TypeError, ValueError, OverflowError):  # a value no column holds: the row rule names its row
            for v, *row in zip(video_index, class_id, start, end, score):
                _check_index(v, len(self.video_ids))
                _check_row(self.video_ids[v], *row)
            raise ValidationError("detection columns must be 1-D columns of numbers") from None
        for name, value in zip(self.__slots__[1:], values):
            view = value.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        if len(set(self.video_ids)) != len(self.video_ids):
            raise ValidationError("detection video ids must be distinct")
        n = len(self.video_index)
        if any(getattr(self, name).shape != (n,) for name in self.__slots__[1:]):
            raise ValidationError("detection columns must be 1-D and of one length")
        if n and not 0 <= self.video_index.min() <= self.video_index.max() < len(self.video_ids):
            raise ValidationError(f"detection video index outside the {len(self.video_ids)} video ids")
        finite = np.isfinite(self.start) & np.isfinite(self.end) & np.isfinite(self.score)
        bad = np.flatnonzero(~(finite & (self.start < self.end)))
        if len(bad):  # the row rule rejects the same rows and words the message
            i = bad[0]
            _check_values(self.video_ids[self.video_index[i]], self.start[i], self.end[i], self.score[i])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return len(self.video_index)

    def __iter__(self) -> Iterator[Detection]:
        ids = self.video_ids
        columns = (self.video_index, self.class_id, self.start, self.end, self.score)
        for v, c, start, end, score in zip(*(col.tolist() for col in columns)):
            yield Detection(ids[v], c, start, end, score)

    @classmethod
    def from_records(cls, records: Iterable[Detection]) -> Detections:
        records = list(records)
        ids: dict = {}
        index = [ids.setdefault(d.video_id, len(ids)) for d in records]
        return cls(ids, index, *([d[k] for d in records] for k in range(1, 5)))

    @classmethod
    def concat(cls, tables: Iterable[Detections]) -> Detections:
        """The rows of every table in order; video ids shared by tables are stored once."""
        tables = list(tables)
        if not tables:
            return cls.from_records(())
        ids: dict = {}
        index = [np.array([ids.setdefault(v, len(ids)) for v in t.video_ids], dtype=np.int64)[t.video_index] for t in tables]
        columns = ([getattr(t, name) for t in tables] for name in cls.__slots__[2:])
        return cls(ids, np.concatenate(index), *map(np.concatenate, columns))

    def take(self, rows: np.ndarray) -> Detections:
        """The table of ``rows``, in their order; the video ids are shared."""
        return type(self)(self.video_ids, *(getattr(self, name)[rows] for name in self.__slots__[1:]))

    def class_outside(self, num_classes: int) -> np.ndarray:
        """Per row, whether its class lies outside ``[0, num_classes)``."""
        return (self.class_id < 0) | (self.class_id >= num_classes)


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
) -> Detections:
    """One video's detections, by class and then start; full-sequence, no cropping, no dropout.

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
        return Detections.from_records(())
    cls, t0s, t1s = np.array(runs).T
    scores = probs[cls] * run_means(sig_gate, cls, t0s, t1s)
    tau = sample.snippet_duration
    # a snippet index converts to float64 exactly, so each time is the float t * tau
    return Detections((sample.id,), np.zeros(len(cls), dtype=np.int64), cls, t0s * tau, (t1s + 1) * tau, scores)


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
) -> Iterator[Detections]:
    """One table per video, in sample order, each made when it is asked for;
    one set of forward buffers, sized for the longest video, serves them all."""
    buffers = network.ForwardBuffers.empty(params, max((s.num_snippets for s in samples), default=0))
    for sample in samples:
        yield infer_video(params, sample, config, mode, buffers)


def write_detections(tables: Iterable[Detections], class_names: tuple[str, ...], path: str) -> int:
    """Write the tables to ``path`` in order, one JSON object per line with
    keys sorted, as ``json.dumps(..., sort_keys=True)`` writes it, and return
    the line count.

    The tables are written as they arrive (an iterator, such as
    :func:`iter_detections`, is consumed once).  Each class name and each
    table's video ids are encoded once.  Times and scores are written as
    floats with ``repr``, which for the finite values that a table admits is
    exactly what ``json.dumps`` writes.  On any error, ``path`` is left as it
    was and no tmp file stays.
    """
    names = [json.dumps(name) for name in class_names]
    count = 0
    with replacing(path) as fh:
        for table in tables:
            outside = np.flatnonzero(table.class_outside(len(names)))
            if len(outside):
                raise ValidationError(f"detection class {table.class_id[outside[0]]} outside the {len(names)}-class space")
            vids = [json.dumps(v) for v in table.video_ids]
            columns = (table.video_index, table.class_id, table.end, table.score, table.start)
            for v, c, end, score, start in zip(*(col.tolist() for col in columns)):
                fh.write(
                    f'{{"class_id": {c}, "class_name": {names[c]}, "end_s": {end!r}, '
                    f'"score": {score!r}, "start_s": {start!r}, "video_id": {vids[v]}}}\n'
                )
            count += len(table)
    return count


_STRING, _INTEGER, _NUMBER = (json_types(t) for t in (str, int, float))
_FIELDS = (("video_id", _STRING), ("class_id", _INTEGER), ("start_s", _NUMBER), ("end_s", _NUMBER), ("score", _NUMBER))


def load_detections(path: str) -> Detections:
    """Parse and validate a detection file, one record per line; errors name ``path:lineno``.

    JSON types are checked, not converted (:func:`ttcloc.errors.json_types`):
    ``video_id`` is a string, ``class_id`` an integer, and ``start_s``,
    ``end_s`` and ``score`` are numbers.  Bytes that are not UTF-8 are an error of their line.
    Each line's values go straight into typed columns, its video id through
    one dict of the distinct ids, so no object of a record outlives its line.
    """
    decode = json.JSONDecoder().raw_decode
    ids: dict[str, int] = {}
    index, classes = array("q"), array("q")
    starts, ends, scores = array("d"), array("d"), array("d")
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
                _check_values(vid, start, stop, score)
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError, ValidationError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad detection record: {exc}") from exc
            index.append(ids.setdefault(vid, len(ids)))
            try:
                classes.append(c)
            except OverflowError:  # no class space holds it
                raise ValidationError(f"{path}:{lineno}: bad detection record: class_id {c} lies outside int64") from None
            starts.append(start)
            ends.append(stop)
            scores.append(score)
    return Detections(ids, index, classes, starts, ends, scores)
