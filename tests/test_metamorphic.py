"""Pipeline-level metamorphic property: scaling time by a power of two.

Every time in the pipeline is a snippet index times ``snippet_duration``,
compared with another time or divided by one, and multiplying a float by
2**k rounds to the same digits.  So scaling every ``snippet_duration`` and
segment time of a dataset by 2**k must leave every artifact of ``train``
(with crops and localization supervision) and of ``infer`` + ``eval`` in
both modes byte for byte as it was, and scale every detection time exactly.
"""

import contextlib
import io
import json
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ttcloc import cli
from ttcloc.data import GroundTruthSegment, VideoSample, write_dataset


@st.composite
def small_datasets(draw):
    """Samples of 2-3 classes with drawn durations and segment times, and a clip cap below every video's length."""
    num_classes = draw(st.integers(2, 3))
    tau = draw(st.sampled_from([1.0, 0.64, 0.1, 1 / 3, 0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = []
    for i in range(draw(st.integers(num_classes, 6))):
        t = draw(st.integers(8, 20))
        c = i % num_classes
        segments = []
        for _ in range(draw(st.integers(1, 3))):
            start = draw(st.floats(0.0, t * tau, allow_subnormal=False))
            end = start + draw(st.floats(0.1 * tau, 0.6 * t * tau))
            segments.append(GroundTruthSegment(c, start, end))
        samples.append(VideoSample(f"v{i}", rng.normal(size=(t, 3)), frozenset({c}), tau, tuple(segments)))
    max_clip_len = draw(st.integers(2, min(s.num_snippets for s in samples) - 1))
    return num_classes, samples, max_clip_len


def scaled(sample: VideoSample, factor: float) -> VideoSample:
    segments = tuple(GroundTruthSegment(s.class_id, s.start * factor, s.end * factor) for s in sample.segments)
    return replace(sample, snippet_duration=sample.snippet_duration * factor, segments=segments)


def run_pipeline(directory, num_classes, samples, max_clip_len) -> dict:
    """Every artifact of train, infer and eval in both modes, by name."""
    data, model = directory / "data", directory / "model"
    write_dataset(samples, num_classes, [f"c{c}" for c in range(num_classes)], str(data))
    train = ["--iterations", "4", "--hidden-dim", "4", "--batch-size", "3", "--max-clip-len", str(max_clip_len)]
    train += ["--supervision", "semi", "--semi-k", "1", "--dropout", "0.5", "--learning-rate", "0.05"]
    commands = [["train", "--data", str(data), "--out", str(model), *train]]
    for mode in ("predicted", "manual"):
        det = directory / f"{mode}.jsonl"
        commands.append(["infer", "--ckpt", str(model), "--data", str(data), "--mode", mode, "--out", str(det)])
        commands.append(["eval", "--det", str(det), "--gt", str(data / "manifest.json"), "--out", str(directory / f"{mode}.json")])
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            assert cli.main(argv) == 0, argv
    names = ["model/checkpoint.ttck", "model/metrics.ndjson", "predicted.json", "predicted.csv", "manual.json", "manual.csv"]
    names += ["predicted.jsonl", "manual.jsonl"]
    return {name: (directory / name).read_bytes() for name in names}


def detection_rows(blob: bytes, factor: float = 1.0) -> list[dict]:
    rows = [json.loads(line) for line in blob.decode().splitlines()]
    return [{**row, "start_s": row["start_s"] * factor, "end_s": row["end_s"] * factor} for row in rows]


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(small_datasets(), st.sampled_from([-3, -1, 1, 2, 5]))
def test_power_of_two_time_scaling_keeps_every_artifact(tmp_path_factory, case, k):
    num_classes, samples, max_clip_len = case
    base = run_pipeline(tmp_path_factory.mktemp("base"), num_classes, samples, max_clip_len)
    factor = 2.0**k
    other = run_pipeline(tmp_path_factory.mktemp("scaled"), num_classes, [scaled(s, factor) for s in samples], max_clip_len)
    for name in base:
        if name.endswith(".jsonl"):
            assert detection_rows(other[name]) == detection_rows(base[name], factor), name
        else:
            assert other[name] == base[name], name
