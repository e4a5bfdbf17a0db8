"""Tests of the benchmark's own output checks.

Run from the repository root:  python3 -m pytest bench -q

The reference matcher must agree with ttcloc's brute-force oracle, and
every check must reject a corrupted input.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run as bench_run
from workloads import Workload

sys.path.insert(0, str(bench_run.SRC))

from ttcloc import network  # noqa: E402
from ttcloc.data import VideoSample  # noqa: E402
from ttcloc.evaluator import index_from_rows, oracle_evaluate  # noqa: E402
from ttcloc.localizer import Detection  # noqa: E402
from ttcloc.objectives import LossConfig, total_loss  # noqa: E402

THRESHOLDS = (0.1, 0.3, 0.5, 0.7)


def _random_instance(rng: random.Random):
    num_classes = rng.randint(1, 3)
    videos = [f"v{i}" for i in range(rng.randint(1, 3))]
    gt = []
    for video in videos:
        for _ in range(rng.randint(0, 3)):
            start = rng.randint(0, 8)
            gt.append((video, rng.randrange(num_classes), float(start), float(start + rng.randint(1, 4))))
    if not gt:
        gt.append((videos[0], 0, 1.0, 3.0))
    dets = []
    for c in range(num_classes):
        for _ in range(rng.randint(0, 10)):
            start = rng.randint(0, 9) * 0.5
            # few distinct scores, so the tie-breaking order matters
            dets.append((rng.choice(videos), c, start, start + rng.randint(1, 8) * 0.5, rng.choice((0.2, 0.5, 0.9))))
    return num_classes, videos, gt, dets


@pytest.mark.parametrize("seed", range(200))
def test_reference_matcher_agrees_with_oracle(seed):
    num_classes, videos, gt, dets = _random_instance(random.Random(seed))
    index = index_from_rows(num_classes, videos, gt)
    oracle = oracle_evaluate([Detection(*d) for d in dets], index, THRESHOLDS)
    table = checks.reference_ap(dets, gt, num_classes, THRESHOLDS)
    for i in range(len(THRESHOLDS)):
        for c in range(num_classes):
            want, got = oracle.per_class_ap[i][c], table[i][c]
            assert (want is None) == (got is None)
            if want is not None:
                assert got == pytest.approx(want, abs=1e-12)


def test_maximal_runs_matches_a_plain_scan():
    rng = np.random.default_rng(0)
    for _ in range(200):
        above = rng.random(rng.integers(1, 30)) < 0.5
        runs, start = [], None
        for i, flag in enumerate(list(above) + [False]):
            if flag and start is None:
                start = i
            if not flag and start is not None:
                runs.append((start, i - 1))
                start = None
        assert checks.maximal_runs(above) == runs


def _video_outputs(seed=0, t=40, c=4):
    rng = np.random.default_rng(seed)
    scores = np.cumsum(rng.normal(size=(t, c)), axis=0)
    thresholds = rng.normal(size=t)
    return scores, thresholds


@pytest.mark.parametrize("mode", ["predicted", "manual"])
def test_runs_check_accepts_exact_runs(mode):
    s, b = _video_outputs()
    expected = checks.expected_detections("v0", s, b, 1.0, mode)
    assert expected
    assert checks.check_runs(expected, list(expected)) == []
    assert checks.check_scores(expected, list(expected)) == []


@pytest.mark.parametrize("mode", ["predicted", "manual"])
def test_runs_check_rejects_shifted_boundary(mode):
    s, b = _video_outputs()
    expected = checks.expected_detections("v0", s, b, 1.0, mode)
    video, c, start, end, score = expected[0]
    shifted = [(video, c, start, end + 1.0, score)] + expected[1:]
    assert checks.check_runs(expected, shifted)


@pytest.mark.parametrize("mode", ["predicted", "manual"])
def test_runs_check_rejects_dropped_run(mode):
    s, b = _video_outputs()
    expected = checks.expected_detections("v0", s, b, 1.0, mode)
    assert checks.check_runs(expected, expected[1:])


def test_sigmoid_keeps_relative_precision_for_tiny_gates():
    # A gate of 1e-8 must not lose digits: scores are compared at a relative 1e-9.
    x = np.linspace(-700.0, 40.0, 3001)
    want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    np.testing.assert_allclose(checks.sigmoid(x), want, rtol=1e-12, atol=0.0)


def test_scores_check_rejects_wrong_score():
    s, b = _video_outputs()
    expected = checks.expected_detections("v0", s, b, 1.0, "manual")
    video, c, start, end, score = expected[0]
    assert checks.check_scores(expected, [(video, c, start, end, score * (1 + 1e-6))])


def _tiny_problem(seed=0):
    rng = np.random.default_rng(seed)
    params = network.init_params(rng, 4, 6, 3)
    clips = [
        VideoSample(id=f"v{i}", features=rng.normal(size=(9, 4)), labels=frozenset({i % 3})) for i in range(4)
    ]
    masks = [(rng.random((9, 6)) >= 0.3).astype(np.float64) for _ in clips]

    def evaluate(arrays):
        breakdown, grads = total_loss(
            network.NetworkParams(**arrays), clips, LossConfig(), "sigmoid", "predicted", masks, 0.3
        )
        return breakdown.total, grads.as_dict()

    return params.as_dict(), evaluate


def test_gradient_check_accepts_the_analytic_gradient():
    arrays, evaluate = _tiny_problem()
    _, grads = evaluate(arrays)
    fd, analytic = checks.directional_derivative(lambda a: evaluate(a)[0], arrays, grads, np.random.default_rng(1))
    assert checks.check_directional_derivative(fd, analytic) == []


@pytest.mark.parametrize("name", ["w1", "conv_kernel", "w2", "b2"])
def test_gradient_check_rejects_perturbed_gradient(name):
    arrays, evaluate = _tiny_problem()
    _, grads = evaluate(arrays)
    rng = np.random.default_rng(2)
    grads[name] = grads[name] + 1e-3 * np.linalg.norm(grads[name]) * rng.standard_normal(grads[name].shape)
    fd, analytic = checks.directional_derivative(lambda a: evaluate(a)[0], arrays, grads, np.random.default_rng(1))
    assert checks.check_directional_derivative(fd, analytic)


def test_checkpoint_reader_and_size(tmp_path):
    params = network.init_params(np.random.default_rng(0), 5, 7, 3)
    path = tmp_path / "c.ttck"
    network.save_params(params, str(path))
    arrays = checks.read_checkpoint(path)
    for name, value in params.as_dict().items():
        np.testing.assert_array_equal(arrays[name], value)
    assert checks.check_checkpoint_size(path, 5, 7, 3) == []
    assert checks.check_checkpoint_size(path, 5, 8, 3)


def test_reference_forward_matches_network():
    params = network.init_params(np.random.default_rng(0), 5, 7, 3)
    x = np.random.default_rng(1).normal(size=(11, 5))
    smap, _ = network.forward(params, x)
    expected = checks.reference_forward(params.as_dict(), x)
    assert checks.check_forward(expected, (smap.scores, smap.thresholds), "v") == []
    assert checks.check_forward(expected, (smap.scores + 1e-6, smap.thresholds), "v")


def test_losses_check_rejects_non_finite_and_missing_steps():
    records = [{"step": 1, "L": 1.0}, {"step": 2, "L": float("nan")}]
    assert checks.check_losses_finite(records, 2)
    assert checks.check_losses_finite(records[:1], 2)
    assert checks.check_losses_finite(records[:1], 1) == []


TINY = Workload(
    name="tiny",
    why="test",
    synth=("--preset", "easy", "--videos-per-class", "3"),
    train=("--hidden-dim", "8", "--max-clip-len", "32", "--batch-size", "4", "--learning-rate", "1e-2",
           "--supervision", "semi", "--semi-k", "1"),
    iterations=20,
    iou=(0.3, 0.7, 0.2),
    setup_repeats=2,
    slices=2,
    eval_repeats=2,
    synth_per_slice=1,
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny pipeline round through the CLI; yields its work directory."""
    work = tmp_path_factory.mktemp("tiny")
    runner = bench_run.Run(bench_run.import_program())
    data = work / "data"
    bench_run.synthesize(runner, TINY, 0, work, False, TINY.setup_repeats, keep=data)
    bench_run.pipeline_round(runner, TINY, 0, work, data, {})
    assert runner.failed == 0
    return work, data


def _check_run(work, data):
    runner = bench_run.Run(bench_run.import_program())
    bench_run.run_checks(runner, TINY, 0, work, data)
    return runner


def test_pipeline_outputs_pass_every_check(pipeline):
    runner = _check_run(*pipeline)
    assert runner.attempted == 9
    assert runner.failed == 0, runner.problems


def _corrupt(pipeline, tmp_path, filename, edit):
    work, data = pipeline
    copy = tmp_path / "work"
    shutil.copytree(work, copy)
    path = copy / filename
    path.write_text(edit(path.read_text()))
    return _check_run(copy, copy / data.name)


def _shift_first_end(text):
    lines = text.splitlines()
    rec = json.loads(lines[0])
    rec["end_s"] += 1.0
    return "\n".join([json.dumps(rec)] + lines[1:]) + "\n"


def test_pipeline_check_rejects_shifted_boundary(pipeline, tmp_path):
    runner = _corrupt(pipeline, tmp_path, "manual.jsonl", _shift_first_end)
    assert any(p.startswith("infer.manual_runs") for p in runner.problems)


def test_pipeline_check_rejects_dropped_run(pipeline, tmp_path):
    runner = _corrupt(pipeline, tmp_path, "manual.jsonl", lambda text: "".join(text.splitlines(True)[1:]))
    assert any(p.startswith("infer.manual_runs") for p in runner.problems)
    assert any(p.startswith("eval.manual_ap") for p in runner.problems)


def test_pipeline_check_rejects_altered_report(pipeline, tmp_path):
    def edit(text):
        report = json.loads(text)
        report["average_map"] += 1e-6
        return json.dumps(report)

    runner = _corrupt(pipeline, tmp_path, "predicted_report.json", edit)
    assert [p.split(":")[0] for p in runner.problems] == ["eval.predicted_ap"]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(Path(bench_run.__file__).parent, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "accept-medium", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
