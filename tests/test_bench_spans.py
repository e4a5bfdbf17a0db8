"""Every function the benchmark traces must exist where it looks for it.

``bench/spans.py`` wraps each ``(module, function)`` of ``SPANS`` and
``COUNTED`` with ``getattr`` on the ``ttcloc`` module, so a renamed or moved
function would only fail a traced benchmark run.  This test reads
``bench/spans.py`` and fails first instead.  Its counters read what the
wrapped functions are given and return, so a traced ``infer`` must count
every detection it writes, and a traced ``train`` the GEMM flops of every
clip it trains on.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ttcloc import cli, network, trainer

from test_cli import make_dataset, run_cli

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def traced_functions():
    spans = bench_spans()
    return [(module, func) for module, func, _ in spans.SPANS + spans.COUNTED]


@pytest.mark.parametrize("module_name, func_name", traced_functions())
def test_traced_function_is_module_level(module_name, func_name):
    module = importlib.import_module(f"ttcloc.{module_name}")
    func = getattr(module, func_name, None)
    assert inspect.isfunction(func), f"ttcloc.{module_name}.{func_name} is not a function"
    assert func.__module__ == module.__name__, f"ttcloc.{module_name}.{func_name} is defined in {func.__module__}"


def test_traced_infer_counts_the_detections_it_writes(tmp_path):
    ds = make_dataset(str(tmp_path / "ds"))
    run = str(tmp_path / "run")
    assert run_cli("train", "--data", ds, "--out", run, "--iterations", "2", "--hidden-dim", "8") == 0
    spans = bench_spans()
    tracer = spans.Tracer()
    det = tmp_path / "det.jsonl"
    with spans.traced(tracer), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["infer", "--ckpt", run, "--data", ds, "--mode", "manual", "--out", str(det)]) == 0
    written = len(det.read_text().splitlines())
    assert written > 0
    assert tracer.counts["localizer.detections"] == written
    assert tracer.calls["localizer.infer_video"] == 9  # one call per video


def test_traced_train_makes_one_network_pass_per_step_and_counts_every_clip(tmp_path, monkeypatch):
    # the flop counter reads the (N, D) features of a pass and the cache's; the
    # per-clip formula summed over each batch's clips must give the same count
    ds = make_dataset(str(tmp_path / "ds"))
    run = str(tmp_path / "run")
    batches = []
    real_total_loss = trainer.total_loss

    def recording(params, clips, *args, **kwargs):
        batches.append([clip.num_snippets for clip in clips])
        return real_total_loss(params, clips, *args, **kwargs)

    monkeypatch.setattr(trainer, "total_loss", recording)
    spans = bench_spans()
    tracer = spans.Tracer()
    argv = ["train", "--data", ds, "--out", run, "--iterations", "3", "--hidden-dim", "8", "--batch-size", "5", "--max-clip-len", "18"]
    with spans.traced(tracer), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert tracer.calls["network.forward"] == tracer.calls["network.backward"] == len(batches) == 3
    assert len({t for lengths in batches for t in lengths}) > 1  # ragged batches
    params = network.load_params(f"{run}/checkpoint.ttck")

    def clip_flop(t):
        features = np.empty((t, params.feature_dim))
        return spans.forward_flop(params, features) + spans.backward_flop(SimpleNamespace(features=features, params=params))

    assert tracer.counts["network.flop"] == sum(clip_flop(t) for lengths in batches for t in lengths)
