"""Every function the benchmark traces must exist where it looks for it.

``bench/spans.py`` wraps each ``(module, function)`` of ``SPANS`` and
``COUNTED`` with ``getattr`` on the ``ttcloc`` module, so a renamed or moved
function would only fail a traced benchmark run.  This test reads
``bench/spans.py`` and fails first instead.  Its counters read what the
wrapped functions return, so a traced ``infer`` must count every detection
it writes.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
from pathlib import Path

import pytest

from ttcloc import cli

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
