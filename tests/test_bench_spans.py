"""Every function the benchmark traces must exist where it looks for it.

``bench/spans.py`` wraps each ``(module, function)`` of ``SPANS`` and
``COUNTED`` with ``getattr`` on the ``ttcloc`` module, so a renamed or moved
function would only fail a traced benchmark run.  This test reads
``bench/spans.py`` and fails first instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_functions():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, func) for module, func, _ in spans.SPANS + spans.COUNTED]


@pytest.mark.parametrize("module_name, func_name", traced_functions())
def test_traced_function_is_module_level(module_name, func_name):
    module = importlib.import_module(f"ttcloc.{module_name}")
    func = getattr(module, func_name, None)
    assert inspect.isfunction(func), f"ttcloc.{module_name}.{func_name} is not a function"
    assert func.__module__ == module.__name__, f"ttcloc.{module_name}.{func_name} is defined in {func.__module__}"
