"""Spans around the public functions of each ttcloc module, from outside.

Nothing inside ``src/ttcloc`` is instrumented.  :func:`traced` swaps each
listed function for a timing wrapper in every ttcloc module namespace that
holds it (so ``from .data import load_dataset`` in ``cli`` is covered as
well as ``network.forward`` called through the module), and restores the
originals on exit.  A span's self time is its duration minus the time of
the spans nested inside it.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name).  Span names are the per-layer metric stems.
SPANS = (
    ("synth", "generate", "synth.generate"),
    ("data", "write_dataset", "data.write_dataset"),
    ("data", "load_dataset", "data.load_dataset"),
    ("data", "crop_clip", "data.crop_clip"),
    ("data", "rasterize", "data.rasterize"),
    ("network", "forward", "network.forward"),
    ("network", "backward", "network.backward"),
    ("network", "save_params", "network.save_params"),
    ("network", "load_params", "network.load_params"),
    ("objectives", "total_loss", "objectives.total_loss"),
    ("objectives", "pool_and_classify", "objectives.pool_and_classify"),
    ("objectives", "pool_backward", "objectives.pool_backward"),
    ("objectives", "classification_loss", "objectives.classification_loss"),
    ("objectives", "threshold_regularization_loss", "objectives.threshold_regularization_loss"),
    ("objectives", "localization_loss", "objectives.localization_loss"),
    ("trainer", "train_step", "trainer.train_step"),
    ("trainer", "_adam_update", "trainer.adam_update"),
    ("localizer", "infer_video", "localizer.infer_video"),
    ("localizer", "extract_segments", "localizer.extract_segments"),
    ("localizer", "write_detections", "localizer.write_detections"),
    ("localizer", "load_detections", "localizer.load_detections"),
    ("evaluator", "evaluate", "evaluator.evaluate"),
    ("evaluator", "match_detections", "evaluator.match_detections"),
)

# Called millions of times on long videos: counted, not timed.
COUNTED = (("evaluator", "interval_iou", "evaluator.interval_iou"),)


def forward_flop(params, features) -> int:
    """Matmul flops of one forward pass: linear-1, three conv taps, head."""
    t = features.shape[0]
    d, h = params.w1.shape
    k = params.w2.shape[1]
    return 2 * t * (d * h + 3 * h * h + h * k)


def backward_flop(cache) -> int:
    """Matmul flops of one backward pass: head (weight and input), conv
    (kernel and input, three taps each) and linear-1 (weight only)."""
    t = cache.features.shape[0]
    d, h = cache.params.w1.shape
    k = cache.params.w2.shape[1]
    return 2 * t * (2 * h * k + 6 * h * h + d * h)


class Tracer:
    """Inclusive time, self time and call count per span, plus counters."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._children = []  # child-time accumulator per open span

    def run(self, name, fn, *args, **kwargs):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = self._children.pop()
            self.inclusive[name] += elapsed
            self.self_time[name] += elapsed - child
            self.calls[name] += 1
            if self._children:
                self._children[-1] += elapsed

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            result = self.run(name, fn, *args, **kwargs)
            self._observe(name, args, result)
            return result

        return wrapper

    def wrap_counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, args, result):
        if name == "network.forward":
            self.counts["network.flop"] += forward_flop(args[0], args[1])
        elif name == "network.backward":
            self.counts["network.flop"] += backward_flop(args[0])
        elif name == "network.save_params":
            self.counts["network.checkpoint_bytes"] = os.path.getsize(args[1])
        elif name == "localizer.infer_video":
            self.counts["localizer.detections"] += len(result)


def _ttcloc_modules():
    return [m for name, m in sys.modules.items() if m is not None and (name == "ttcloc" or name.startswith("ttcloc."))]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every listed ttcloc function through ``tracer`` while open."""
    modules = _ttcloc_modules()
    swaps = []
    for module_name, func_name, span, make in (
        [(m, f, s, tracer.wrap) for m, f, s in SPANS] + [(m, f, s, tracer.wrap_counted) for m, f, s in COUNTED]
    ):
        original = getattr(sys.modules[f"ttcloc.{module_name}"], func_name)
        wrapper = make(span, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    swaps.append((module, attr, original))
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(swaps):
            setattr(module, attr, original)
