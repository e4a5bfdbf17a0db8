"""Central finite-difference gradient checking.

Used by the test suite and the ``gradcheck`` CLI subcommand.  The checks
compare hand-derived gradients against an independent numerical estimate;
the binarize gate is reported separately because its surrogate gradient is
intentionally not the true derivative of the step function.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import network
from .errors import ValidationError

FD_STEP = 1e-5
STRICT_TOLERANCE = 1e-5


def numerical_gradient(f: Callable[[np.ndarray], float], x0: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central differences, one coordinate at a time."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        plus = x0.copy()
        minus = x0.copy()
        plus.flat[i] += step
        minus.flat[i] -= step
        grad.flat[i] = (f(plus) - f(minus)) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """L2 relative disagreement; robust when both gradients are tiny."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


@dataclass
class ComponentCheck:
    name: str
    max_rel_err: float
    strict: bool  # surrogate-gradient components are reported, not enforced
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return (not self.strict) or self.max_rel_err <= STRICT_TOLERANCE


def check_network_backward(
    seed: int = 0, t: int = 3, d: int = 2, h: int = 4, c: int = 2, dropout: bool = False
) -> float:
    """FD check of forward/backward on a random linear functional of the outputs,
    with a random half of the hidden units dropped (rate 0.7) if ``dropout``."""
    rng = np.random.default_rng(seed)
    params = network.init_params(rng, d, h, c)
    params.conv_bias += rng.normal(scale=0.1, size=h)  # keep relu inputs off exact kinks
    x = rng.normal(size=(t, d))
    mask = (rng.uniform(size=(t, h)) > 0.5).astype(np.float64) if dropout else None
    d_scores = rng.normal(size=(t, c))
    d_thresholds = rng.normal(size=(t,))

    def objective(theta: np.ndarray) -> float:
        smap, _ = network.forward(params.with_flat(theta), x, dropout_mask=mask, drop_rate=0.7)
        return float(np.sum(d_scores * smap.scores) + np.sum(d_thresholds * smap.thresholds))

    _, cache = network.forward(params, x, dropout_mask=mask, drop_rate=0.7)
    analytic = network.backward(cache, d_scores, d_thresholds).flat
    numeric = numerical_gradient(objective, params.flat)
    return relative_error(analytic, numeric)


def check_gate_gradient(kind: str, seed: int = 0, n: int = 40) -> float:
    """FD check of the gate nonlinearity's input gradient."""
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=2.0, size=n)
    weights = rng.normal(size=n)

    def objective(xv: np.ndarray) -> float:
        return float(np.sum(weights * network.gate_values(xv, kind)))

    values = network.gate_values(x, kind)
    analytic = weights * network.gate_input_grad(x, values, kind)
    numeric = numerical_gradient(objective, x)
    return relative_error(analytic, numeric)


def _fd_instance(seed: int, *, flagged: bool):
    """Tiny deterministic training instance positioned away from kinks."""
    from .data import GroundTruthSegment, VideoSample

    rng = np.random.default_rng(seed)
    d, h, c = 2, 4, 3
    params = network.init_params(rng, d, h, c)
    # nonzero conv bias avoids exact relu kinks from all-dead snippet rows
    params.conv_bias += rng.normal(scale=0.1, size=h)
    clips = [
        VideoSample(
            id="fd-a",
            features=rng.normal(size=(5, d)),
            labels=frozenset({0}),
            snippet_duration=1.0,
            segments=(GroundTruthSegment(0, 1.0, 3.0),) if flagged else None,
            fully_annotated=flagged,
        ),
        VideoSample(
            id="fd-b",
            features=rng.normal(size=(4, d)),
            labels=frozenset({1, 2}),
            snippet_duration=1.0,
            segments=None,
            fully_annotated=False,
        ),
    ]
    return params, clips


def check_total_loss(
    gating: str,
    aggregator: str,
    reg_form: str,
    with_localization: bool,
    seed: int = 0,
    train_localization: str = "predicted",
) -> float:
    """FD check of the combined objective for one configuration.  Under
    ``train_localization="none"`` the clip ``with_localization`` flags must
    change nothing: the localization loss stays inactive.  Under ``"manual"``
    the thresholds are a stop-gradient, so each clip's are held at their
    values at the checked point while the differences run."""
    from .objectives import LossConfig, total_loss

    params, clips = _fd_instance(seed, flagged=with_localization)
    config = LossConfig(
        clas_weight=0.3,
        loc_weight=2.0 if with_localization else 0.0,
        reg_form=reg_form,
        aggregator=aggregator,
    )

    def objective(theta: np.ndarray) -> float:
        breakdown, _ = total_loss(
            params.with_flat(theta), clips, config, gating=gating, train_localization=train_localization
        )
        return breakdown.total

    manual_thresholds = network.manual_thresholds
    if train_localization == "manual":
        # total_loss asks for one clip's thresholds at a time, in clip order
        held = [manual_thresholds(network.forward(params, clip.features)[0].scores) for clip in clips]
        calls = itertools.cycle(held)
        network.manual_thresholds = lambda scores: next(calls)
    try:
        _, grads = total_loss(params, clips, config, gating=gating, train_localization=train_localization)
        numeric = numerical_gradient(objective, params.flat)
    finally:
        network.manual_thresholds = manual_thresholds
    return relative_error(grads.flat, numeric)


def run_gradient_checks(seed: int = 0) -> list[ComponentCheck]:
    """Full sweep: network backward, gates, and each objective configuration
    that :meth:`~ttcloc.trainer.TrainConfig.validate` accepts.

    Differentiable configurations are strict (enforced at 1e-5); the
    binarize gate's straight-through surrogate is reported but exempt, and
    the objective is checked under the differentiable gates only.
    """
    from .objectives import AGGREGATORS, REG_FORMS, TRAIN_LOCALIZATION, LossConfig
    from .trainer import TrainConfig

    # component name -> (strict, check)
    components = {
        "network_backward": (True, lambda: max(check_network_backward(seed), check_network_backward(seed + 1))),
        "network_backward_dropout": (True, lambda: check_network_backward(seed, t=4, dropout=True)),
    }
    for kind in network.GATING_KINDS:
        components[f"gate_{kind}"] = (kind not in network.SURROGATE_GATES, functools.partial(check_gate_gradient, kind, seed))
    gates = [kind for kind in network.GATING_KINDS if kind not in network.SURROGATE_GATES]
    sweep = itertools.product(TRAIN_LOCALIZATION, gates, AGGREGATORS, REG_FORMS, (False, True))
    for rule, gating, aggregator, reg_form, with_loc in sweep:
        loss = LossConfig(reg_form=reg_form, aggregator=aggregator)
        try:
            TrainConfig(gating=gating, train_localization=rule, loss=loss).validate()
        except ValidationError:
            continue
        # "none" computes no gate, so the gating kind is irrelevant: the name leaves it out and the first gate runs
        which = gating if rule == "predicted" else rule if rule == "none" else f"{rule}_{gating}"
        name = f"loss_{which}_{aggregator}_{reg_form}_{'loc' if with_loc else 'noloc'}"
        check = functools.partial(check_total_loss, gating, aggregator, reg_form, with_loc, seed, train_localization=rule)
        components.setdefault(name, (True, check))

    checks = []
    for name, (strict, check) in components.items():
        start = time.perf_counter()
        err = check()
        checks.append(ComponentCheck(name, err, strict, time.perf_counter() - start))
    return checks
