"""Training objectives: gated pooling, video probabilities, and losses.

All losses return both their scalar value and exact gradients.  Gradients
at non-differentiable points follow fixed subgradient conventions: 0 at
hinge/abs kinks, 0 through non-maximal entries of a max, and no gradient
through manually-set thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network
from .data import VideoSample, rasterize
from .errors import ValidationError
from .network import NetworkParams, ScoreMap

EPS = 1e-8  # stabilizer for gate-sum and norm denominators
PROB_FLOOR = 1e-30

REG_FORMS = ("inner_product", "l1", "l2", "cosine")
AGGREGATORS = ("gated", "topk_eighth")
TRAIN_LOCALIZATION = (*network.THRESHOLD_RULES, "none")  # "none": no gate, no localization loss


@dataclass
class LossConfig:
    """Weights and variants of the combined objective.

    ``clas_weight`` balances the classification loss against the threshold
    regularizer (which gets ``1 - clas_weight``); ``loc_weight`` scales the
    localization loss; ``background_weight`` defaults to ``1 / num_classes``
    when left unset.
    """

    clas_weight: float = 0.2
    loc_weight: float = 3.0
    background_weight: float | None = None
    reg_form: str = "inner_product"
    aggregator: str = "gated"

    def validate(self) -> None:
        if not 0.0 <= self.clas_weight <= 1.0:
            raise ValidationError(f"clas_weight must be in [0, 1], got {self.clas_weight}")
        if not self.loc_weight >= 0:
            raise ValidationError(f"loc_weight must be >= 0, got {self.loc_weight}")
        if self.background_weight is not None and not self.background_weight > 0:
            raise ValidationError(f"background_weight must be positive, got {self.background_weight}")
        if self.reg_form not in REG_FORMS:
            raise ValidationError(f"reg_form must be one of {REG_FORMS}, got {self.reg_form!r}")
        if self.aggregator not in AGGREGATORS:
            raise ValidationError(f"aggregator must be one of {AGGREGATORS}, got {self.aggregator!r}")

    def resolved_background_weight(self, num_classes: int) -> float:
        return self.background_weight if self.background_weight is not None else 1.0 / num_classes


@dataclass
class VideoProbabilities:
    pooled_scores: np.ndarray  # (C,)
    pooled_threshold: float
    probs: np.ndarray  # (C + 1,), last entry is background


def label_vector(labels, num_classes: int) -> np.ndarray:
    """Normalized multi-hot target: mass 1 split evenly over the labels."""
    labels = sorted(labels)
    if not labels:
        raise ValidationError("label_vector: empty label set")
    if labels[0] < 0 or labels[-1] >= num_classes:
        raise ValidationError(f"label_vector: labels {labels} out of range for C={num_classes}")
    y = np.zeros(num_classes)
    y[labels] = 1.0 / len(labels)
    return y


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def topk_count(num_snippets: int) -> int:
    return -(-num_snippets // 8)  # ceil(T / 8)


def _topk_indices(column: np.ndarray, k: int) -> np.ndarray:
    return np.argsort(-column, kind="stable")[:k]


def pool_and_classify(score_map: ScoreMap, gate: np.ndarray | None, aggregator: str) -> VideoProbabilities:
    """Video-level class scores and (C+1)-way probabilities.

    ``gated``: per class, average of snippet scores weighted by the (T, C)
    gate values.
    ``topk_eighth``: per class, mean of the ceil(T/8) highest scores; the
    gate is unused.  Either way the pooled threshold is the plain temporal
    mean and joins the softmax as the background logit.
    """
    s, b = score_map.scores, score_map.thresholds
    t, c = s.shape
    if aggregator == "gated":
        if gate is None:
            raise ValidationError("gated aggregator requires a gate")
        pooled = (gate * s).sum(axis=0) / (gate.sum(axis=0) + EPS)
    elif aggregator == "topk_eighth":
        k = topk_count(t)
        pooled = np.array([s[_topk_indices(s[:, j], k), j].mean() for j in range(c)])
    else:
        raise ValidationError(f"unknown aggregator {aggregator!r}")
    pooled_threshold = b.mean()
    probs = _softmax(np.append(pooled, pooled_threshold))
    return VideoProbabilities(pooled_scores=pooled, pooled_threshold=float(pooled_threshold), probs=probs)


def pool_backward(
    score_map: ScoreMap,
    gate: np.ndarray | None,
    aggregator: str,
    pooled_scores: np.ndarray,
    d_pooled_scores: np.ndarray,
    d_pooled_threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the pooled quantities back to (scores, gate, thresholds).

    ``pooled_scores`` is what :func:`pool_and_classify` returned for the
    same inputs.  The gate is treated as an independent input here; chaining
    through the gate nonlinearity into the score map is the caller's job.
    """
    s = score_map.scores
    t, c = s.shape
    if aggregator == "gated":
        denom = gate.sum(axis=0) + EPS
        d_s = d_pooled_scores[None, :] * gate / denom[None, :]
        d_g = d_pooled_scores[None, :] * (s - pooled_scores[None, :]) / denom[None, :]
    elif aggregator == "topk_eighth":
        d_s = np.zeros_like(s)
        d_g = np.zeros_like(s)
        k = topk_count(t)
        for j in range(c):
            idx = _topk_indices(s[:, j], k)
            d_s[idx, j] = d_pooled_scores[j] / k
    else:
        raise ValidationError(f"unknown aggregator {aggregator!r}")
    d_b = np.full(t, d_pooled_threshold / t)
    return d_s, d_g, d_b


# ---------------------------------------------------------------------------
# Losses (batch level; every returned gradient already carries the 1/B)


def classification_loss(
    probs: list[VideoProbabilities],
    labels: list[np.ndarray],
    background_weight: float,
) -> tuple[float, list[tuple[np.ndarray, float]]]:
    """Cross entropy on pooled probabilities.

    Each video contributes its label mass plus one background term weighted
    by ``background_weight``; actions in untrimmed video are rare enough
    that every video is assumed to contain some background.

    Returns the batch-mean loss and per-video gradients with respect to the
    pooled class scores and pooled threshold.
    """
    if not probs:
        raise ValidationError("classification_loss: empty batch")
    batch = len(probs)
    total = 0.0
    grads = []
    for vp, y in zip(probs, labels):
        target = np.append(y, background_weight)
        total -= float(target @ np.log(np.maximum(vp.probs, PROB_FLOOR)))
        d_logits = (target.sum() * vp.probs - target) / batch
        grads.append((d_logits[:-1], float(d_logits[-1])))
    return total / batch, grads


def _gt_max_scores(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-snippet max over ground-truth class scores and its argmax class."""
    gt_classes = np.flatnonzero(y > 0)
    if gt_classes.size == 0:
        raise ValidationError("threshold regularization needs at least one ground-truth class")
    sub = s[:, gt_classes]
    amax = np.argmax(sub, axis=1)
    rows = np.arange(s.shape[0])
    return sub[rows, amax], gt_classes[amax]


def _safe_unit(v: np.ndarray) -> tuple[float, np.ndarray]:
    """Norm and direction with a zero direction for the zero vector."""
    n = float(np.linalg.norm(v))
    return n, (v / n if n > 0 else np.zeros_like(v))


def threshold_regularization_loss(
    score_maps: list[ScoreMap],
    labels: list[np.ndarray],
    form: str = "inner_product",
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Margin regularizer between ground-truth action scores and thresholds.

    ``inner_product`` (default): hinge on the per-snippet product of the
    ground-truth max score and the threshold, normalized by the product of
    the two vectors' norms; drives the two to opposite signs with margin.
    ``l1`` / ``l2``: per-snippet hinge that saturates once the distance
    between the two exceeds 1.  ``cosine``: plain cosine similarity.
    """
    if form not in REG_FORMS:
        raise ValidationError(f"unknown reg form {form!r}")
    batch = len(score_maps)
    total = 0.0
    grads = []
    for smap, y in zip(score_maps, labels):
        s, b = smap.scores, smap.thresholds
        t = s.shape[0]
        stilde, max_cls = _gt_max_scores(s, y)
        if form == "inner_product":
            margins = stilde * b + 1.0
            active = margins > 0
            hinge_sum = float(margins[active].sum())
            ns, s_dir = _safe_unit(stilde)
            nb, b_dir = _safe_unit(b)
            denom = (ns + EPS) * (nb + EPS)
            value = hinge_sum / denom
            d_stilde = (b * active) / denom - value * s_dir / (ns + EPS)
            d_b = (stilde * active) / denom - value * b_dir / (nb + EPS)
        elif form == "l1":
            diff = stilde - b
            active = np.abs(diff) < 1.0
            value = float(np.maximum(1.0 - np.abs(diff), 0.0).sum() / t)
            d_stilde = -np.sign(diff) * active / t
            d_b = np.sign(diff) * active / t
        elif form == "l2":
            diff = stilde - b
            active = diff * diff < 1.0
            value = float(np.maximum(1.0 - diff * diff, 0.0).sum() / t)
            d_stilde = -2.0 * diff * active / t
            d_b = 2.0 * diff * active / t
        else:  # cosine
            ns, s_dir = _safe_unit(stilde)
            nb, b_dir = _safe_unit(b)
            denom = (ns + EPS) * (nb + EPS)
            value = float(stilde @ b) / denom
            d_stilde = b / denom - value * s_dir / (ns + EPS)
            d_b = stilde / denom - value * b_dir / (nb + EPS)
        total += value
        d_s = np.zeros_like(s)
        np.add.at(d_s, (np.arange(t), max_cls), d_stilde / batch)
        grads.append((d_s, d_b / batch))
    return total / batch, grads


def localization_loss(
    gates: list[np.ndarray | None],
    annotations: list[np.ndarray | None],
    fully_annotated: list[bool],
) -> tuple[float, list[np.ndarray | None]]:
    """Mean absolute deviation between gates and rasterized annotations.

    Only fully annotated samples contribute; with none in the batch the
    loss is exactly 0 with no gradients.
    """
    idx = [i for i, flag in enumerate(fully_annotated) if flag]
    grads: list[np.ndarray | None] = [None] * len(gates)
    if not idx:
        return 0.0, grads
    total = 0.0
    for i in idx:
        g = gates[i]
        a = annotations[i]
        if a is None or a.shape != g.shape:
            raise ValidationError("localization_loss: annotation missing or mis-shaped for a flagged sample")
        diff = g - a
        total += float(np.abs(diff).mean())
        grads[i] = np.sign(diff) / (len(idx) * diff.size)
    return total / len(idx), grads


# ---------------------------------------------------------------------------
# Combined objective


@dataclass
class LossBreakdown:
    clas: float
    reg: float
    loc: float
    total: float

    def as_dict(self) -> dict[str, float]:
        return {"L_clas": self.clas, "L_reg": self.reg, "L_loc": self.loc, "L": self.total}


def total_loss(
    params: NetworkParams,
    clips: list[VideoSample],
    config: LossConfig,
    gating: str,
    train_localization: str = "predicted",
    dropout_masks: list[np.ndarray | None] | None = None,
    drop_rate: float = 0.7,
) -> tuple[LossBreakdown, NetworkParams]:
    """Weighted sum of the three losses with a full backward pass.

    Composes, per clip: network forward, gate, pooling, probabilities; then
    classification + threshold regularization (+ localization over the
    fully annotated clips), and backpropagates the weighted upstream
    gradients through the shared score map into one parameter gradient.
    """
    config.validate()
    if train_localization not in TRAIN_LOCALIZATION:
        raise ValidationError(f"unknown train-time localization rule {train_localization!r}")
    if train_localization == "none" and config.aggregator == "gated":
        raise ValidationError("train_localization='none' requires the topk_eighth aggregator")
    if not clips:
        raise ValidationError("total_loss: empty batch")
    num_classes = params.num_classes
    masks = dropout_masks if dropout_masks is not None else [None] * len(clips)

    smaps, caches, gates, gate_grads, probs, labels = [], [], [], [], [], []
    for clip, mask in zip(clips, masks):
        smap, cache = network.forward(params, clip.features, dropout_mask=mask, drop_rate=drop_rate)
        gate = gate_grad = None
        if train_localization != "none":
            x = network.gate_margins(smap, train_localization)
            gate = network.gate_values(x, gating)
            gate_grad = network.gate_input_grad(x, gate, gating)
        smaps.append(smap)
        caches.append(cache)
        gates.append(gate)
        gate_grads.append(gate_grad)
        probs.append(pool_and_classify(smap, gate, config.aggregator))
        labels.append(label_vector(clip.labels, num_classes))

    w_b = config.resolved_background_weight(num_classes)
    clas_value, clas_grads = classification_loss(probs, labels, w_b)
    reg_value, reg_grads = threshold_regularization_loss(smaps, labels, config.reg_form)

    flags = [clip.fully_annotated for clip in clips]
    loc_active = train_localization != "none" and config.loc_weight > 0 and any(flags)
    if loc_active:
        annotations = [
            rasterize(clip.segments, clip.num_snippets, num_classes, clip.snippet_duration) if flag else None
            for clip, flag in zip(clips, flags)
        ]
        loc_value, loc_grads = localization_loss(gates, annotations, flags)
    else:
        loc_value, loc_grads = 0.0, [None] * len(clips)

    lam, eta = config.clas_weight, config.loc_weight
    total = params.with_flat(np.zeros_like(params.flat))
    clip_grads = params.with_flat(np.empty_like(params.flat))
    for i, (smap, cache) in enumerate(zip(smaps, caches)):
        d_s = np.zeros_like(smap.scores)
        d_b = np.zeros_like(smap.thresholds)
        d_g = np.zeros_like(smap.scores)
        if lam > 0:
            d_shat, d_bhat = clas_grads[i]
            ds_pool, dg_pool, db_pool = pool_backward(
                smap, gates[i], config.aggregator, probs[i].pooled_scores, d_shat, d_bhat
            )
            d_s += lam * ds_pool
            d_b += lam * db_pool
            d_g += lam * dg_pool
        if lam < 1:
            ds_reg, db_reg = reg_grads[i]
            d_s += (1.0 - lam) * ds_reg
            d_b += (1.0 - lam) * db_reg
        if loc_active and loc_grads[i] is not None:
            d_g += eta * loc_grads[i]
        if gates[i] is not None and d_g.any():
            d_x = d_g * gate_grads[i]
            d_s += d_x
            if train_localization == "predicted":
                d_b -= d_x.sum(axis=1)
        network.backward(cache, d_s, d_b, out=clip_grads)
        total.flat += clip_grads.flat

    breakdown = LossBreakdown(
        clas=clas_value,
        reg=reg_value,
        loc=loc_value,
        total=lam * clas_value + (1.0 - lam) * reg_value + eta * loc_value,
    )
    return breakdown, total
