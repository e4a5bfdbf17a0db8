"""Training objectives: gated pooling, video probabilities, and losses.

All losses return both their scalar value and exact gradients.  Gradients
at non-differentiable points follow fixed subgradient conventions: 0 at
hinge/abs kinks, 0 through non-maximal entries of a max, and no gradient
through manually-set thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import network
from .data import VideoSample, rasterize
from .errors import ValidationError, check_choices
from .network import NetworkParams, ScoreMap

EPS = 1e-8  # stabilizer for gate-sum and norm denominators
PROB_FLOOR = 1e-30

REG_FORMS = ("inner_product", "l1", "l2", "cosine")
AGGREGATORS = ("gated", "topk_eighth")
TRAIN_LOCALIZATION = (*network.THRESHOLD_RULES, "none")  # "none": no gate, no localization loss


@dataclass(frozen=True)
class LossConfig:
    """Weights and variants of the combined objective, checked when built.

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

    # the values each string field may take
    CHOICES = {"reg_form": REG_FORMS, "aggregator": AGGREGATORS}

    def __post_init__(self) -> None:
        if not 0.0 <= self.clas_weight <= 1.0:
            raise ValidationError(f"clas_weight must be in [0, 1], got {self.clas_weight}")
        if not (self.loc_weight >= 0 and math.isfinite(self.loc_weight)):
            raise ValidationError(f"loc_weight must be finite and >= 0, got {self.loc_weight}")
        if self.background_weight is not None and not (self.background_weight > 0 and math.isfinite(self.background_weight)):
            raise ValidationError(f"background_weight must be finite and positive, got {self.background_weight}")
        check_choices(self, self.CHOICES)

    def resolved_background_weight(self, num_classes: int) -> float:
        return self.background_weight if self.background_weight is not None else 1.0 / num_classes


@dataclass
class VideoProbabilities:
    """Video-level quantities of a batch, one row per clip."""

    pooled_scores: np.ndarray  # (B, C)
    pooled_threshold: np.ndarray  # (B,)
    probs: np.ndarray  # (B, C + 1), last column is background
    gate_mass: np.ndarray | None = None  # (B, C): the gate's column sums + EPS, under the gated aggregator


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


def topk_count(num_snippets: int) -> int:
    return -(-num_snippets // 8)  # ceil(T / 8)


# Batches: a ScoreMap (and each (N, C) array beside it) holds the rows of B
# clips back to back, laid out by their ``lengths``; ``None`` means one clip.
# Each reduction over a clip (a column sum, a mean, a norm, a dot product)
# runs on that clip's contiguous row slice, so it sums in the order it would
# for the clip alone; everything elementwise runs on the whole batch, with
# per-clip values spread over their rows by ``np.repeat``.


def _column_sums(x: np.ndarray, spans) -> np.ndarray:
    return np.array([x[a:b].sum(axis=0) for a, b in spans])


def _topk_rows(s: np.ndarray, a: int, b: int) -> np.ndarray:
    """(C, k) row indices of the ceil(T/8) highest scores of each class
    column of the clip ``s[a:b]``, highest first, ties by snippet order.

    The indices are C-contiguous, so the gathered (C, k) scores are too and
    each class's mean sums its k values pairwise, as a 1-D mean does."""
    return a + np.argsort(-s[a:b], axis=0, kind="stable")[: topk_count(b - a)].T.copy()


def pool_and_classify(score_map: ScoreMap, gate: np.ndarray | None, aggregator: str, lengths=None) -> VideoProbabilities:
    """Video-level class scores and (C+1)-way probabilities of each clip.

    ``gated``: per class, average of snippet scores weighted by the (T, C)
    gate values.
    ``topk_eighth``: per class, mean of the ceil(T/8) highest scores; the
    gate is unused.  Either way the pooled threshold is the plain temporal
    mean and joins the softmax as the background logit.
    """
    s, b = score_map.scores, score_map.thresholds
    lengths, spans = network.clip_layout(lengths, s.shape[0])
    mass = None
    if aggregator == "gated":
        if gate is None:
            raise ValidationError("gated aggregator requires a gate")
        mass = _column_sums(gate, spans) + EPS
        pooled = _column_sums(gate * s, spans) / mass
    elif aggregator == "topk_eighth":
        cols = np.arange(s.shape[1])[:, None]
        pooled = np.array([s[_topk_rows(s, a, z), cols].mean(axis=1) for a, z in spans])
    else:
        raise ValidationError(f"unknown aggregator {aggregator!r}")
    pooled_threshold = np.array([b[a:z].sum() for a, z in spans]) / lengths
    logits = np.concatenate([pooled, pooled_threshold[:, None]], axis=1)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return VideoProbabilities(pooled_scores=pooled, pooled_threshold=pooled_threshold, probs=probs, gate_mass=mass)


def pool_backward(
    score_map: ScoreMap,
    gate: np.ndarray | None,
    aggregator: str,
    probs: VideoProbabilities,
    d_pooled_scores: np.ndarray,
    d_pooled_threshold: np.ndarray,
    lengths=None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the pooled quantities back to (scores, gate, thresholds);
    the first two are written into the pair ``out`` (allocated when not given).

    ``probs`` is what :func:`pool_and_classify` returned for the same
    inputs.  The gate is treated as an independent input here; chaining
    through the gate nonlinearity into the score map is the caller's job.
    """
    s = score_map.scores
    lengths, spans = network.clip_layout(lengths, s.shape[0])
    d_s, d_g = (np.empty(s.shape), np.empty(s.shape)) if out is None else out
    if aggregator == "gated":
        # d_pooled * gate / mass and d_pooled * (s - pooled) / mass, each clip's values spread over its rows
        clip = np.repeat(np.arange(len(lengths)), lengths)
        np.subtract(s, np.take(probs.pooled_scores, clip, axis=0, out=d_g), out=d_g)
        np.take(d_pooled_scores, clip, axis=0, out=d_s)
        d_g *= d_s
        d_s *= gate
        mass = probs.gate_mass[clip]
        d_s /= mass
        d_g /= mass
    elif aggregator == "topk_eighth":
        d_s.fill(0.0)
        d_g.fill(0.0)
        cols = np.arange(s.shape[1])[:, None]
        for (a, z), d in zip(spans, d_pooled_scores):
            rows = _topk_rows(s, a, z)
            d_s[rows, cols] = (d / rows.shape[1])[:, None]
    else:
        raise ValidationError(f"unknown aggregator {aggregator!r}")
    d_b = np.repeat(np.asarray(d_pooled_threshold) / lengths, lengths)
    return d_s, d_g, d_b


# ---------------------------------------------------------------------------
# Losses (batch level; every returned gradient already carries the 1/B)


def classification_loss(
    probs: VideoProbabilities,
    labels: np.ndarray,
    background_weight: float,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Cross entropy on pooled probabilities.

    Each video contributes its label mass (a row of the (B, C) ``labels``)
    plus one background term weighted by ``background_weight``; actions in
    untrimmed video are rare enough that every video is assumed to contain
    some background.

    Returns the batch-mean loss and its gradients with respect to the
    pooled class scores (B, C) and pooled thresholds (B,).
    """
    p = probs.probs
    batch = p.shape[0]
    if not batch:
        raise ValidationError("classification_loss: empty batch")
    target = np.concatenate([labels, np.full((batch, 1), background_weight)], axis=1)
    log_p = np.log(np.maximum(p, PROB_FLOOR))
    total = 0.0
    for t_row, lp_row in zip(target, log_p):
        total -= float(t_row @ lp_row)
    d_logits = (target.sum(axis=1, keepdims=True) * p - target) / batch
    return total / batch, (d_logits[:, :-1], d_logits[:, -1])


def _gt_max_scores(s: np.ndarray, gt: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Per-snippet max over ground-truth class scores and its argmax class;
    ``gt`` is the (B, C) boolean ground-truth mask of each clip."""
    if not gt.any(axis=1).all():
        raise ValidationError("threshold regularization needs at least one ground-truth class")
    max_cls = np.argmax(np.where(np.repeat(gt, lengths, axis=0), s, -np.inf), axis=1)
    return s[np.arange(s.shape[0]), max_cls], max_cls


def _norms(v: np.ndarray, spans) -> np.ndarray:
    """Euclidean norm of each clip's slice of the contiguous vector ``v``."""
    return np.sqrt([v[a:b] @ v[a:b] for a, b in spans])


def _units(v: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``v`` over its clip's norm, with a zero direction for a zero norm."""
    return np.divide(v, norms, out=np.zeros_like(v), where=norms > 0)


def threshold_regularization_loss(
    score_map: ScoreMap,
    labels: np.ndarray,
    form: str = "inner_product",
    lengths=None,
    out: np.ndarray | None = None,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Margin regularizer between ground-truth action scores and thresholds.

    ``inner_product`` (default): hinge on the per-snippet product of the
    ground-truth max score and the threshold, normalized by the product of
    the two vectors' norms; drives the two to opposite signs with margin.
    ``l1`` / ``l2``: per-snippet hinge that saturates once the distance
    between the two exceeds 1.  ``cosine``: plain cosine similarity.
    Each clip (a row of ``labels``) gets its own value; the loss is their
    mean, and the gradients are (N, C), written into ``out`` (allocated when
    not given), and (N,).
    """
    if form not in REG_FORMS:
        raise ValidationError(f"unknown reg form {form!r}")
    s, b = score_map.scores, score_map.thresholds
    lengths, spans = network.clip_layout(lengths, s.shape[0])
    batch = len(lengths)
    t = np.array(lengths)
    stilde, max_cls = _gt_max_scores(s, labels > 0, lengths)
    if form in ("inner_product", "cosine"):
        ns = _norms(stilde, spans)
        nb = _norms(np.ascontiguousarray(b), spans)
        denom = (ns + EPS) * (nb + EPS)
        if form == "inner_product":
            margins = stilde * b + 1.0
            active = margins > 0
            hinge = margins[active]
            ends = np.cumsum(active)[[z - 1 for _, z in spans]]
            starts = np.concatenate([[0], ends[:-1]])
            values = np.array([hinge[p:q].sum() for p, q in zip(starts, ends)]) / denom
            d_stilde, d_b = b * active, stilde * active
        else:  # cosine: the dot product reads b in its own (strided) layout
            values = np.array([stilde[a:z] @ b[a:z] for a, z in spans]) / denom
            d_stilde, d_b = b, stilde
        rep = np.repeat(np.stack([denom, values, ns + EPS, nb + EPS, ns, nb]), lengths, axis=1)
        r_denom, r_value, r_ns, r_nb = rep[:4]
        d_stilde = d_stilde / r_denom - r_value * _units(stilde, rep[4]) / r_ns
        d_b = d_b / r_denom - r_value * _units(b, rep[5]) / r_nb
    else:
        diff = stilde - b
        r_t = np.repeat(t, lengths)
        if form == "l1":
            active = np.abs(diff) < 1.0
            terms = np.maximum(1.0 - np.abs(diff), 0.0)
            d_stilde = -np.sign(diff) * active / r_t
            d_b = np.sign(diff) * active / r_t
        else:  # l2
            active = diff * diff < 1.0
            terms = np.maximum(1.0 - diff * diff, 0.0)
            d_stilde = -2.0 * diff * active / r_t
            d_b = 2.0 * diff * active / r_t
        values = np.array([terms[a:z].sum() for a, z in spans]) / t
    total = 0.0
    for value in values.tolist():
        total += value
    d_s = np.empty(s.shape) if out is None else out
    d_s.fill(0.0)
    d_s[np.arange(s.shape[0]), max_cls] += d_stilde / batch
    return total / batch, (d_s, d_b / batch)


def localization_loss(
    gate: np.ndarray,
    annotation: np.ndarray | None,
    fully_annotated: list[bool],
    lengths=None,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    """Mean absolute deviation between gates and rasterized annotations.

    Only the rows of fully annotated clips contribute (``annotation`` may
    hold anything elsewhere); with none in the batch the loss is exactly 0
    with no gradient.  The gradient is written into ``out`` (allocated when
    not given).
    """
    lengths, spans = network.clip_layout(lengths, gate.shape[0])
    if len(fully_annotated) != len(lengths):
        raise ValidationError("localization_loss: one fully_annotated flag per clip is needed")
    idx = [i for i, flag in enumerate(fully_annotated) if flag]
    if not idx:
        return 0.0, None
    if annotation is None or annotation.shape != gate.shape:
        raise ValidationError("localization_loss: annotation missing or mis-shaped for a flagged sample")
    grad = np.empty(gate.shape) if out is None else out
    grad.fill(0.0)
    total = 0.0
    for i in idx:
        a, z = spans[i]
        d = gate[a:z] - annotation[a:z]
        total += float(np.abs(d).mean())
        grad[a:z] = np.sign(d) / (len(idx) * d.size)
    return total / len(idx), grad


# ---------------------------------------------------------------------------
# Combined objective


# the objective's (rows, C) arrays in a Workspace, in the order total_loss unpacks them
_OBJECTIVE_ARRAYS = (
    "margins", "gate", "gate_grad", "scratch", "annotation", "ds_reg", "loc_grad", "ds_pool", "dg_pool", "d_s", "d_g"
)


class Workspace:
    """Every array the size of a batch of up to ``clips`` clips of up to
    ``clip_rows`` snippets, or of the parameters, that :func:`total_loss`
    writes, allocated once so that the steps reusing it allocate none: the
    forward buffers of the batch, the objective's (rows, C) arrays, the
    backward scratch (whose (rows, H) array is the forward buffers' scratch),
    the gradient total, and room for the batch's boolean dropout mask."""

    def __init__(self, params: NetworkParams, clips: int, clip_rows: int):
        self.clips, self.clip_rows = clips, clip_rows
        self.dims = _dims(params)
        rows = clips * clip_rows
        self.forward = network.ForwardBuffers.empty(params, rows, clips)
        self.backward = network.BackwardBuffers.empty(params, rows, clip_rows, d_pre=self.forward.scratch)
        self.grads = params.with_flat(np.empty_like(params.flat))
        self.keep = np.empty((rows, params.hidden_dim), dtype=bool)
        self.objective = np.empty((len(_OBJECTIVE_ARRAYS), rows, params.num_classes))

    def fits(self, params: NetworkParams, clips: int, clip_rows: int) -> bool:
        """Whether this workspace can serve a batch of ``clips`` clips of at most ``clip_rows`` snippets."""
        return self.dims == _dims(params) and clips <= self.clips and clip_rows <= self.clip_rows


def _dims(params: NetworkParams) -> tuple[int, int, int]:
    return params.feature_dim, params.hidden_dim, params.num_classes


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
    dropout_masks: np.ndarray | list[np.ndarray] | None = None,
    drop_rate: float = 0.7,
    workspace: Workspace | None = None,
) -> tuple[LossBreakdown, NetworkParams]:
    """Weighted sum of the three losses with a full backward pass.

    Runs the network forward on the whole batch, its clips laid back to back,
    then the gate, pooling, probabilities, classification + threshold
    regularization (+ localization over the fully annotated clips) and the
    weighted upstream gradients, and backpropagates those through the
    network into one parameter gradient.  ``dropout_masks`` is the batch's
    (N, H) mask in the same layout, or one mask per clip.

    Every array the size of the batch or of the parameters goes to
    ``workspace`` (allocated for this batch when not given), the returned
    gradient included: it is valid until the next call with the same
    workspace.
    """
    if train_localization not in TRAIN_LOCALIZATION:
        raise ValidationError(f"unknown train-time localization rule {train_localization!r}")
    if train_localization == "none" and config.aggregator == "gated":
        raise ValidationError("train_localization='none' requires the topk_eighth aggregator")
    if not clips:
        raise ValidationError("total_loss: empty batch")
    num_classes = params.num_classes
    mask = dropout_masks
    if mask is not None and not isinstance(mask, np.ndarray):
        mask = np.concatenate(mask)

    lengths = [clip.num_snippets for clip in clips]
    n = sum(lengths)
    spans = network.clip_layout(lengths, n)[1]
    ws = workspace if workspace is not None else Workspace(params, len(clips), max(lengths))
    if not ws.fits(params, len(clips), max(lengths)):
        raise ValidationError(
            f"total_loss: the workspace holds {ws.clips} clips of {ws.clip_rows} snippets at (D, H, C) {ws.dims}; "
            f"the batch has {len(clips)} clips of up to {max(lengths)} at {_dims(params)}"
        )
    if any(clip.feature_dim != params.feature_dim for clip in clips):
        raise ValidationError(f"total_loss: every clip needs {params.feature_dim}-dim features")
    features = np.concatenate([clip.features for clip in clips], out=ws.forward.x[:n])
    smap, cache = network.forward(params, features, mask, drop_rate, out=ws.forward, lengths=lengths)
    margins, gate, gate_grad, scratch, annotation, ds_reg, loc_grad, ds_pool, dg_pool, d_s, d_g = ws.objective[:, :n]

    if train_localization != "none":
        x = network.gate_margins(smap, train_localization, lengths, out=margins)
        gate = network.gate_values(x, gating, out=gate, scratch=scratch)
        gate_grad = network.gate_input_grad(x, gate, gating, out=gate_grad)
    else:
        gate = gate_grad = None
    probs = pool_and_classify(smap, gate, config.aggregator, lengths)
    labels = np.array([label_vector(clip.labels, num_classes) for clip in clips])

    w_b = config.resolved_background_weight(num_classes)
    clas_value, (d_shat, d_bhat) = classification_loss(probs, labels, w_b)
    reg_value, (ds_reg, db_reg) = threshold_regularization_loss(smap, labels, config.reg_form, lengths, out=ds_reg)

    flags = [clip.fully_annotated for clip in clips]
    loc_active = train_localization != "none" and config.loc_weight > 0 and any(flags)
    loc_value = 0.0
    if loc_active:
        annotation.fill(0.0)
        for clip, flag, (a, z) in zip(clips, flags, spans):
            if flag:
                annotation[a:z] = rasterize(clip.segments, clip.num_snippets, num_classes, clip.snippet_duration)
        loc_value, loc_grad = localization_loss(gate, annotation, flags, lengths, out=loc_grad)

    # Upstream gradients of the whole batch.  They start at +0.0 and only
    # add, so they never hold -0.0 and an added zero changes no byte: the
    # rows of unflagged clips in loc_grad, and d_x wherever d_g is zero.
    # Each weighted term is scaled in its own buffer first (w * x == x * w).
    lam, eta = config.clas_weight, config.loc_weight
    d_s.fill(0.0)
    d_b = np.zeros(n)
    d_g.fill(0.0)
    if lam > 0:
        ds_pool, dg_pool, db_pool = pool_backward(
            smap, gate, config.aggregator, probs, d_shat, d_bhat, lengths, out=(ds_pool, dg_pool)
        )
        d_s += np.multiply(ds_pool, lam, out=ds_pool)
        d_b += lam * db_pool
        d_g += np.multiply(dg_pool, lam, out=dg_pool)
    if lam < 1:
        d_s += np.multiply(ds_reg, 1.0 - lam, out=ds_reg)
        d_b += (1.0 - lam) * db_reg
    if loc_active:
        d_g += np.multiply(loc_grad, eta, out=loc_grad)
    if gate is not None:
        d_x = np.multiply(d_g, gate_grad, out=d_g)
        d_s += d_x
        if train_localization == "predicted":
            d_b -= d_x.sum(axis=1)

    total = network.backward(cache, d_s, d_b, out=ws.grads, scratch=ws.backward)

    breakdown = LossBreakdown(
        clas=clas_value,
        reg=reg_value,
        loc=loc_value,
        total=lam * clas_value + (1.0 - lam) * reg_value + eta * loc_value,
    )
    return breakdown, total
