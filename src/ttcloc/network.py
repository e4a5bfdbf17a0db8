"""Snippet scoring network with exact hand-derived gradients.

Architecture per snippet sequence (T, D):

    z1 = x @ w1 + b1                  (T, H)
    h1 = relu(z1)
    u  = h1 + conv3(h1)               residual temporal conv, zero padded
    h2 = relu(u)
    h3 = dropout(h2)                  inverted scaling, train time only
    out = h3 @ w2 + b2                (T, C + 1)

The first C output columns are per-class action scores; the last column is
a learned per-snippet threshold that doubles as a background score.  All
math is float64; relu'(0) is taken as 0.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

GATING_KINDS = ("sigmoid", "softsign", "binarize")
THRESHOLD_RULES = ("predicted", "manual")  # what a score is compared against


PARAM_NAMES = ("w1", "b1", "conv_kernel", "conv_bias", "w2", "b2")


def _param_shapes(d: int, h: int, c: int) -> tuple[tuple[int, ...], ...]:
    """Shapes in ``PARAM_NAMES`` order, which is also the order in ``flat``."""
    return (d, h), (h,), (3, h, h), (h,), (h, c + 1), (c + 1,)


class NetworkParams:
    """The six parameter arrays as reshaped views into one float64 vector ``flat``.

    The arrays lie back to back in ``PARAM_NAMES`` order, row-major, so an
    in-place write to either shows in the other, and whole-vector code (Adam,
    gradient sums, finite differences) needs no knowledge of the layout.  The
    constructor copies the arrays it is given and rejects inconsistent shapes.
    """

    def __init__(self, w1, b1, conv_kernel, conv_bias, w2, b2):
        arrays = (w1, b1, conv_kernel, conv_bias, w2, b2)
        if np.ndim(w1) != 2 or np.ndim(w2) != 2:
            raise ValidationError(f"parameter shapes: w1 {np.shape(w1)} and w2 {np.shape(w2)} must be matrices")
        (d, h), c = np.shape(w1), np.shape(w2)[1] - 1
        for name, arr, shape in zip(PARAM_NAMES, arrays, _param_shapes(d, h, c)):
            if np.shape(arr) != shape:
                raise ValidationError(f"parameter {name} has shape {np.shape(arr)}, expected {shape}")
        self._bind(np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays]), d, h, c)

    def _bind(self, flat: np.ndarray, d: int, h: int, c: int) -> None:
        self.flat = flat
        offset = 0
        for name, shape in zip(PARAM_NAMES, _param_shapes(d, h, c)):
            size = math.prod(shape)
            setattr(self, name, flat[offset : offset + size].reshape(shape))
            offset += size

    def with_flat(self, flat: np.ndarray) -> "NetworkParams":
        """Parameters of this layout whose arrays are views into ``flat`` (no copy)."""
        if flat.shape != self.flat.shape or flat.dtype != np.float64:
            raise ValidationError(f"with_flat: need float64 of shape {self.flat.shape}, got {flat.dtype} {flat.shape}")
        params = object.__new__(NetworkParams)
        params._bind(flat, self.feature_dim, self.hidden_dim, self.num_classes)
        return params

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def num_classes(self) -> int:
        return self.w2.shape[1] - 1

    def copy(self) -> "NetworkParams":
        return self.with_flat(self.flat.copy())


@dataclass
class ScoreMap:
    """Per-snippet scores and thresholds; the rows may hold several clips
    back to back, laid out by a sequence of clip lengths (see :func:`clip_spans`)."""

    scores: np.ndarray  # (T, C)
    thresholds: np.ndarray  # (T,)


def clip_spans(lengths) -> list[tuple[int, int]]:
    """Row ranges ``[start, stop)`` of clips of the given lengths laid back to back."""
    spans, start = [], 0
    for n in lengths:
        spans.append((start, start + n))
        start += n
    return spans


@dataclass
class ForwardCache:
    features: np.ndarray
    z1: np.ndarray
    h1_padded: np.ndarray  # (T + 2, H): relu(z1) between two zero rows
    pre_act: np.ndarray  # h1 + conv3(h1), before the second relu
    h2: np.ndarray
    h3: np.ndarray
    dropout_mask: np.ndarray | None
    dropout_scale: float
    params: NetworkParams


def init_params(rng: np.random.Generator, feature_dim: int, hidden_dim: int, num_classes: int) -> NetworkParams:
    """Glorot-uniform weights, zero biases; deterministic given the rng state."""
    if min(feature_dim, hidden_dim, num_classes) < 1:
        raise ValidationError("init_params: all dimensions must be >= 1")

    def glorot(shape, fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=shape)

    d, h, c = feature_dim, hidden_dim, num_classes
    return NetworkParams(
        w1=glorot((d, h), d, h),
        b1=np.zeros(h),
        conv_kernel=glorot((3, h, h), 3 * h, 3 * h),
        conv_bias=np.zeros(h),
        w2=glorot((h, c + 1), h, c + 1),
        b2=np.zeros(c + 1),
    )


def _conv3(padded: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Temporal width-3 convolution of the (T + 2, H) zero-padded input, shape (T, H)."""
    t = padded.shape[0] - 2
    out = padded[0:t] @ kernel[0]
    out += padded[1 : t + 1] @ kernel[1]
    out += padded[2 : t + 2] @ kernel[2]
    out += bias
    return out


def forward(
    params: NetworkParams,
    features: np.ndarray,
    dropout_mask: np.ndarray | None = None,
    drop_rate: float = 0.7,
) -> tuple[ScoreMap, ForwardCache]:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.feature_dim:
        raise ValidationError(f"forward: features must be (T, {params.feature_dim}), got {x.shape}")
    t = x.shape[0]
    z1 = x @ params.w1
    z1 += params.b1
    padded = np.zeros((t + 2, params.hidden_dim))
    h1 = np.maximum(z1, 0.0, out=padded[1 : t + 1])
    pre_act = _conv3(padded, params.conv_kernel, params.conv_bias)
    pre_act += h1
    h2 = np.maximum(pre_act, 0.0)
    if dropout_mask is not None:
        if dropout_mask.shape != h2.shape:
            raise ValidationError(f"forward: dropout mask shape {dropout_mask.shape} != {h2.shape}")
        scale = 1.0 / (1.0 - drop_rate)
        h3 = h2 * dropout_mask
        h3 *= scale
    else:
        scale = 1.0
        h3 = h2
    out = h3 @ params.w2
    out += params.b2
    c = params.num_classes
    smap = ScoreMap(scores=out[:, :c], thresholds=out[:, c])
    cache = ForwardCache(x, z1, padded, pre_act, h2, h3, dropout_mask, scale, params)
    return smap, cache


def backward(
    cache: ForwardCache,
    d_scores: np.ndarray,
    d_thresholds: np.ndarray,
    out: NetworkParams | None = None,
) -> NetworkParams:
    """Exact chain rule back to every parameter array, written into ``out``
    (overwritten, not added to; allocated when not given) and returned.
    The cache is only read, so one forward pass can be differentiated twice."""
    params = cache.params
    t = cache.features.shape[0]
    c = params.num_classes
    if d_scores.shape != (t, c) or d_thresholds.shape != (t,):
        raise ValidationError("backward: upstream gradient shapes do not match the forward pass")
    grads = out if out is not None else params.with_flat(np.empty_like(params.flat))
    d_out = np.concatenate([d_scores, d_thresholds[:, None]], axis=1)

    np.matmul(cache.h3.T, d_out, out=grads.w2)
    np.sum(d_out, axis=0, out=grads.b2)
    d_pre = d_out @ params.w2.T  # d h3, then d h2, then d pre_act, in place
    if cache.dropout_mask is not None:
        d_pre *= cache.dropout_mask
        d_pre *= cache.dropout_scale
    d_pre *= cache.pre_act > 0

    # conv backward over the zero-padded sequence
    padded = cache.h1_padded
    for k in range(3):
        np.matmul(padded[k : k + t].T, d_pre, out=grads.conv_kernel[k])
    np.sum(d_pre, axis=0, out=grads.conv_bias)
    d_padded = np.zeros_like(padded)
    for k in range(3):
        d_padded[k : k + t] += d_pre @ params.conv_kernel[k].T
    d_z1 = d_padded[1 : t + 1]
    d_z1 += d_pre  # residual path + conv path: d h1
    d_z1 *= cache.z1 > 0

    np.matmul(cache.features.T, d_z1, out=grads.w1)
    np.sum(d_z1, axis=0, out=grads.b1)
    return grads


# ---------------------------------------------------------------------------
# Gating


def sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` for x >= 0 and ``exp(x) / (1 + exp(x))`` below,
    so exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _softsign01(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x / (1.0 + np.abs(x)) + 1.0)


def gate_values(x: np.ndarray, kind: str) -> np.ndarray:
    """Gate nonlinearity applied to score-minus-threshold margins."""
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "softsign":
        return _softsign01(x)
    if kind == "binarize":
        return (x > 0).astype(np.float64)
    raise ValidationError(f"unknown gating kind {kind!r}; expected one of {GATING_KINDS}")


def gate_input_grad(x: np.ndarray, values: np.ndarray, kind: str) -> np.ndarray:
    """d gate / d input, elementwise.

    Binarization uses the identity as a surrogate gradient, so training can
    pass information through the hard step.
    """
    if kind == "sigmoid":
        return values * (1.0 - values)
    if kind == "softsign":
        return 0.5 / np.square(1.0 + np.abs(x))
    if kind == "binarize":
        return np.ones_like(x)
    raise ValidationError(f"unknown gating kind {kind!r}; expected one of {GATING_KINDS}")


def manual_thresholds(scores: np.ndarray) -> np.ndarray:
    """Per-class midpoint of max and min snippet score; held constant."""
    return 0.5 * (scores.max(axis=0) + scores.min(axis=0))


def gate_margins(score_map: ScoreMap, rule: str, lengths=None) -> np.ndarray:
    """Scores minus the thresholds that ``rule`` names, shape (T, C).

    ``predicted``: each snippet's learned threshold.  ``manual``: the
    per-class :func:`manual_thresholds` of each clip (``lengths``; one clip
    when not given), which get no gradient.  A snippet belongs to a class's
    action exactly where its margin is > 0; training feeds the margins to
    the gate, inference cuts segments at 0.
    """
    s = score_map.scores
    if rule == "predicted":
        return s - score_map.thresholds[:, None]
    if rule == "manual":
        if lengths is None:
            return s - manual_thresholds(s)[None, :]
        cuts = [manual_thresholds(s[a:b]) for a, b in clip_spans(lengths)]
        return s - np.repeat(cuts, lengths, axis=0)
    raise ValidationError(f"threshold rule must be one of {THRESHOLD_RULES}, got {rule!r}")


# ---------------------------------------------------------------------------
# Checkpoint format: magic, version, then named little-endian float64 arrays.
# Layout (all integers little-endian):
#   bytes 0..3   magic b"TTCK"
#   uint32       format version (currently 1)
#   uint32       number of arrays
#   per array:   uint16 name length, name (utf-8), uint8 ndim,
#                ndim * uint32 dims, then the float64 values row-major.

_CKPT_MAGIC = b"TTCK"
_CKPT_VERSION = 1


def save_params(params: NetworkParams, path: str) -> None:
    arrays = params.as_dict()
    chunks = [_CKPT_MAGIC, struct.pack("<II", _CKPT_VERSION, len(arrays))]
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(b"".join(chunks))
    os.replace(tmp, path)


def load_params(path: str) -> NetworkParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CKPT_MAGIC:
        raise ValidationError(f"{path}: not a parameter checkpoint (bad magic)")
    arrays: dict[str, np.ndarray] = {}
    try:
        version, count = struct.unpack_from("<II", blob, 4)
        if version != _CKPT_VERSION:
            raise ValidationError(f"{path}: unsupported checkpoint version {version}")
        offset = 12
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            if name in arrays:
                raise ValidationError(f"{path}: array {name!r} appears twice")
            (ndim,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            size = math.prod(shape)
            if offset + 8 * size > len(blob):
                raise ValidationError(f"{path}: truncated checkpoint: array {name!r} {shape} runs past the end")
            arrays[name] = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).reshape(shape)
            offset += 8 * size
    except (struct.error, ValueError) as exc:  # ValueError: a bad name encoding or more dimensions than NumPy allows
        raise ValidationError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
    if offset != len(blob):
        raise ValidationError(f"{path}: {len(blob) - offset} trailing bytes after the last array")
    if set(arrays) != set(PARAM_NAMES):
        raise ValidationError(f"{path}: checkpoint holds arrays {sorted(arrays)}, expected {sorted(PARAM_NAMES)}")
    try:
        return NetworkParams(**arrays)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
