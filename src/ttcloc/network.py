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
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, replacing

GATING_KINDS = ("sigmoid", "softsign", "binarize")
SURROGATE_GATES = ("binarize",)  # gates whose input gradient is a straight-through surrogate, not the derivative
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


@dataclass
class ForwardBuffers:
    """The arrays a forward pass writes, for clips of up to ``rows`` snippets.

    A clip of T snippets uses rows ``0 .. T`` of each array (``T + 2`` of
    ``h1_padded``), so buffers sized for the longest clip serve every
    shorter one.  Each pass overwrites what the last one wrote.
    """

    x: np.ndarray  # (rows, D): the features in float64
    z1: np.ndarray  # (rows, H)
    h1_padded: np.ndarray  # (rows + 2 * clips, H)
    pre_act: np.ndarray  # (rows, H)
    h2: np.ndarray  # (rows, H)
    h3: np.ndarray  # (rows, H); written only under dropout
    out: np.ndarray  # (rows, C + 1): the scores, then the threshold

    @classmethod
    def empty(cls, params: NetworkParams, rows: int, clips: int = 1) -> "ForwardBuffers":
        """Uninitialized buffers of ``rows`` rows, enough for ``clips`` clips laid out by :meth:`clip`."""
        d, h, c = params.feature_dim, params.hidden_dim, params.num_classes
        shapes = ((rows, d), (rows, h), (rows + 2 * clips, h), (rows, h), (rows, h), (rows, h), (rows, c + 1))
        return cls(*(np.empty(shape) for shape in shapes))

    def clip(self, start: int, stop: int, index: int) -> "ForwardBuffers":
        """Views for the ``index``-th clip of a batch laid out by :func:`clip_spans`,
        rows ``start:stop``; its padded rows lie ``2 * index`` rows further on."""
        pad = start + 2 * index
        rows = (a[start:stop] for a in (self.x, self.z1, self.pre_act, self.h2, self.h3, self.out))
        x, z1, pre_act, h2, h3, out = rows
        return ForwardBuffers(x, z1, self.h1_padded[pad : pad + stop - start + 2], pre_act, h2, h3, out)


@dataclass
class BackwardBuffers:
    """Scratch of a backward pass over clips of up to ``rows`` snippets.

    ``grad`` has the size of the largest gradient array, each conv tap
    counted alone: a pass that adds its gradient to a total computes one
    array at a time into it.
    """

    d_out: np.ndarray  # (rows, C + 1)
    d_pre: np.ndarray  # (rows, H)
    d_padded: np.ndarray  # (rows + 2, H)
    tap: np.ndarray  # (rows, H): one conv tap's product
    grad: np.ndarray  # flat

    @classmethod
    def empty(cls, params: NetworkParams, rows: int) -> "BackwardBuffers":
        d, h, c = params.feature_dim, params.hidden_dim, params.num_classes
        h_shapes = ((rows, h), (rows + 2, h), (rows, h))
        return cls(np.empty((rows, c + 1)), *(np.empty(shape) for shape in h_shapes), np.empty(max(d, h, c + 1) * h))


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


def _conv3(padded: np.ndarray, kernel: np.ndarray, bias: np.ndarray, out=None, tap=None) -> np.ndarray:
    """Temporal width-3 convolution of the (T + 2, H) zero-padded input into
    ``out`` (T, H); ``tap`` (T, H) holds one tap's product at a time.  Either
    is allocated when not given."""
    t = padded.shape[0] - 2
    out = np.matmul(padded[0:t], kernel[0], out=out)
    out += np.matmul(padded[1 : t + 1], kernel[1], out=tap)
    out += np.matmul(padded[2 : t + 2], kernel[2], out=tap)
    out += bias
    return out


def forward(
    params: NetworkParams,
    features: np.ndarray,
    dropout_mask: np.ndarray | None = None,
    drop_rate: float = 0.7,
    out: ForwardBuffers | None = None,
) -> tuple[ScoreMap, ForwardCache]:
    """Scores and the cache :func:`backward` reads, every array written into
    ``out`` (allocated when not given): the score map and the cache are views
    of it, valid until the next pass into the same buffers."""
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[1] != params.feature_dim:
        raise ValidationError(f"forward: features must be (T, {params.feature_dim}), got {features.shape}")
    t = features.shape[0]
    buf = out if out is not None else ForwardBuffers.empty(params, t)
    if buf.x.shape[0] < t:
        raise ValidationError(f"forward: buffers hold {buf.x.shape[0]} rows, the clip has {t}")
    x = buf.x[:t]
    x[...] = features  # float32 features convert to float64 exactly
    z1 = np.matmul(x, params.w1, out=buf.z1[:t])
    z1 += params.b1
    padded = buf.h1_padded[: t + 2]
    padded[0] = padded[t + 1] = 0.0
    h1 = np.maximum(z1, 0.0, out=padded[1 : t + 1])
    h2 = buf.h2[:t]  # holds the conv taps until h2 is written
    pre_act = _conv3(padded, params.conv_kernel, params.conv_bias, buf.pre_act[:t], tap=h2)
    pre_act += h1
    np.maximum(pre_act, 0.0, out=h2)
    if dropout_mask is not None:
        if dropout_mask.shape != h2.shape:
            raise ValidationError(f"forward: dropout mask shape {dropout_mask.shape} != {h2.shape}")
        scale = 1.0 / (1.0 - drop_rate)
        h3 = np.multiply(h2, dropout_mask, out=buf.h3[:t])
        h3 *= scale
    else:
        scale = 1.0
        h3 = h2
    rows = np.matmul(h3, params.w2, out=buf.out[:t])
    rows += params.b2
    c = params.num_classes
    smap = ScoreMap(scores=rows[:, :c], thresholds=rows[:, c])
    cache = ForwardCache(x, z1, padded, pre_act, h2, h3, dropout_mask, scale, params)
    return smap, cache


def backward(
    cache: ForwardCache,
    d_scores: np.ndarray,
    d_thresholds: np.ndarray,
    out: NetworkParams | None = None,
    add: bool = False,
    scratch: BackwardBuffers | None = None,
) -> NetworkParams:
    """Exact chain rule back to every parameter array, written into ``out``
    (allocated when not given) and returned.  Each array overwrites its
    slot, or with ``add`` is computed into ``scratch.grad`` and added to it,
    so a sum over clips needs no second gradient vector.  Intermediates go
    to ``scratch`` (allocated when not given).  The cache is only read, so
    one forward pass can be differentiated twice."""
    params = cache.params
    t = cache.features.shape[0]
    c = params.num_classes
    if d_scores.shape != (t, c) or d_thresholds.shape != (t,):
        raise ValidationError("backward: upstream gradient shapes do not match the forward pass")
    grads = out if out is not None else params.with_flat(np.empty_like(params.flat))
    buf = scratch if scratch is not None else BackwardBuffers.empty(params, t)

    def put(dest, fn, *args, **kwargs):
        target = buf.grad[: dest.size].reshape(dest.shape) if add else dest
        fn(*args, **kwargs, out=target)
        if add:
            dest += target

    d_out = buf.d_out[:t]
    d_out[:, :c] = d_scores
    d_out[:, c] = d_thresholds
    put(grads.w2, np.matmul, cache.h3.T, d_out)
    put(grads.b2, np.sum, d_out, axis=0)
    d_pre = np.matmul(d_out, params.w2.T, out=buf.d_pre[:t])  # d h3, then d h2, then d pre_act, in place
    if cache.dropout_mask is not None:
        d_pre *= cache.dropout_mask
        d_pre *= cache.dropout_scale
    d_pre *= cache.pre_act > 0

    # conv backward over the zero-padded sequence
    padded = cache.h1_padded
    for k in range(3):
        put(grads.conv_kernel[k], np.matmul, padded[k : k + t].T, d_pre)
    put(grads.conv_bias, np.sum, d_pre, axis=0)
    d_padded = buf.d_padded[: t + 2]
    d_padded.fill(0.0)
    for k in range(3):
        d_padded[k : k + t] += np.matmul(d_pre, params.conv_kernel[k].T, out=buf.tap[:t])
    d_z1 = d_padded[1 : t + 1]
    d_z1 += d_pre  # residual path + conv path: d h1
    d_z1 *= cache.z1 > 0

    put(grads.w1, np.matmul, cache.features.T, d_z1)
    put(grads.b1, np.sum, d_z1, axis=0)
    return grads


# ---------------------------------------------------------------------------
# Gating


def sigmoid(x: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """``1 / (1 + exp(-x))`` for x >= 0 and ``exp(x) / (1 + exp(x))`` below,
    so exp never overflows.  Written into ``out``, with ``scratch`` shaped
    like ``x`` (either allocated when not given)."""
    e = np.abs(x, out=scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.positive(e, out=out)  # a copy of e
    np.copyto(out, 1.0, where=x >= 0)
    e += 1.0
    out /= e
    return out


def gate_values(x: np.ndarray, kind: str, out=None, scratch=None) -> np.ndarray:
    """Gate nonlinearity applied to score-minus-threshold margins, written
    into ``out`` (allocated when not given); ``scratch`` as for :func:`sigmoid`."""
    if kind == "sigmoid":
        return sigmoid(x, out, scratch)
    if kind == "softsign":  # 0.5 * (x / (1 + |x|) + 1)
        out = np.abs(x, out=out)
        out += 1.0
        np.divide(x, out, out=out)
        out += 1.0
        out *= 0.5
        return out
    if kind == "binarize":
        return np.greater(x, 0, out=out if out is not None else np.empty_like(x))
    raise ValidationError(f"unknown gating kind {kind!r}; expected one of {GATING_KINDS}")


def gate_input_grad(x: np.ndarray, values: np.ndarray, kind: str, out=None) -> np.ndarray:
    """d gate / d input, elementwise, written into ``out`` (allocated when not given).

    Binarization uses the identity as a surrogate gradient, so training can
    pass information through the hard step.
    """
    if kind == "sigmoid":  # values * (1 - values)
        out = np.subtract(1.0, values, out=out)
        out *= values
        return out
    if kind == "softsign":  # 0.5 / (1 + |x|)^2
        out = np.abs(x, out=out)
        out += 1.0
        np.square(out, out=out)
        return np.divide(0.5, out, out=out)
    if kind == "binarize":
        out = np.empty_like(x) if out is None else out
        out.fill(1.0)
        return out
    raise ValidationError(f"unknown gating kind {kind!r}; expected one of {GATING_KINDS}")


def manual_thresholds(scores: np.ndarray) -> np.ndarray:
    """Per-class midpoint of max and min snippet score; held constant."""
    return 0.5 * (scores.max(axis=0) + scores.min(axis=0))


def gate_margins(score_map: ScoreMap, rule: str, lengths=None, out=None) -> np.ndarray:
    """Scores minus the thresholds that ``rule`` names, shape (T, C), written
    into ``out`` (allocated when not given).

    ``predicted``: each snippet's learned threshold.  ``manual``: the
    per-class :func:`manual_thresholds` of each clip (``lengths``; one clip
    when not given), which get no gradient.  A snippet belongs to a class's
    action exactly where its margin is > 0; training feeds the margins to
    the gate, inference cuts segments at 0.
    """
    s = score_map.scores
    if rule == "predicted":
        return np.subtract(s, score_map.thresholds[:, None], out=out)
    if rule == "manual":
        out = np.empty(s.shape) if out is None else out
        for a, z in clip_spans((s.shape[0],) if lengths is None else lengths):
            np.subtract(s[a:z], manual_thresholds(s[a:z]), out=out[a:z])
        return out
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
    with replacing(path, "wb") as fh:
        fh.write(b"".join(chunks))


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
