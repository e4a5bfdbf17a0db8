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

A pass may run a batch: the (N, D) rows of B clips laid back to back by
their lengths, every (N, .) array in the same layout.  Each clip is its own
sequence: the conv pads it with its own zero rows.  Every GEMM runs once per
clip on that clip's rows, with the operands a clip alone would give it, and
so does every sum over a clip (a bias gradient's column sum) and the sum of
the clips' gradients, which adds them in clip order.  Everything elementwise
runs once on the whole batch.  A batch therefore gives the bytes of its
clips run one at a time.  With OpenBLAS 0.3.31 on one thread, each faster
alternative was measured to change bits: one GEMM over the stacked rows of
several clips (NT products at hidden >= 32, NN products with three output
columns, and every 1-row clip, which takes the gemv path), the three conv
taps as one GEMM three times as wide, a pre-transposed operand, and
``np.add.reduceat`` or an axis-0 reduce over stacked clip gradients.
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


@dataclass
class ScoreMap:
    """Per-snippet scores and thresholds; the rows may hold several clips
    back to back, laid out by a sequence of clip lengths (see :func:`clip_layout`)."""

    scores: np.ndarray  # (T, C)
    thresholds: np.ndarray  # (T,)


def clip_layout(lengths, rows: int) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """The lengths of clips laid back to back over ``rows`` rows (``None``:
    one clip of all of them) and each clip's row range ``[start, stop)``.
    Every clip needs a row, and together they must cover the rows exactly."""
    lengths = (rows,) if lengths is None else tuple(lengths)
    if sum(lengths) != rows or min(lengths, default=0) < 1:
        raise ValidationError(f"clip lengths {lengths} do not lay out {rows} rows")
    spans, start = [], 0
    for n in lengths:
        spans.append((start, start + n))
        start += n
    return lengths, spans


def _padded_rows(lengths: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Where the rows of a batch go in its padded layout, which puts each clip
    between two zero rows, clip after clip (so clip ``i`` of rows ``a:z``
    takes rows ``a + 2 * i .. z + 2 * i + 2``), and where the zero rows go."""
    t = np.asarray(lengths)
    shift = 2 * np.arange(t.size)  # the zero rows before each clip's own
    stops = np.cumsum(t) + shift
    return np.arange(t.sum()) + np.repeat(shift + 1, t), np.concatenate([stops - t, stops + 1])


@dataclass
class ForwardCache:
    """What :func:`backward` reads of a forward pass over a batch of N rows in the clips ``lengths``."""

    features: np.ndarray  # (N, D)
    z1: np.ndarray
    h1_padded: np.ndarray  # (N + 2B, H): each clip's relu(z1) between two zero rows, clip after clip
    pre_act: np.ndarray  # h1 + conv3(h1), before the second relu
    h3: np.ndarray  # relu(pre_act), times the dropout mask and scale under dropout
    dropout_mask: np.ndarray | None
    dropout_scale: float
    params: NetworkParams
    lengths: tuple[int, ...]


@dataclass
class ForwardBuffers:
    """The arrays a forward pass writes, for batches of up to ``rows``
    snippets in up to ``clips`` clips.

    A batch of N rows in B clips uses rows ``0 .. N`` of each array
    (``N + 2B`` of ``h1_padded``), so buffers sized for the largest batch
    serve every smaller one.  Each pass overwrites what the last one wrote.
    """

    x: np.ndarray  # (rows, D): the features in float64
    z1: np.ndarray  # (rows, H)
    h1_padded: np.ndarray  # (rows + 2 * clips, H)
    pre_act: np.ndarray  # (rows, H)
    h3: np.ndarray  # (rows, H): relu(z1) until the second relu overwrites it
    scratch: np.ndarray  # (rows, H): one conv tap's products; no part of the cache
    out: np.ndarray  # (rows, C + 1): the scores, then the threshold

    @classmethod
    def empty(cls, params: NetworkParams, rows: int, clips: int = 1) -> "ForwardBuffers":
        """Uninitialized buffers of ``rows`` rows, enough for ``clips`` clips."""
        d, h, c = params.feature_dim, params.hidden_dim, params.num_classes
        shapes = ((rows, d), (rows, h), (rows + 2 * clips, h), (rows, h), (rows, h), (rows, h), (rows, c + 1))
        return cls(*(np.empty(shape) for shape in shapes))


@dataclass
class BackwardBuffers:
    """Scratch of a backward pass over batches of up to ``rows`` snippets in
    clips of up to ``clip_rows``.

    ``grad`` has the size of the largest gradient array, each conv tap
    counted alone: every clip after the first computes one array at a time
    into it and adds it to the total.
    """

    d_out: np.ndarray  # (rows, C + 1)
    d_pre: np.ndarray  # (rows, H): d h3, then d h2, d pre_act, d h1 and d z1, in place
    d_padded: np.ndarray  # (clip_rows + 2, H)
    tap: np.ndarray  # (clip_rows, H): one conv tap's product
    grad: np.ndarray  # flat

    @classmethod
    def empty(cls, params: NetworkParams, rows: int, clip_rows: int, d_pre: np.ndarray | None = None) -> "BackwardBuffers":
        """Uninitialized scratch; ``d_pre`` may be a (rows, H) array to share,
        such as the ``scratch`` of the forward buffers that made the cache."""
        d, h, c = params.feature_dim, params.hidden_dim, params.num_classes
        d_pre = np.empty((rows, h)) if d_pre is None else d_pre
        return cls(np.empty((rows, c + 1)), d_pre, np.empty((clip_rows + 2, h)), np.empty((clip_rows, h)), np.empty(max(d, h, c + 1) * h))


def init_params(rng: np.random.Generator, feature_dim: int, hidden_dim: int, num_classes: int) -> NetworkParams:
    """Glorot-uniform weights, zero biases; deterministic given the rng state."""
    if min(feature_dim, hidden_dim, num_classes) < 1:
        raise ValidationError("init_params: all dimensions must be >= 1")

    def glorot(shape, fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=shape)

    d, h, c = feature_dim, hidden_dim, num_classes
    # the whole vector before any draw, so that a size the system cannot grant is refused first
    params = object.__new__(NetworkParams)
    params._bind(np.zeros(sum(map(math.prod, _param_shapes(d, h, c)))), d, h, c)
    params.w1[...] = glorot((d, h), d, h)
    params.conv_kernel[...] = glorot((3, h, h), 3 * h, 3 * h)
    params.w2[...] = glorot((h, c + 1), h, c + 1)
    return params


def forward(
    params: NetworkParams,
    features: np.ndarray,
    dropout_mask: np.ndarray | None = None,
    drop_rate: float = 0.7,
    out: ForwardBuffers | None = None,
    lengths=None,
) -> tuple[ScoreMap, ForwardCache]:
    """Scores of the (N, D) ``features`` of clips laid back to back by
    ``lengths`` (``None``: one clip), and the cache :func:`backward` reads.

    ``dropout_mask`` is (N, H) or ``None``.  Every array is written into
    ``out`` (allocated when not given): the score map and the cache are views
    of it, valid until the next pass into the same buffers.  Each GEMM runs
    clip by clip on the clip's rows; everything elementwise runs once on the
    batch (see the module docstring).
    """
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[1] != params.feature_dim:
        raise ValidationError(f"forward: features must be (T, {params.feature_dim}), got {features.shape}")
    n = features.shape[0]
    lengths, spans = clip_layout(lengths, n)
    b = len(lengths)
    buf = out if out is not None else ForwardBuffers.empty(params, n, b)
    if buf.x.shape[0] < n or buf.h1_padded.shape[0] - buf.x.shape[0] < 2 * b:
        raise ValidationError(f"forward: buffers hold {buf.x.shape[0]} rows, the batch has {n} in {b} clips")
    if dropout_mask is not None and dropout_mask.shape != (n, params.hidden_dim):
        raise ValidationError(f"forward: dropout mask shape {dropout_mask.shape} != {(n, params.hidden_dim)}")
    x = buf.x[:n]
    x[...] = features  # float32 features convert to float64 exactly; a no-op when features are these rows
    z1 = buf.z1[:n]
    for a, z in spans:
        np.matmul(x[a:z], params.w1, out=z1[a:z])
    z1 += params.b1
    h = np.maximum(z1, 0.0, out=buf.h3[:n])  # h1
    padded = buf.h1_padded[: n + 2 * b]
    rows, pads = _padded_rows(lengths)
    padded[rows] = h
    padded[pads] = 0.0

    # conv3: per clip, each tap's GEMM on the clip's padded rows; the taps add up on the whole batch
    kernel, pre_act, tap = params.conv_kernel, buf.pre_act[:n], buf.scratch[:n]
    for i, (a, z) in enumerate(spans):
        p = a + 2 * i
        np.matmul(padded[p : p + z - a], kernel[0], out=pre_act[a:z])
        np.matmul(padded[p + 1 : p + 1 + z - a], kernel[1], out=tap[a:z])
    pre_act += tap
    for i, (a, z) in enumerate(spans):
        p = a + 2 * i
        np.matmul(padded[p + 2 : p + 2 + z - a], kernel[2], out=tap[a:z])
    pre_act += tap
    pre_act += params.conv_bias
    pre_act += h

    h3 = np.maximum(pre_act, 0.0, out=h)  # h2, then h3 in place
    scale = 1.0
    if dropout_mask is not None:
        scale = 1.0 / (1.0 - drop_rate)
        h3 *= dropout_mask
        h3 *= scale
    result = buf.out[:n]
    for a, z in spans:
        np.matmul(h3[a:z], params.w2, out=result[a:z])
    result += params.b2
    c = params.num_classes
    smap = ScoreMap(scores=result[:, :c], thresholds=result[:, c])
    cache = ForwardCache(x, z1, padded, pre_act, h3, dropout_mask, scale, params, lengths)
    return smap, cache


def backward(
    cache: ForwardCache,
    d_scores: np.ndarray,
    d_thresholds: np.ndarray,
    out: NetworkParams | None = None,
    scratch: BackwardBuffers | None = None,
) -> NetworkParams:
    """Exact chain rule back to every parameter array, summed over the
    cache's clips in clip order, written into ``out`` (allocated when not
    given) and returned.

    The first clip writes each array into ``out``; each later clip computes
    it into ``scratch.grad`` and adds it, so the sum needs no second gradient
    vector.  Intermediates go to ``scratch`` (allocated when not given).  The
    cache is only read, so one forward pass can be differentiated twice.
    """
    params, lengths = cache.params, cache.lengths
    n = cache.features.shape[0]
    c = params.num_classes
    if d_scores.shape != (n, c) or d_thresholds.shape != (n,):
        raise ValidationError("backward: upstream gradient shapes do not match the forward pass")
    grads = out if out is not None else params.with_flat(np.empty_like(params.flat))
    buf = scratch if scratch is not None else BackwardBuffers.empty(params, n, max(lengths))
    spans = clip_layout(lengths, n)[1]

    # each gradient array's spare view of buf.grad; a conv tap counts alone
    spare_w2, spare_b2, spare_tap, spare_bias, spare_w1, spare_b1 = (
        buf.grad[: a.size].reshape(a.shape) for a in (grads.w2, grads.b2, grads.conv_kernel[0], grads.conv_bias, grads.w1, grads.b1)
    )

    def put(i, dest, spare, fn, *args):
        """Clip ``i``'s part ``fn(*args)`` of the gradient array ``dest``: the
        first clip writes it there, a later one into ``spare``, then adds it."""
        if i == 0:
            fn(*args, dest)
        else:
            dest += fn(*args, spare)

    d_out = buf.d_out[:n]
    d_out[:, :c] = d_scores
    d_out[:, c] = d_thresholds
    d_pre = buf.d_pre[:n]  # d h3, then d h2, d pre_act, d h1 and d z1, in place
    for i, (a, z) in enumerate(spans):
        put(i, grads.w2, spare_w2, np.matmul, cache.h3[a:z].T, d_out[a:z])
        put(i, grads.b2, spare_b2, np.add.reduce, d_out[a:z], 0, None)  # a column sum, as np.sum does it
        np.matmul(d_out[a:z], params.w2.T, out=d_pre[a:z])
    if cache.dropout_mask is not None:
        d_pre *= cache.dropout_mask
        d_pre *= cache.dropout_scale
    d_pre *= cache.pre_act > 0

    # conv backward over each clip's zero-padded rows
    padded = cache.h1_padded
    for i, (a, z) in enumerate(spans):
        p, t, d_clip = a + 2 * i, z - a, d_pre[a:z]
        for k in range(3):
            put(i, grads.conv_kernel[k], spare_tap, np.matmul, padded[p + k : p + k + t].T, d_clip)
        put(i, grads.conv_bias, spare_bias, np.add.reduce, d_clip, 0, None)
        d_padded = buf.d_padded[: t + 2]
        d_padded.fill(0.0)
        for k in range(3):
            d_padded[k : k + t] += np.matmul(d_clip, params.conv_kernel[k].T, out=buf.tap[:t])
        np.add(d_padded[1 : t + 1], d_clip, out=d_clip)  # residual path + conv path: d h1, over the clip's spent d pre_act
    d_pre *= cache.z1 > 0  # d z1

    for i, (a, z) in enumerate(spans):
        put(i, grads.w1, spare_w1, np.matmul, cache.features[a:z].T, d_pre[a:z])
        put(i, grads.b1, spare_b1, np.add.reduce, d_pre[a:z], 0, None)
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
        for a, z in clip_layout(lengths, s.shape[0])[1]:
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
