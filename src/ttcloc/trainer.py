"""Adam training loop with weak, semi, and full supervision modes.

Three strategies over the same objective: ``joint`` mixes all videos in
every batch, ``fully_annotated_only`` restricts training to the flagged
subset, and ``pretrain_finetune`` spends half the budget on all videos
without the localization loss and the rest fine-tuning on the flagged
subset with the full objective.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import network
from .data import VideoSample, crop_clip
from .errors import NumericalError, ValidationError, check_array_bytes, check_choices, check_sizes
from .network import NetworkParams
from .objectives import TRAIN_LOCALIZATION, Clip, LossBreakdown, LossConfig, Workspace, total_loss

SUPERVISION_MODES = ("weak", "semi", "full")
STRATEGIES = ("joint", "fully_annotated_only", "pretrain_finetune")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 10
    max_clip_len: int = 320
    iterations: int = 2000
    seed: int = 0
    hidden_dim: int = 2048
    dropout: float = 0.7
    loss: LossConfig = field(default_factory=LossConfig)
    gating: str = "sigmoid"
    supervision: str = "weak"
    semi_k: int = 0  # flagged videos per class when supervision == "semi"
    strategy: str = "joint"
    train_localization: str = "predicted"

    # the values each string field may take
    CHOICES = {
        "gating": network.GATING_KINDS,
        "supervision": SUPERVISION_MODES,
        "strategy": STRATEGIES,
        "train_localization": TRAIN_LOCALIZATION,
    }
    # the fields that size arrays or bound random draws
    SIZES = ("batch_size", "max_clip_len", "hidden_dim")

    def __post_init__(self) -> None:
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValidationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValidationError("beta1/beta2 must lie in (0, 1)")
        if not (self.adam_eps > 0 and math.isfinite(self.adam_eps)):
            raise ValidationError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        if self.batch_size < 1 or self.max_clip_len < 1 or self.iterations < 0:
            raise ValidationError("batch_size/max_clip_len must be >= 1 and iterations >= 0")
        if self.hidden_dim < 1:
            raise ValidationError("hidden_dim must be >= 1")
        check_sizes(self, self.SIZES)
        check_array_bytes({
            "the conv kernel's 3 * hidden_dim**2 float64 values": 24 * self.hidden_dim**2,
            "a batch's batch_size int64 video draws": 8 * self.batch_size,
        })
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.semi_k < 0:
            raise ValidationError(f"semi_k must be >= 0, got {self.semi_k}")
        check_choices(self, self.CHOICES)
        if self.train_localization == "none" and self.loss.aggregator == "gated":
            raise ValidationError("train_localization='none' requires the topk_eighth aggregator")


ADAM_BLOCK = 16384  # elements per block of the Adam update, so that a block's arrays stay in cache


@dataclass
class TrainState:
    params: NetworkParams
    m: np.ndarray  # Adam moments, laid out like params.flat
    v: np.ndarray
    step: int
    rng: np.random.Generator
    # two block-sized vectors that the Adam update works in
    scratch: tuple = field(init=False, repr=False, compare=False)
    # the arrays total_loss writes, made by the first step and remade for a batch with more clips or a longer clip
    workspace: Workspace | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.scratch = (np.empty(min(ADAM_BLOCK, self.m.size)), np.empty(min(ADAM_BLOCK, self.m.size)))


def init_state(config: TrainConfig, feature_dim: int, num_classes: int) -> TrainState:
    rng = np.random.default_rng(config.seed)
    params = network.init_params(rng, feature_dim, config.hidden_dim, num_classes)
    return TrainState(params=params, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), step=0, rng=rng)


def apply_supervision(samples: list[VideoSample], config: TrainConfig) -> list[VideoSample]:
    """Set the fully_annotated flags that decide which videos carry localization supervision.

    ``weak`` flags none and ``full`` every annotated video.  ``semi`` flags
    the first ``config.semi_k`` annotated videos per class, in manifest
    order; a class with fewer candidates keeps all of them and triggers a
    warning.
    """
    if config.supervision == "full":
        return [replace(s, fully_annotated=s.segments is not None) for s in samples]
    k = config.semi_k if config.supervision == "semi" else 0
    flagged: set[str] = set()
    if k > 0:
        classes = sorted({c for s in samples for c in s.labels})
        for c in classes:
            candidates = [s.id for s in samples if c in s.labels and s.segments is not None]
            if len(candidates) < k:
                warnings.warn(
                    f"class {c}: only {len(candidates)} annotated videos available, need {k}; flagging all"
                )
            flagged.update(candidates[:k])
    return [replace(s, fully_annotated=s.id in flagged) for s in samples]


def _adam_update(state: TrainState, grads: NetworkParams, config: TrainConfig) -> None:
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    scale_m, scale_v = 1.0 - b1**t, 1.0 - b2**t
    # in place, block by block (every operation is elementwise), in the operation order of
    #   m = b1 * m + (1 - b1) * g;  v = b2 * v + ((1 - b2) * g) * g
    #   flat -= (lr * m_hat) / (sqrt(v_hat) + eps)
    for start in range(0, state.m.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        g, m, v, flat = grads.flat[block], state.m[block], state.v[block], state.params.flat[block]
        a, b = (s[: g.size] for s in state.scratch)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=a)
        v *= b2
        np.multiply(g, 1.0 - b2, out=a)
        v += np.multiply(a, g, out=a)
        m_hat = np.divide(m, scale_m, out=a)
        v_hat = np.divide(v, scale_v, out=b)
        denom = np.add(np.sqrt(v_hat, out=b), config.adam_eps, out=b)
        step = np.multiply(m_hat, config.learning_rate, out=a)
        flat -= np.divide(step, denom, out=a)


def train_step(state: TrainState, batch: list[Clip], config: TrainConfig) -> LossBreakdown:
    """One gradient step on a sampled batch of whole videos, each cut to a random clip; mutates state."""
    clips = [video.window(crop_clip(video.num_snippets, config.max_clip_len, state.rng)) for video in batch]
    # sized by the clips, not by the cap, which may be far beyond any video
    longest = max(c.num_snippets for c in clips)
    if state.workspace is None or not state.workspace.fits(state.params, len(clips), longest):
        state.workspace = None  # the old buffers go before the new ones are allocated
        state.workspace = Workspace(state.params, len(clips), longest)
    ws = state.workspace
    keep = None
    if config.dropout > 0:
        # one draw for the batch, the same stream as one uniform(size=...) draw per clip,
        # into the h3 rows, which the forward pass fills only after the mask is taken
        n = sum(c.num_snippets for c in clips)
        draw = state.rng.random(out=ws.forward.h3[:n])
        keep = np.greater_equal(draw, config.dropout, out=ws.keep[:n])
    breakdown, grads = total_loss(
        state.params,
        clips,
        config.loss,
        gating=config.gating,
        train_localization=config.train_localization,
        dropout_masks=keep,
        drop_rate=config.dropout,
        workspace=ws,
    )
    ids = [c.id for c in clips]
    if not np.isfinite(breakdown.total):
        raise NumericalError(f"non-finite loss {breakdown.total!r} at step {state.step + 1}; batch ids {ids}")
    if not (np.isfinite(grads.flat.min()) and np.isfinite(grads.flat.max())):  # NaN propagates through both
        raise NumericalError(f"non-finite gradient at step {state.step + 1}; batch ids {ids}")
    _adam_update(state, grads, config)
    return breakdown


def _sample_batch(pool: list[Clip], size: int, rng: np.random.Generator) -> list[Clip]:
    idx = rng.integers(0, len(pool), size=size)
    return [pool[int(i)] for i in idx]


def run_training(
    samples: list[VideoSample],
    num_classes: int,
    config: TrainConfig,
) -> tuple[TrainState, list[dict]]:
    """Full training run; returns the final state and per-step loss records.
    Each video's arrays, labels and feature dim are built and checked before the first step."""
    if not samples:
        raise ValidationError("run_training: empty dataset")
    samples = apply_supervision(samples, config)
    feature_dim = samples[0].feature_dim
    videos = []
    for s in samples:
        if s.feature_dim != feature_dim:
            raise ValidationError(f"video {s.id!r}: {s.feature_dim}-dim features, video {samples[0].id!r} has {feature_dim}")
        videos.append(Clip.of(s, num_classes))
    state = init_state(config, feature_dim, num_classes)
    metrics: list[dict] = []

    def run_phase(pool: list[Clip], iterations: int, loss_config: LossConfig, phase: str) -> None:
        if not pool:
            raise ValidationError(f"{config.strategy}: no videos available for the {phase} phase")
        phase_config = replace(config, loss=loss_config)
        for _ in range(iterations):
            batch = _sample_batch(pool, config.batch_size, state.rng)
            breakdown = train_step(state, batch, phase_config)
            record = {"step": state.step, **breakdown.as_dict()}
            if phase:
                record["phase"] = phase
            metrics.append(record)

    flagged = [video for video in videos if video.annotation is not None]
    if config.strategy in ("fully_annotated_only", "pretrain_finetune") and not flagged:
        raise ValidationError(f"{config.strategy}: no fully annotated videos under supervision {config.supervision!r}")
    if config.strategy == "joint":
        run_phase(videos, config.iterations, config.loss, "")
    elif config.strategy == "fully_annotated_only":
        run_phase(flagged, config.iterations, config.loss, "")
    else:  # pretrain_finetune
        half = config.iterations // 2
        run_phase(videos, half, replace(config.loss, loc_weight=0.0), "pretrain")
        run_phase(flagged, config.iterations - half, config.loss, "finetune")
    return state, metrics
