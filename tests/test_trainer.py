import copy
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ttcloc import network, trainer
from ttcloc.data import GroundTruthSegment, VideoSample, crop_clip
from ttcloc.errors import NumericalError, ValidationError
from ttcloc.network import init_params
from ttcloc.objectives import LossConfig
from ttcloc.trainer import (
    TrainConfig,
    TrainState,
    _adam_update,
    _sample_batch,
    apply_supervision,
    init_state,
    run_training,
    train_step,
)


def tiny_config(**overrides):
    base = dict(
        batch_size=4,
        max_clip_len=16,
        iterations=5,
        hidden_dim=8,
        dropout=0.0,
        loss=LossConfig(clas_weight=0.5, loc_weight=1.0),
    )
    base.update(overrides)
    return TrainConfig(**base)


def make_dataset(rng, num_classes=2, per_class=4, t=12, d=3):
    samples = []
    for c in range(num_classes):
        for v in range(per_class):
            segments = (GroundTruthSegment(c, 2.0, 6.0),)
            samples.append(
                VideoSample(
                    id=f"v{c}_{v}",
                    features=rng.normal(size=(t, d)).astype(np.float32),
                    labels=frozenset({c}),
                    snippet_duration=1.0,
                    segments=segments,
                    fully_annotated=False,
                )
            )
    return samples


class TestConfigValidation:
    def test_defaults_valid(self):
        TrainConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("learning_rate", 0.0),
            ("learning_rate", float("inf")),
            ("learning_rate", float("nan")),
            ("adam_eps", float("inf")),
            ("adam_eps", float("nan")),
            ("beta1", 1.0),
            ("batch_size", 0),
            ("dropout", 1.0),
            ("gating", "step"),
            ("supervision", "self"),
            ("semi_k", -1),
            ("strategy", "alternate"),
            ("train_localization", "oracle"),
            ("seed", -1),
        ],
    )
    def test_bad_field(self, field, value):
        from dataclasses import replace

        with pytest.raises(ValidationError):
            replace(TrainConfig(), **{field: value}).validate()

    def test_nan_loc_weight_rejected(self):
        with pytest.raises(ValidationError, match="loc_weight"):
            TrainConfig(loss=LossConfig(loc_weight=float("nan"))).validate()


def semi(k):
    return TrainConfig(supervision="semi", semi_k=k)


class TestSemiSubset:
    def test_k_zero_flags_none(self):
        rng = np.random.default_rng(0)
        out = apply_supervision(make_dataset(rng), semi(0))
        assert not any(s.fully_annotated for s in out)

    def test_weak_flags_none_whatever_k(self):
        rng = np.random.default_rng(0)
        samples = [replace(s, fully_annotated=True) for s in make_dataset(rng)]
        out = apply_supervision(samples, TrainConfig(supervision="weak", semi_k=2))
        assert not any(s.fully_annotated for s in out)

    def test_first_k_per_class_in_order(self):
        rng = np.random.default_rng(0)
        out = apply_supervision(make_dataset(rng), semi(1))
        flagged = [s.id for s in out if s.fully_annotated]
        assert flagged == ["v0_0", "v1_0"]

    def test_two_classes_k2(self):
        rng = np.random.default_rng(0)
        out = apply_supervision(make_dataset(rng), semi(2))
        flagged = [s.id for s in out if s.fully_annotated]
        assert flagged == ["v0_0", "v0_1", "v1_0", "v1_1"]

    def test_overrides_existing_flags(self):
        from dataclasses import replace

        rng = np.random.default_rng(0)
        samples = [replace(s, fully_annotated=True) for s in make_dataset(rng)]
        out = apply_supervision(samples, semi(1))
        assert sum(s.fully_annotated for s in out) == 2

    def test_warns_when_too_few(self):
        rng = np.random.default_rng(0)
        samples = make_dataset(rng, per_class=2)
        with pytest.warns(UserWarning, match="only 2 annotated"):
            out = apply_supervision(samples, semi(5))
        assert sum(s.fully_annotated for s in out) == 4

    def test_skips_unannotated_candidates(self):
        from dataclasses import replace

        rng = np.random.default_rng(0)
        samples = make_dataset(rng)
        samples[0] = replace(samples[0], segments=None)
        out = apply_supervision(samples, semi(1))
        flagged = [s.id for s in out if s.fully_annotated]
        assert flagged == ["v0_1", "v1_0"]

    def test_full_supervision_flags_all(self):
        rng = np.random.default_rng(0)
        out = apply_supervision(make_dataset(rng), tiny_config(supervision="full"))
        assert all(s.fully_annotated for s in out)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # fresh moments: update = -lr * g / (|g| + eps), magnitude ~= lr
        cfg = tiny_config(learning_rate=1e-3)
        rng = np.random.default_rng(1)
        params = init_params(rng, 2, 4, 2)
        before = params.flat.copy()
        state = TrainState(params, np.zeros_like(params.flat), np.zeros_like(params.flat), 0, rng)
        grads = init_params(np.random.default_rng(2), 2, 4, 2)
        for arr in grads.as_dict().values():
            arr += 0.01 * np.sign(arr) + 1e-12  # keep entries away from 0
        _adam_update(state, grads, cfg)
        delta = state.params.flat - before
        g = grads.flat
        expected = -cfg.learning_rate * g / (np.abs(g) + cfg.adam_eps)
        np.testing.assert_allclose(delta, expected, rtol=1e-9)
        assert state.step == 1

    def test_zero_gradient_keeps_params(self):
        cfg = tiny_config()
        rng = np.random.default_rng(3)
        params = init_params(rng, 2, 4, 2)
        before = params.flat.copy()
        state = TrainState(params, np.zeros_like(params.flat), np.zeros_like(params.flat), 0, rng)
        _adam_update(state, params.with_flat(np.zeros_like(params.flat)), cfg)
        np.testing.assert_array_equal(state.params.flat, before)
        assert not state.m.any()
        assert state.step == 1

    def test_update_bound(self):
        # |delta| <= lr / (1 - beta1) elementwise, any gradient history
        cfg = tiny_config(learning_rate=0.05)
        rng = np.random.default_rng(4)
        params = init_params(rng, 2, 4, 2)
        state = TrainState(params, np.zeros_like(params.flat), np.zeros_like(params.flat), 0, rng)
        bound = cfg.learning_rate / (1.0 - cfg.beta1) + 1e-12
        for i in range(20):
            grads = init_params(np.random.default_rng(100 + i), 2, 4, 2)
            for arr in grads.as_dict().values():
                arr *= 10.0 ** rng.integers(-3, 4)
            before = state.params.flat.copy()
            _adam_update(state, grads, cfg)
            assert np.abs(state.params.flat - before).max() <= bound

    def test_update_allocates_no_parameter_sized_buffer(self):
        # NumPy reports its array buffers to tracemalloc
        rng = np.random.default_rng(5)
        params = init_params(rng, 32, 128, 4)
        state = TrainState(params, np.zeros_like(params.flat), np.zeros_like(params.flat), 0, rng)
        grads = params.with_flat(rng.normal(size=params.flat.size))
        _adam_update(state, grads, tiny_config())
        tracemalloc.start()
        try:
            _adam_update(state, grads, tiny_config())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.flat.nbytes / 8


def _reference_backward(cache, d_scores, d_thresholds):
    """One clip's parameter gradients, computed array by array with fresh
    allocations and np.stack, as before the flat gradient buffer."""
    params = cache.params
    t = cache.features.shape[0]
    d_out = np.concatenate([d_scores, d_thresholds[:, None]], axis=1)
    d_w2 = cache.h3.T @ d_out
    d_b2 = d_out.sum(axis=0)
    d_h3 = d_out @ params.w2.T
    d_h2 = d_h3 * cache.dropout_mask * cache.dropout_scale if cache.dropout_mask is not None else d_h3
    d_pre = d_h2 * (cache.pre_act > 0)
    padded = np.zeros((t + 2, params.hidden_dim))
    padded[1 : t + 1] = cache.h1_padded[1 : t + 1]
    d_kernel = np.stack([padded[k : k + t].T @ d_pre for k in range(3)])
    d_conv_bias = d_pre.sum(axis=0)
    d_padded = np.zeros_like(padded)
    for k in range(3):
        d_padded[k : k + t] += d_pre @ params.conv_kernel[k].T
    d_h1 = d_pre + d_padded[1 : t + 1]
    d_z1 = d_h1 * (cache.z1 > 0)
    d_w1 = cache.features.T @ d_z1
    d_b1 = d_z1.sum(axis=0)
    return dict(w1=d_w1, b1=d_b1, conv_kernel=d_kernel, conv_bias=d_conv_bias, w2=d_w2, b2=d_b2)


def _clip_caches(cache):
    """Each clip's rows of a batch's forward cache, named as a forward pass
    over that clip alone names them."""
    clips = []
    for i, (a, z) in enumerate(network.clip_layout(cache.lengths, cache.features.shape[0])[1]):
        rows = dict(features=cache.features, z1=cache.z1, pre_act=cache.pre_act, h3=cache.h3)
        clip = {name: value[a:z] for name, value in rows.items()}
        clip["h1_padded"] = cache.h1_padded[a + 2 * i : z + 2 * i + 2]
        clip["dropout_mask"] = None if cache.dropout_mask is None else cache.dropout_mask[a:z]
        clips.append(SimpleNamespace(**clip, dropout_scale=cache.dropout_scale, params=cache.params))
    return clips


def _reference_adam(params, m, v, grads, t, config):
    """The per-array Adam loop that ran before the flat parameter buffer."""
    b1, b2 = config.beta1, config.beta2
    scale_m = 1.0 - b1**t
    scale_v = 1.0 - b2**t
    for name, g in grads.items():
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        m_hat = m[name] / scale_m
        v_hat = v[name] / scale_v
        params[name] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)


class TestFlatPathMatchesPerArrayReference:
    def test_dropout_steps_bit_identical(self, monkeypatch):
        # Whole-vector Adam and flat gradient sums must reproduce the
        # per-array code exactly: the arithmetic per element is unchanged.
        rng = np.random.default_rng(16)
        cfg = tiny_config(dropout=0.5, supervision="semi", semi_k=2, learning_rate=1e-2)
        samples = apply_supervision(make_dataset(rng), cfg)
        state = init_state(cfg, 3, 2)
        ref_params = {name: arr.copy() for name, arr in state.params.as_dict().items()}
        ref_m = {name: np.zeros_like(arr) for name, arr in ref_params.items()}
        ref_v = {name: np.zeros_like(arr) for name, arr in ref_params.items()}
        clip_grads, calls = [], []
        real_backward = network.backward

        def recording_backward(cache, d_scores, d_thresholds, **kwargs):
            # one call for the batch, split by clip lengths into per-clip references
            calls.append(cache.lengths)
            for clip, (a, z) in zip(_clip_caches(cache), network.clip_layout(cache.lengths, d_scores.shape[0])[1]):
                clip_grads.append(_reference_backward(clip, d_scores[a:z], d_thresholds[a:z]))
            return real_backward(cache, d_scores, d_thresholds, **kwargs)

        monkeypatch.setattr(network, "backward", recording_backward)
        loc_steps = 0
        for step in range(1, 9):
            clip_grads.clear()
            calls.clear()
            breakdown = train_step(state, _sample_batch(samples, cfg.batch_size, state.rng), cfg)
            loc_steps += breakdown.loc > 0
            assert len(calls) == 1 and len(clip_grads) == cfg.batch_size
            total = {name: np.zeros_like(arr) for name, arr in ref_params.items()}
            for bundle in clip_grads:
                for name, arr in total.items():
                    arr += bundle[name]
            _reference_adam(ref_params, ref_m, ref_v, total, step, cfg)
            for name, arr in state.params.as_dict().items():
                assert arr.tobytes() == ref_params[name].tobytes(), (step, name)
            assert state.m.tobytes() == np.concatenate([a.ravel() for a in ref_m.values()]).tobytes()
            assert state.v.tobytes() == np.concatenate([a.ravel() for a in ref_v.values()]).tobytes()
        assert loc_steps > 0


def _split_by_clip(mask, clips):
    """The batch's one (N, H) dropout mask, split into each clip's rows."""
    assert isinstance(mask, np.ndarray)
    return np.split(mask, np.cumsum([c.num_snippets for c in clips])[:-1])


class TestTrainStep:
    def test_loss_finite_and_params_move(self):
        rng = np.random.default_rng(5)
        samples = make_dataset(rng)
        cfg = tiny_config()
        state = init_state(cfg, 3, 2)
        before = state.params.flat.copy()
        breakdown = train_step(state, samples[:4], cfg)
        assert np.isfinite(breakdown.total)
        assert np.abs(state.params.flat - before).max() > 0

    def test_non_finite_loss_names_batch(self):
        rng = np.random.default_rng(6)
        samples = make_dataset(rng)
        cfg = tiny_config()
        state = init_state(cfg, 3, 2)
        for arr in state.params.as_dict().values():
            arr += np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="v0_0"):
            train_step(state, samples[:2], cfg)

    def test_non_finite_gradient_leaves_state_untouched(self, monkeypatch):
        rng = np.random.default_rng(6)
        samples = make_dataset(rng)
        cfg = tiny_config()
        state = init_state(cfg, 3, 2)
        finite_total_loss = trainer.total_loss

        def nan_gradient(*args, **kwargs):
            breakdown, grads = finite_total_loss(*args, **kwargs)
            grads.flat[3] = np.nan
            return breakdown, grads

        monkeypatch.setattr(trainer, "total_loss", nan_gradient)
        before = [state.params.flat.tobytes(), state.m.tobytes(), state.v.tobytes()]
        with pytest.raises(NumericalError, match="non-finite gradient at step 1; batch ids.*v0_0"):
            train_step(state, samples[:2], cfg)
        assert [state.params.flat.tobytes(), state.m.tobytes(), state.v.tobytes()] == before
        assert state.step == 0

    def test_dropout_masks_are_boolean(self, monkeypatch):
        # a bool mask takes an eighth of the memory of a float64 one, and the same bytes come out
        rng = np.random.default_rng(8)
        samples = make_dataset(rng)
        cfg = tiny_config(dropout=0.5)
        state = init_state(cfg, 3, 2)
        seen = []
        real_total_loss = trainer.total_loss

        def recording(*args, **kwargs):
            seen.extend(_split_by_clip(kwargs["dropout_masks"], args[1]))
            return real_total_loss(*args, **kwargs)

        monkeypatch.setattr(trainer, "total_loss", recording)
        train_step(state, samples[:3], cfg)
        assert [(m.dtype, m.shape) for m in seen] == [(np.bool_, (12, 8))] * 3

    def test_one_batch_mask_draw_equals_per_clip_draws(self, monkeypatch):
        # the batch's mask is one rng draw, viewed per clip; it must give the
        # bytes, and leave the rng where, one draw per clip did
        rng = np.random.default_rng(9)
        samples = make_dataset(rng, t=40)
        samples = [replace(s, features=s.features[: 3 + 7 * i]) for i, s in enumerate(samples[:4])]
        cfg = tiny_config(dropout=0.6, max_clip_len=16)
        state = init_state(cfg, 3, 2)
        reference_rng = copy.deepcopy(state.rng)
        seen = []
        real_total_loss = trainer.total_loss

        def recording(*args, **kwargs):
            seen.extend(_split_by_clip(kwargs["dropout_masks"], args[1]))
            return real_total_loss(*args, **kwargs)

        monkeypatch.setattr(trainer, "total_loss", recording)
        train_step(state, samples, cfg)
        clips = [crop_clip(s, cfg.max_clip_len, reference_rng) for s in samples]
        expected = [reference_rng.uniform(size=(c.num_snippets, cfg.hidden_dim)) >= cfg.dropout for c in clips]
        assert [c.num_snippets for c in clips] == [3, 10, 16, 16]
        assert [m.tobytes() for m in seen] == [m.tobytes() for m in expected]
        assert state.rng.bit_generator.state == reference_rng.bit_generator.state

    def test_crops_long_videos(self):
        rng = np.random.default_rng(7)
        samples = make_dataset(rng, t=40)
        cfg = tiny_config(max_clip_len=8)
        state = init_state(cfg, 3, 2)
        breakdown = train_step(state, samples[:4], cfg)
        assert np.isfinite(breakdown.total)


class TestWorkspaceReuse:
    def test_steps_give_the_bytes_of_fresh_buffers(self):
        rng = np.random.default_rng(17)
        cfg = tiny_config(dropout=0.5, supervision="semi", semi_k=2, learning_rate=1e-2)
        samples = apply_supervision(make_dataset(rng, t=20), cfg)
        reused, fresh = init_state(cfg, 3, 2), init_state(cfg, 3, 2)
        workspaces = set()
        for _ in range(3):
            batch = _sample_batch(samples, cfg.batch_size, reused.rng)
            assert _sample_batch(samples, cfg.batch_size, fresh.rng) == batch
            fresh.workspace = None  # buffers made for this step alone
            assert train_step(reused, batch, cfg) == train_step(fresh, batch, cfg)
            workspaces.add(id(reused.workspace))
            for a, b in ((reused.params.flat, fresh.params.flat), (reused.m, fresh.m), (reused.v, fresh.v)):
                assert a.tobytes() == b.tobytes()
            assert reused.rng.bit_generator.state == fresh.rng.bit_generator.state
        assert len(workspaces) == 1

    def test_a_larger_batch_gets_a_larger_workspace(self):
        rng = np.random.default_rng(18)
        cfg = tiny_config()
        samples = make_dataset(rng)
        state = init_state(cfg, 3, 2)
        train_step(state, samples[:2], cfg)
        assert state.workspace.clips == 2
        train_step(state, samples[:5], cfg)
        assert state.workspace.clips == 5

    def test_workspace_is_sized_by_the_clips_not_the_cap(self):
        # a cap far beyond any video: sized by the cap, the workspace would be a refused allocation
        rng = np.random.default_rng(20)
        cfg = tiny_config(max_clip_len=10**12)
        state = init_state(cfg, 3, 2)

        def rows(ws):
            return {ws.forward.x.shape[0], ws.forward.out.shape[0], ws.keep.shape[0], ws.objective.shape[1]}

        train_step(state, make_dataset(rng, t=12)[:4], cfg)
        first = state.workspace
        assert rows(first) == {4 * 12}
        train_step(state, make_dataset(rng, t=7)[:4], cfg)  # shorter clips fit
        assert state.workspace is first
        train_step(state, make_dataset(rng, t=30)[:4], cfg)  # a longer clip regrows it
        assert rows(state.workspace) == {4 * 30}

    def test_step_allocates_under_a_megabyte(self):
        # the acceptance shape: hidden 128, batch 10, clips of 64 snippets, dropout
        rng = np.random.default_rng(19)
        cfg = tiny_config(hidden_dim=128, batch_size=10, max_clip_len=64, dropout=0.7, supervision="semi", semi_k=1)
        samples = apply_supervision(make_dataset(rng, num_classes=5, per_class=4, t=100, d=16), cfg)
        state = init_state(cfg, 16, 5)
        train_step(state, _sample_batch(samples, cfg.batch_size, state.rng), cfg)  # makes the workspace
        batch = _sample_batch(samples, cfg.batch_size, state.rng)
        tracemalloc.start()
        try:
            train_step(state, batch, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestRunTraining:
    def test_deterministic(self):
        rng = np.random.default_rng(8)
        samples = make_dataset(rng)
        cfg = tiny_config(iterations=6, dropout=0.3)
        s1, log1 = run_training(samples, 2, cfg)
        s2, log2 = run_training(samples, 2, cfg)
        assert s1.params.flat.tobytes() == s2.params.flat.tobytes()
        assert log1 == log2

    def test_seed_changes_trajectory(self):
        rng = np.random.default_rng(9)
        samples = make_dataset(rng)
        s1, _ = run_training(samples, 2, tiny_config(seed=0))
        s2, _ = run_training(samples, 2, tiny_config(seed=1))
        assert s1.params.flat.tobytes() != s2.params.flat.tobytes()

    def test_weak_run_has_zero_loc(self):
        rng = np.random.default_rng(10)
        samples = make_dataset(rng)
        _, log = run_training(samples, 2, tiny_config(supervision="weak"))
        assert all(rec["L_loc"] == 0.0 for rec in log)

    def test_weak_trajectory_identical_with_loc_disabled(self):
        # k = 0 must be bit-identical to never computing the localization term
        rng = np.random.default_rng(11)
        samples = make_dataset(rng)
        cfg_on = tiny_config(supervision="weak", dropout=0.4)
        cfg_off = tiny_config(supervision="weak", dropout=0.4, loss=LossConfig(clas_weight=0.5, loc_weight=0.0))
        s1, _ = run_training(samples, 2, cfg_on)
        s2, _ = run_training(samples, 2, cfg_off)
        assert s1.params.flat.tobytes() == s2.params.flat.tobytes()

    def test_semi_activates_loc(self):
        rng = np.random.default_rng(12)
        samples = make_dataset(rng)
        _, log = run_training(samples, 2, tiny_config(supervision="semi", semi_k=2))
        assert any(rec["L_loc"] > 0 for rec in log)

    def test_fully_annotated_only_requires_flags(self):
        rng = np.random.default_rng(13)
        samples = make_dataset(rng)
        with pytest.raises(ValidationError, match="fully_annotated_only"):
            run_training(samples, 2, tiny_config(strategy="fully_annotated_only", supervision="weak"))

    def test_pretrain_finetune_phases(self):
        rng = np.random.default_rng(14)
        samples = make_dataset(rng)
        cfg = tiny_config(strategy="pretrain_finetune", supervision="semi", semi_k=2, iterations=6)
        _, log = run_training(samples, 2, cfg)
        phases = [rec["phase"] for rec in log]
        assert phases == ["pretrain"] * 3 + ["finetune"] * 3
        assert all(rec["L_loc"] == 0.0 for rec in log[:3])

    def test_metrics_schema_and_steps(self):
        rng = np.random.default_rng(15)
        samples = make_dataset(rng)
        _, log = run_training(samples, 2, tiny_config(iterations=4))
        assert [rec["step"] for rec in log] == [1, 2, 3, 4]
        for rec in log:
            assert {"step", "L_clas", "L_reg", "L_loc", "L"} <= set(rec)

    def test_loss_decreases_on_easy_data(self):
        from ttcloc.synth import SynthSpec, generate

        spec = SynthSpec(
            num_classes=2,
            feature_dim=6,
            videos_per_class=5,
            snippets_min=16,
            snippets_max=20,
            segment_len_min=4,
            segment_len_max=6,
            noise_scale=0.5,
            prototype_scale=6.0,
            seed=3,
        )
        _, samples = generate(spec)
        cfg = tiny_config(iterations=150, hidden_dim=12, learning_rate=5e-3, dropout=0.1, batch_size=6)
        _, log = run_training(samples, 2, cfg)
        early = np.mean([rec["L"] for rec in log[:10]])
        late = np.mean([rec["L"] for rec in log[-10:]])
        assert late < 0.5 * early
