import itertools

import numpy as np
import pytest

from ttcloc.data import GroundTruthSegment, VideoSample, rasterize
from ttcloc.errors import ValidationError
from ttcloc import gradcheck, network, objectives
from ttcloc.gradcheck import check_total_loss, numerical_gradient, relative_error
from ttcloc.network import ScoreMap, gate_margins, gate_values, init_params
from ttcloc.objectives import (
    LossConfig,
    VideoProbabilities,
    classification_loss,
    label_vector,
    localization_loss,
    pool_and_classify,
    pool_backward,
    threshold_regularization_loss,
    topk_count,
    total_loss,
)
from ttcloc.trainer import TrainConfig


def random_scoremap(rng, t=5, c=3, scale=1.0):
    return ScoreMap(scores=rng.normal(scale=scale, size=(t, c)), thresholds=rng.normal(scale=scale, size=t))


def jittered_params(rng, d, h, c):
    # nonzero conv bias keeps the FD probe away from exact relu kinks
    params = init_params(rng, d, h, c)
    params.conv_bias += rng.normal(scale=0.1, size=h)
    return params


def make_clip(rng, t=4, d=2, labels=(0,), segments=None, flagged=False, tau=1.0):
    return VideoSample(
        id="clip",
        features=rng.normal(size=(t, d)),
        labels=frozenset(labels),
        snippet_duration=tau,
        segments=segments,
        fully_annotated=flagged,
    )


class TestLabelVector:
    def test_single_label(self):
        np.testing.assert_array_equal(label_vector({1}, 3), [0, 1, 0])

    def test_multi_label_normalized(self):
        y = label_vector({0, 2}, 3)
        np.testing.assert_allclose(y, [0.5, 0, 0.5])
        assert y.sum() == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            label_vector({3}, 3)


class TestPooling:
    def test_constant_gate_reduces_to_mean(self):
        rng = np.random.default_rng(0)
        smap = random_scoremap(rng, t=6, c=2)
        gate = np.full((6, 2), 0.37)
        vp = pool_and_classify(smap, gate, "gated")
        np.testing.assert_allclose(vp.pooled_scores[0], smap.scores.mean(axis=0), rtol=1e-7)

    def test_zero_scores_give_uniform_probs(self):
        smap = ScoreMap(scores=np.zeros((4, 3)), thresholds=np.zeros(4))
        vp = pool_and_classify(smap, gate_values(gate_margins(smap, "predicted"), "sigmoid"), "gated")
        np.testing.assert_allclose(vp.probs, 1.0 / 4.0)

    def test_binary_gate_selects_snippets(self):
        smap = ScoreMap(scores=np.array([[2.0], [0.0]]), thresholds=np.zeros(2))
        gate = np.array([[1.0], [0.0]])
        vp = pool_and_classify(smap, gate, "gated")
        np.testing.assert_allclose(vp.pooled_scores[0], [2.0], rtol=1e-7)

    def test_probs_are_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            smap = random_scoremap(rng, t=int(rng.integers(1, 9)), c=int(rng.integers(1, 5)), scale=5.0)
            vp = pool_and_classify(smap, gate_values(gate_margins(smap, "predicted"), "sigmoid"), "gated")
            assert abs(vp.probs.sum() - 1.0) <= 1e-12
            assert np.all(vp.probs > 0)

    def test_topk_count(self):
        assert [topk_count(t) for t in (1, 7, 8, 9, 16, 17)] == [1, 1, 1, 2, 2, 3]

    def test_topk_pooling_means_largest_eighth(self):
        t = 16  # k = 2
        scores = np.arange(t, dtype=float)[:, None]
        smap = ScoreMap(scores=scores, thresholds=np.zeros(t))
        vp = pool_and_classify(smap, None, "topk_eighth")
        np.testing.assert_allclose(vp.pooled_scores[0], [(15 + 14) / 2])

    def test_pool_backward_matches_fd(self):
        rng = np.random.default_rng(2)
        for aggregator in ("gated", "topk_eighth"):
            smap = random_scoremap(rng, t=5, c=3)
            gate = gate_values(gate_margins(smap, "predicted"), "sigmoid")
            d_pooled = rng.normal(size=3)
            d_bhat = float(rng.normal())

            def value(flat):
                s = flat[:15].reshape(5, 3)
                b = flat[15:]
                sm = ScoreMap(s, b)
                vp = pool_and_classify(sm, gate, aggregator)  # gate held fixed
                return float(d_pooled @ vp.pooled_scores[0] + d_bhat * vp.pooled_threshold[0])

            pooled = pool_and_classify(smap, gate, aggregator)
            d_s, _, d_b = pool_backward(smap, gate, aggregator, pooled, d_pooled[None], np.array([d_bhat]))
            flat0 = np.concatenate([smap.scores.ravel(), smap.thresholds])
            numeric = numerical_gradient(value, flat0)
            analytic = np.concatenate([d_s.ravel(), d_b])
            assert relative_error(analytic, numeric) < 1e-8

    def test_pool_backward_gate_direction_matches_fd(self):
        rng = np.random.default_rng(3)
        smap = random_scoremap(rng, t=4, c=2)
        gate = gate_values(gate_margins(smap, "predicted"), "sigmoid")
        d_pooled = rng.normal(size=2)

        def value(flat):
            g = flat.reshape(4, 2)
            vp = pool_and_classify(smap, g, "gated")
            return float(d_pooled @ vp.pooled_scores[0])

        pooled = pool_and_classify(smap, gate, "gated")
        _, d_g, _ = pool_backward(smap, gate, "gated", pooled, d_pooled[None], np.zeros(1))
        numeric = numerical_gradient(value, gate.ravel())
        assert relative_error(d_g.ravel(), numeric) < 1e-8


def video_probs(probs):
    """A batch of one video with the given (C + 1) probabilities."""
    c = len(probs) - 1
    return VideoProbabilities(pooled_scores=np.zeros((1, c)), pooled_threshold=np.zeros(1), probs=np.array([probs]))


class TestClassificationLoss:
    def test_uniform_probs_hand_value(self):
        vp = video_probs(np.full(3, 1 / 3))
        loss, _ = classification_loss(vp, np.array([[1.0, 0.0]]), background_weight=0.5)
        np.testing.assert_allclose(loss, 1.5 * np.log(3.0), rtol=1e-12)

    def test_confident_prediction_drives_loss_to_zero(self):
        p = np.array([1.0 - 2e-12, 1e-12, 1e-12])
        loss, _ = classification_loss(video_probs(p), np.array([[1.0, 0.0]]), background_weight=1e-9)
        assert 0 <= loss < 1e-7

    def test_always_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c = int(rng.integers(1, 5))
            smap = random_scoremap(rng, t=4, c=c, scale=3.0)
            vp = pool_and_classify(smap, gate_values(gate_margins(smap, "predicted"), "sigmoid"), "gated")
            y = label_vector({int(rng.integers(0, c))}, c)
            loss, _ = classification_loss(vp, y[None], background_weight=1.0 / c)
            assert loss >= 0

    def test_gradient_matches_fd_on_pooled_logits(self):
        rng = np.random.default_rng(5)
        c = 3
        y = label_vector({0, 2}, c)
        logits0 = rng.normal(size=c + 1)

        def value(logits):
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            loss, _ = classification_loss(video_probs(probs), y[None], background_weight=0.25)
            return loss

        probs = np.exp(logits0 - logits0.max())
        probs /= probs.sum()
        _, (d_shat, d_bhat) = classification_loss(video_probs(probs), y[None], background_weight=0.25)
        numeric = numerical_gradient(value, logits0)
        analytic = np.append(d_shat[0], d_bhat[0])
        assert relative_error(analytic, numeric) < 1e-6


class TestThresholdRegularization:
    def test_inactive_hinge_is_zero(self):
        # stilde * b = -2 everywhere, margin already beyond the hinge
        smap = ScoreMap(scores=np.full((3, 1), 2.0), thresholds=np.full(3, -1.0))
        loss, _ = threshold_regularization_loss(smap, np.array([[1.0]]))
        assert loss == 0.0

    def test_hand_value_all_ones(self):
        smap = ScoreMap(scores=np.ones((2, 1)), thresholds=np.ones(2))
        loss, _ = threshold_regularization_loss(smap, np.array([[1.0]]))
        np.testing.assert_allclose(loss, 2.0, rtol=1e-6)

    def test_l1_saturates_beyond_unit_distance(self):
        smap = ScoreMap(scores=np.full((4, 1), 0.2), thresholds=np.full(4, -4.0))
        loss, _ = threshold_regularization_loss(smap, np.array([[1.0]]), form="l1")
        assert loss == 0.0

    def test_l2_at_zero_distance(self):
        smap = ScoreMap(scores=np.full((5, 1), 0.7), thresholds=np.full(5, 0.7))
        loss, _ = threshold_regularization_loss(smap, np.array([[1.0]]), form="l2")
        np.testing.assert_allclose(loss, 1.0)

    def test_cosine_antiparallel(self):
        rng = np.random.default_rng(6)
        s = rng.normal(size=(4, 1))
        smap = ScoreMap(scores=s, thresholds=-s[:, 0])
        loss, _ = threshold_regularization_loss(smap, np.array([[1.0]]), form="cosine")
        np.testing.assert_allclose(loss, -1.0, atol=1e-6)

    def test_hinge_forms_nonnegative(self):
        rng = np.random.default_rng(7)
        for form in ("inner_product", "l1", "l2"):
            for _ in range(50):
                smap = random_scoremap(rng, t=4, c=2, scale=2.0)
                loss, _ = threshold_regularization_loss(smap, label_vector({0}, 2)[None], form=form)
                assert loss >= 0

    @pytest.mark.parametrize("form", ["inner_product", "l1", "l2", "cosine"])
    def test_gradient_matches_fd(self, form):
        rng = np.random.default_rng(8)
        t, c = 5, 3
        y = label_vector({0, 2}, c)
        smap = random_scoremap(rng, t=t, c=c)

        def value(flat):
            sm = ScoreMap(flat[: t * c].reshape(t, c), flat[t * c :])
            loss, _ = threshold_regularization_loss(sm, y[None], form=form)
            return loss

        _, (d_s, d_b) = threshold_regularization_loss(smap, y[None], form=form)
        flat0 = np.concatenate([smap.scores.ravel(), smap.thresholds])
        numeric = numerical_gradient(value, flat0)
        assert relative_error(np.concatenate([d_s.ravel(), d_b]), numeric) < 1e-6


class TestLocalizationLoss:
    def test_exact_match_is_zero(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        gate = a.copy()
        loss, grad = localization_loss(gate, a, [True])
        assert loss == 0.0
        assert not grad.any()

    def test_half_gate_on_binary_annotation(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        gate = np.full((2, 2), 0.5)
        loss, _ = localization_loss(gate, a, [True])
        np.testing.assert_allclose(loss, 0.5)

    def test_no_flagged_samples(self):
        gate = np.full((2, 2), 0.5)
        loss, grad = localization_loss(gate, None, [False])
        assert loss == 0.0
        assert grad is None

    def test_range_bounded_by_one(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            g = rng.uniform(size=(3, 2))
            a = (rng.uniform(size=(3, 2)) > 0.5).astype(float)
            loss, _ = localization_loss(g, a, [True])
            assert 0.0 <= loss <= 1.0

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(10)
        a = (rng.uniform(size=(4, 2)) > 0.5).astype(float)
        g0 = rng.uniform(0.05, 0.95, size=(4, 2))

        def value(flat):
            loss, _ = localization_loss(flat.reshape(4, 2), a, [True])
            return loss

        _, d_g = localization_loss(g0, a, [True])
        numeric = numerical_gradient(value, g0.ravel())
        assert relative_error(d_g.ravel(), numeric) < 1e-6


class TestTotalLoss:
    def test_pure_classification_when_lambda_one(self):
        rng = np.random.default_rng(11)
        params = init_params(rng, 2, 4, 2)
        clips = [make_clip(rng, labels=(0,)), make_clip(rng, labels=(1,))]
        cfg = LossConfig(clas_weight=1.0, loc_weight=0.0)
        breakdown, _ = total_loss(params, clips, cfg, gating="sigmoid")
        assert breakdown.total == breakdown.clas

    def test_pure_regularizer_when_lambda_zero(self):
        rng = np.random.default_rng(12)
        params = init_params(rng, 2, 4, 2)
        clips = [make_clip(rng, labels=(0,))]
        cfg = LossConfig(clas_weight=0.0, loc_weight=0.0)
        breakdown, _ = total_loss(params, clips, cfg, gating="sigmoid")
        assert breakdown.total == breakdown.reg

    def test_end_to_end_gradient_matches_fd(self):
        rng = np.random.default_rng(13)
        params = jittered_params(rng, 2, 4, 2)
        clips = [make_clip(rng, t=4, labels=(0,)), make_clip(rng, t=3, labels=(0, 1))]
        cfg = LossConfig(clas_weight=0.3, loc_weight=0.0)

        def value(theta):
            breakdown, _ = total_loss(params.with_flat(theta), clips, cfg, gating="sigmoid")
            return breakdown.total

        _, grads = total_loss(params, clips, cfg, gating="sigmoid")
        numeric = numerical_gradient(value, params.flat)
        assert relative_error(grads.flat, numeric) < 1e-5

    def test_localization_term_gradient_matches_fd(self):
        rng = np.random.default_rng(14)
        params = jittered_params(rng, 2, 4, 2)
        from ttcloc.data import GroundTruthSegment

        clips = [
            make_clip(rng, t=5, labels=(0,), segments=(GroundTruthSegment(0, 1.0, 3.0),), flagged=True),
            make_clip(rng, t=4, labels=(1,)),
        ]
        cfg = LossConfig(clas_weight=0.2, loc_weight=2.0)

        def value(theta):
            breakdown, _ = total_loss(params.with_flat(theta), clips, cfg, gating="sigmoid")
            return breakdown.total

        breakdown, grads = total_loss(params, clips, cfg, gating="sigmoid")
        assert breakdown.loc > 0
        numeric = numerical_gradient(value, params.flat)
        assert relative_error(grads.flat, numeric) < 1e-5

    def test_loc_reported_zero_when_unflagged(self):
        rng = np.random.default_rng(15)
        params = init_params(rng, 2, 4, 2)
        clips = [make_clip(rng, labels=(0,))]
        breakdown, _ = total_loss(params, clips, LossConfig(), gating="sigmoid")
        assert breakdown.loc == 0.0

    def test_none_rule_requires_topk(self):
        rng = np.random.default_rng(16)
        params = init_params(rng, 2, 4, 2)
        clips = [make_clip(rng, labels=(0,))]
        with pytest.raises(ValidationError):
            total_loss(params, clips, LossConfig(aggregator="gated"), gating="sigmoid", train_localization="none")
        cfg = LossConfig(aggregator="topk_eighth")
        breakdown, _ = total_loss(params, clips, cfg, gating="sigmoid", train_localization="none")
        assert np.isfinite(breakdown.total)


class TestInvariances:
    def shifted(self, smap, delta):
        return ScoreMap(smap.scores + delta, smap.thresholds + delta)

    def test_gate_and_probs_shift_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            smap = random_scoremap(rng, t=5, c=3)
            delta = float(rng.uniform(-5, 5))
            shifted = self.shifted(smap, delta)
            for kind in ("sigmoid", "softsign", "binarize"):
                np.testing.assert_allclose(
                    gate_values(gate_margins(shifted, "predicted"), kind),
                    gate_values(gate_margins(smap, "predicted"), kind),
                    atol=1e-9,
                )
            vp0 = pool_and_classify(smap, gate_values(gate_margins(smap, "predicted"), "sigmoid"), "gated")
            vp1 = pool_and_classify(shifted, gate_values(gate_margins(shifted, "predicted"), "sigmoid"), "gated")
            np.testing.assert_allclose(vp1.probs, vp0.probs, atol=1e-9)

    def test_clas_and_loc_shift_invariant_reg_not(self):
        rng = np.random.default_rng(18)
        changed = 0
        for _ in range(50):
            smap = random_scoremap(rng, t=6, c=2)
            delta = float(rng.uniform(0.5, 3.0))
            shifted = self.shifted(smap, delta)
            y = label_vector({0}, 2)

            def clas(sm):
                vp = pool_and_classify(sm, gate_values(gate_margins(sm, "predicted"), "sigmoid"), "gated")
                return classification_loss(vp, y[None], background_weight=0.5)[0]

            np.testing.assert_allclose(clas(shifted), clas(smap), atol=1e-9)

            a = (rng.uniform(size=(6, 2)) > 0.5).astype(float)

            def loc(sm):
                return localization_loss(gate_values(gate_margins(sm, "predicted"), "sigmoid"), a, [True])[0]

            np.testing.assert_allclose(loc(shifted), loc(smap), atol=1e-9)

            r0 = threshold_regularization_loss(smap, y[None])[0]
            r1 = threshold_regularization_loss(shifted, y[None])[0]
            if abs(r1 - r0) > 1e-6:
                changed += 1
        assert changed > 40  # regularizer must respond to shifts

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            c = int(rng.integers(2, 5))
            t = int(rng.integers(2, 7))
            smap = random_scoremap(rng, t=t, c=c)
            y = label_vector(set(rng.choice(c, size=int(rng.integers(1, c + 1)), replace=False).tolist()), c)
            a = (rng.uniform(size=(t, c)) > 0.5).astype(float)
            perm = rng.permutation(c)
            smap_p = ScoreMap(smap.scores[:, perm], smap.thresholds)
            y_p = y[perm]
            a_p = a[:, perm]

            vp = pool_and_classify(smap, gate_values(gate_margins(smap, "predicted"), "sigmoid"), "gated")
            vp_p = pool_and_classify(smap_p, gate_values(gate_margins(smap_p, "predicted"), "sigmoid"), "gated")
            l0 = classification_loss(vp, y[None], 0.3)[0]
            l1 = classification_loss(vp_p, y_p[None], 0.3)[0]
            np.testing.assert_allclose(l1, l0, rtol=1e-10)

            for form in ("inner_product", "l1", "l2", "cosine"):
                r0 = threshold_regularization_loss(smap, y[None], form)[0]
                r1 = threshold_regularization_loss(smap_p, y_p[None], form)[0]
                np.testing.assert_allclose(r1, r0, rtol=1e-10)

            g0 = localization_loss(gate_values(gate_margins(smap, "predicted"), "sigmoid"), a, [True])[0]
            g1 = localization_loss(gate_values(gate_margins(smap_p, "predicted"), "sigmoid"), a_p, [True])[0]
            np.testing.assert_allclose(g1, g0, rtol=1e-10)


class TestManualGradcheck:
    """The manual rule's thresholds are a stop-gradient; the check holds them at theta0."""

    @pytest.mark.parametrize("gating", ["sigmoid", "softsign"])
    @pytest.mark.parametrize("aggregator", ["gated", "topk_eighth"])
    @pytest.mark.parametrize("reg_form", ["inner_product", "l1", "l2", "cosine"])
    @pytest.mark.parametrize("with_loc", [False, True])
    def test_matches_finite_differences(self, gating, aggregator, reg_form, with_loc):
        real = network.manual_thresholds
        assert check_total_loss(gating, aggregator, reg_form, with_loc, train_localization="manual") < 1e-8
        assert network.manual_thresholds is real

    def test_plain_differences_disagree(self):
        # without holding the thresholds, finite differences see the midpoint
        # move with theta, which the stop-gradient ignores
        params, clips = gradcheck._fd_instance(0, flagged=True)
        config = LossConfig(clas_weight=0.3, loc_weight=2.0)

        def objective(theta):
            return total_loss(params.with_flat(theta), clips, config, "sigmoid", "manual")[0].total

        _, grads = total_loss(params, clips, config, "sigmoid", "manual")
        assert relative_error(grads.flat, numerical_gradient(objective, params.flat)) > 1e-3

    def test_wrong_gate_gradient_is_caught(self, monkeypatch):
        real = network.gate_input_grad
        monkeypatch.setattr(network, "gate_input_grad", lambda x, v, kind, **_: 1.1 * real(x, v, kind))
        assert check_total_loss("sigmoid", "gated", "l2", True, train_localization="manual") > 1e-5

    def test_thresholds_restored_after_a_failure(self, monkeypatch):
        real = network.manual_thresholds

        def failing(*args, **kwargs):
            raise ValidationError("boom")

        monkeypatch.setattr(objectives, "total_loss", failing)
        with pytest.raises(ValidationError, match="boom"):
            check_total_loss("sigmoid", "gated", "l2", True, train_localization="manual")
        assert network.manual_thresholds is real


def accepted(rule: str, gating: str, aggregator: str) -> bool:
    try:
        TrainConfig(gating=gating, train_localization=rule, loss=LossConfig(aggregator=aggregator)).validate()
    except ValidationError:
        return False
    return True


class TestGradientSweep:
    def test_components_follow_the_choice_tuples(self, monkeypatch):
        """Every configuration training accepts is checked, under names derived
        from the choice tuples; the checks are stubbed, so nothing is differenced."""
        loss_calls = []
        monkeypatch.setattr(gradcheck, "check_network_backward", lambda seed, **_: 0.0)
        monkeypatch.setattr(gradcheck, "check_gate_gradient", lambda kind, seed: 0.0)
        monkeypatch.setattr(gradcheck, "check_total_loss", lambda *args, **kwargs: loss_calls.append((args, kwargs)) or 0.0)
        checks = gradcheck.run_gradient_checks(seed=3)

        gates = [g for g in network.GATING_KINDS if g not in network.SURROGATE_GATES]
        assert gates and "binarize" not in gates
        expected = [("network_backward", True), ("network_backward_dropout", True)]
        expected += [(f"gate_{g}", g in gates) for g in network.GATING_KINDS]
        calls = []
        for rule in objectives.TRAIN_LOCALIZATION:
            # "none" computes no gate: one gate stands for all, and the name leaves it out
            for gating in gates if rule != "none" else gates[:1]:
                for aggregator in [a for a in objectives.AGGREGATORS if accepted(rule, gating, a)]:
                    for reg_form in objectives.REG_FORMS:
                        for with_loc in (False, True):
                            words = [rule] * (rule != "predicted") + [gating] * (rule != "none")
                            words += [aggregator, reg_form, "loc" if with_loc else "noloc"]
                            expected.append(("_".join(["loss", *words]), True))
                            calls.append(((gating, aggregator, reg_form, with_loc, 3), {"train_localization": rule}))
        assert [(c.name, c.strict) for c in checks] == expected
        assert loss_calls == calls
        assert {call[1]["train_localization"] for call in calls} == set(objectives.TRAIN_LOCALIZATION)


# ---------------------------------------------------------------------------
# The objective as it was composed before it ran on whole batches: every clip
# on its own, with fresh arrays.  A test-only reference that total_loss must
# match bit for bit (as oracle_evaluate is for the evaluator).


def _ref_softmax(logits):
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def _ref_topk(column, k):
    return np.argsort(-column, kind="stable")[:k]


def _ref_unit(v):
    n = float(np.linalg.norm(v))
    return n, (v / n if n > 0 else np.zeros_like(v))


def _ref_regularizer(s, b, y, form):
    """One clip's regularizer value and its gradients (before the 1/B)."""
    t = s.shape[0]
    gt = np.flatnonzero(y > 0)
    sub = s[:, gt]
    amax = np.argmax(sub, axis=1)
    stilde, max_cls = sub[np.arange(t), amax], gt[amax]
    eps = objectives.EPS
    if form in ("inner_product", "cosine"):
        ns, s_dir = _ref_unit(stilde)
        nb, b_dir = _ref_unit(b)
        denom = (ns + eps) * (nb + eps)
        if form == "inner_product":
            margins = stilde * b + 1.0
            active = margins > 0
            value = float(margins[active].sum()) / denom
            d_stilde = (b * active) / denom - value * s_dir / (ns + eps)
            d_b = (stilde * active) / denom - value * b_dir / (nb + eps)
        else:
            value = float(stilde @ b) / denom
            d_stilde = b / denom - value * s_dir / (ns + eps)
            d_b = stilde / denom - value * b_dir / (nb + eps)
    elif form == "l1":
        diff = stilde - b
        active = np.abs(diff) < 1.0
        value = float(np.maximum(1.0 - np.abs(diff), 0.0).sum() / t)
        d_stilde = -np.sign(diff) * active / t
        d_b = np.sign(diff) * active / t
    else:
        diff = stilde - b
        active = diff * diff < 1.0
        value = float(np.maximum(1.0 - diff * diff, 0.0).sum() / t)
        d_stilde = -2.0 * diff * active / t
        d_b = 2.0 * diff * active / t
    return value, stilde, max_cls, d_stilde, d_b


def reference_total_loss(params, clips, config, gating, train_localization="predicted", dropout_masks=None, drop_rate=0.7):
    num_classes, batch = params.num_classes, len(clips)
    masks = dropout_masks if dropout_masks is not None else [None] * batch
    lam, eta = config.clas_weight, config.loc_weight
    eps = objectives.EPS
    flagged = [i for i, clip in enumerate(clips) if clip.fully_annotated]
    loc_active = train_localization != "none" and eta > 0 and bool(flagged)

    clas = reg = loc = 0.0
    upstream = []
    for i, (clip, mask) in enumerate(zip(clips, masks)):
        smap, cache = network.forward(params, clip.features, dropout_mask=mask, drop_rate=drop_rate)
        s, b = smap.scores, smap.thresholds
        t, c = s.shape
        gate = gate_grad = None
        if train_localization != "none":
            cut = b[:, None] if train_localization == "predicted" else network.manual_thresholds(s)[None, :]
            x = s - cut
            gate = gate_values(x, gating)
            gate_grad = network.gate_input_grad(x, gate, gating)
        if config.aggregator == "gated":
            pooled = (gate * s).sum(axis=0) / (gate.sum(axis=0) + eps)
        else:
            k = topk_count(t)
            pooled = np.array([s[_ref_topk(s[:, j], k), j].mean() for j in range(c)])
        probs = _ref_softmax(np.append(pooled, b.mean()))

        y = label_vector(clip.labels, num_classes)
        target = np.append(y, config.resolved_background_weight(num_classes))
        clas -= float(target @ np.log(np.maximum(probs, objectives.PROB_FLOOR)))
        d_logits = (target.sum() * probs - target) / batch
        d_shat, d_bhat = d_logits[:-1], float(d_logits[-1])

        value, stilde, max_cls, d_stilde, d_b_reg = _ref_regularizer(s, b, y, config.reg_form)
        reg += value
        ds_reg = np.zeros_like(s)
        np.add.at(ds_reg, (np.arange(t), max_cls), d_stilde / batch)
        db_reg = d_b_reg / batch

        loc_grad = None
        if loc_active and clip.fully_annotated:
            a = rasterize(clip.segments, clip.num_snippets, num_classes, clip.snippet_duration)
            diff = gate - a
            loc += float(np.abs(diff).mean())
            loc_grad = np.sign(diff) / (len(flagged) * diff.size)

        d_s = np.zeros_like(s)
        d_b = np.zeros_like(b)
        d_g = np.zeros_like(s)
        if lam > 0:
            if config.aggregator == "gated":
                denom = gate.sum(axis=0) + eps
                ds_pool = d_shat[None, :] * gate / denom[None, :]
                dg_pool = d_shat[None, :] * (s - pooled[None, :]) / denom[None, :]
            else:
                ds_pool, dg_pool = np.zeros_like(s), np.zeros_like(s)
                for j in range(c):
                    ds_pool[_ref_topk(s[:, j], k), j] = d_shat[j] / k
            d_s += lam * ds_pool
            d_b += lam * np.full(t, d_bhat / t)
            d_g += lam * dg_pool
        if lam < 1:
            d_s += (1.0 - lam) * ds_reg
            d_b += (1.0 - lam) * db_reg
        if loc_grad is not None:
            d_g += eta * loc_grad
        if gate is not None and d_g.any():
            d_x = d_g * gate_grad
            d_s += d_x
            if train_localization == "predicted":
                d_b -= d_x.sum(axis=1)
        upstream.append((cache, d_s, d_b))

    total = np.zeros_like(params.flat)
    for cache, d_s, d_b in upstream:
        total += network.backward(cache, d_s, d_b).flat
    clas, reg = clas / batch, reg / batch
    loc = loc / len(flagged) if loc_active else 0.0
    return objectives.LossBreakdown(clas, reg, loc, lam * clas + (1.0 - lam) * reg + eta * loc), total


RAGGED_LENGTHS = (3, 60, 7, 71, 1, 64, 57)  # k = 1 below 9 snippets, 8 in 57-64, 9 above 64


def ragged_batch(rng, lengths, num_classes=5, feature_dim=3, flagged=True):
    """Clips of the given lengths with 1-3 labels each; every third is fully annotated if ``flagged``."""
    clips = []
    for i, t in enumerate(lengths):
        labels = sorted(rng.choice(num_classes, size=int(rng.integers(1, min(3, num_classes) + 1)), replace=False).tolist())
        annotated = flagged and i % 3 == 0
        segments = tuple(GroundTruthSegment(c, 0.25 * t * j / 3, 0.25 * t * (j / 3 + 2)) for j, c in enumerate(labels))
        clips.append(
            VideoSample(
                id=f"clip{i}",
                features=rng.normal(size=(t, feature_dim)),
                labels=frozenset(labels),
                snippet_duration=0.5,
                segments=segments if annotated else None,
                fully_annotated=annotated,
            )
        )
    return clips


def assert_matches_reference(params, clips, config, gating, rule, masks, drop_rate=0.7, workspace=None):
    # total_loss takes the batch's one (N, H) mask, the reference one mask per clip
    batch_mask = None if masks is None else np.concatenate(masks)
    breakdown, grads = total_loss(params, clips, config, gating, rule, batch_mask, drop_rate)
    ref_breakdown, ref_grads = reference_total_loss(params, clips, config, gating, rule, masks, drop_rate)
    assert np.array_equal(list(breakdown.as_dict().values()), list(ref_breakdown.as_dict().values()))
    assert np.array_equal(grads.flat, ref_grads)
    if workspace is not None:
        # a reused workspace, given the masks one per clip, gives the bytes of buffers allocated for the batch
        ws_breakdown, ws_grads = total_loss(params, clips, config, gating, rule, masks, drop_rate, workspace)
        assert np.shares_memory(ws_grads.flat, workspace.grads.flat)
        assert np.array(list(ws_breakdown.as_dict().values())).tobytes() == np.array(list(breakdown.as_dict().values())).tobytes()
        assert ws_grads.flat.tobytes() == grads.flat.tobytes()


def stale_workspace(params, clips, clip_rows):
    """A workspace larger than the batches it serves, every buffer filled with NaN."""
    ws = objectives.Workspace(params, clips, clip_rows)
    for buffers in (ws.forward, ws.backward):
        for array in vars(buffers).values():
            array.fill(np.nan)
    ws.grads.flat.fill(np.nan)
    return ws


# every valid (gating, aggregator, train_localization, reg_form, with_loc); "none" needs topk_eighth
OBJECTIVE_VARIANTS = [
    v
    for v in itertools.product(
        network.GATING_KINDS, objectives.AGGREGATORS, objectives.TRAIN_LOCALIZATION, objectives.REG_FORMS, (False, True)
    )
    if not (v[2] == "none" and v[1] == "gated")
]


class TestBatchedObjectiveMatchesPerClipReference:
    @pytest.mark.parametrize("gating, aggregator, rule, reg_form, with_loc", OBJECTIVE_VARIANTS)
    def test_bit_identical(self, gating, aggregator, rule, reg_form, with_loc):
        rng = np.random.default_rng(20)
        hidden = 6
        params = jittered_params(rng, 3, hidden, 5)
        params.flat *= 2.0  # spread the scores so gates and hinges take every branch
        clips = ragged_batch(rng, RAGGED_LENGTHS, flagged=with_loc)
        config = LossConfig(clas_weight=0.3, loc_weight=2.0 if with_loc else 0.0, reg_form=reg_form, aggregator=aggregator)
        keep = [rng.uniform(size=(clip.num_snippets, hidden)) >= 0.5 for clip in clips]
        workspace = stale_workspace(params, len(clips) + 1, max(RAGGED_LENGTHS) + 2)
        for masks in (None, keep, [m.astype(np.float64) for m in keep]):
            assert_matches_reference(params, clips, config, gating, rule, masks, drop_rate=0.5, workspace=workspace)

    @pytest.mark.parametrize("clas_weight", [0.0, 1.0])
    def test_bit_identical_at_the_weight_ends(self, clas_weight):
        rng = np.random.default_rng(21)
        params = jittered_params(rng, 3, 6, 5)
        clips = ragged_batch(rng, RAGGED_LENGTHS)
        for aggregator in objectives.AGGREGATORS:
            config = LossConfig(clas_weight=clas_weight, loc_weight=1.5, aggregator=aggregator)
            assert_matches_reference(params, clips, config, "sigmoid", "predicted", None)

    def test_manual_thresholds_asked_once_per_clip_in_order(self, monkeypatch):
        rng = np.random.default_rng(22)
        params = jittered_params(rng, 3, 6, 5)
        clips = ragged_batch(rng, (4, 9, 2))
        seen = []
        real = network.manual_thresholds

        def spy(scores):
            seen.append(scores.shape[0])
            return real(scores)

        monkeypatch.setattr(network, "manual_thresholds", spy)
        total_loss(params, clips, LossConfig(), "sigmoid", "manual")
        assert seen == [4, 9, 2]

    def test_workspace_must_fit_the_batch(self):
        rng = np.random.default_rng(25)
        params = jittered_params(rng, 3, 6, 5)
        clips = ragged_batch(rng, (4, 9, 2))
        for clips_held, rows in ((2, 9), (3, 8)):
            with pytest.raises(ValidationError, match="workspace"):
                total_loss(params, clips, LossConfig(), "sigmoid", workspace=objectives.Workspace(params, clips_held, rows))
        other = jittered_params(rng, 3, 7, 5)
        with pytest.raises(ValidationError, match="workspace"):
            total_loss(params, clips, LossConfig(), "sigmoid", workspace=objectives.Workspace(other, 3, 9))

    def test_clip_lengths_must_cover_the_rows(self):
        smap = random_scoremap(np.random.default_rng(23), t=5, c=2)
        with pytest.raises(ValidationError):
            pool_and_classify(smap, None, "topk_eighth", lengths=(2, 2))
        with pytest.raises(ValidationError):
            threshold_regularization_loss(smap, np.ones((2, 2)), lengths=(5, 0))

    def test_batch_rows_equal_clips_alone(self):
        # pooling a batch gives each clip the bytes it gets alone
        rng = np.random.default_rng(24)
        maps = [random_scoremap(rng, t=t, c=3, scale=2.0) for t in (5, 64, 1)]
        batch = ScoreMap(np.concatenate([m.scores for m in maps]), np.concatenate([m.thresholds for m in maps]))
        for aggregator in objectives.AGGREGATORS:
            gate = gate_values(gate_margins(batch, "predicted"), "sigmoid")
            together = pool_and_classify(batch, gate, aggregator, lengths=(5, 64, 1))
            for i, m in enumerate(maps):
                alone = pool_and_classify(m, gate_values(gate_margins(m, "predicted"), "sigmoid"), aggregator)
                assert together.probs[i].tobytes() == alone.probs[0].tobytes()
