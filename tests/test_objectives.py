import numpy as np
import pytest

from ttcloc.data import VideoSample
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
        np.testing.assert_allclose(vp.pooled_scores, smap.scores.mean(axis=0), rtol=1e-7)

    def test_zero_scores_give_uniform_probs(self):
        smap = ScoreMap(scores=np.zeros((4, 3)), thresholds=np.zeros(4))
        vp = pool_and_classify(smap, gate_values(gate_margins(smap, "predicted"), "sigmoid"), "gated")
        np.testing.assert_allclose(vp.probs, 1.0 / 4.0)

    def test_binary_gate_selects_snippets(self):
        smap = ScoreMap(scores=np.array([[2.0], [0.0]]), thresholds=np.zeros(2))
        gate = np.array([[1.0], [0.0]])
        vp = pool_and_classify(smap, gate, "gated")
        np.testing.assert_allclose(vp.pooled_scores, [2.0], rtol=1e-7)

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
        np.testing.assert_allclose(vp.pooled_scores, [(15 + 14) / 2])

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
                return float(d_pooled @ vp.pooled_scores + d_bhat * vp.pooled_threshold)

            pooled = pool_and_classify(smap, gate, aggregator).pooled_scores
            d_s, _, d_b = pool_backward(smap, gate, aggregator, pooled, d_pooled, d_bhat)
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
            return float(d_pooled @ vp.pooled_scores)

        pooled = pool_and_classify(smap, gate, "gated").pooled_scores
        _, d_g, _ = pool_backward(smap, gate, "gated", pooled, d_pooled, 0.0)
        numeric = numerical_gradient(value, gate.ravel())
        assert relative_error(d_g.ravel(), numeric) < 1e-8


class TestClassificationLoss:
    def test_uniform_probs_hand_value(self):
        vp = VideoProbabilities(pooled_scores=np.zeros(2), pooled_threshold=0.0, probs=np.full(3, 1 / 3))
        loss, _ = classification_loss([vp], [np.array([1.0, 0.0])], background_weight=0.5)
        np.testing.assert_allclose(loss, 1.5 * np.log(3.0), rtol=1e-12)

    def test_confident_prediction_drives_loss_to_zero(self):
        p = np.array([1.0 - 2e-12, 1e-12, 1e-12])
        vp = VideoProbabilities(pooled_scores=np.zeros(2), pooled_threshold=0.0, probs=p)
        loss, _ = classification_loss([vp], [np.array([1.0, 0.0])], background_weight=1e-9)
        assert 0 <= loss < 1e-7

    def test_always_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c = int(rng.integers(1, 5))
            smap = random_scoremap(rng, t=4, c=c, scale=3.0)
            vp = pool_and_classify(smap, gate_values(gate_margins(smap, "predicted"), "sigmoid"), "gated")
            y = label_vector({int(rng.integers(0, c))}, c)
            loss, _ = classification_loss([vp], [y], background_weight=1.0 / c)
            assert loss >= 0

    def test_gradient_matches_fd_on_pooled_logits(self):
        rng = np.random.default_rng(5)
        c = 3
        y = label_vector({0, 2}, c)
        logits0 = rng.normal(size=c + 1)

        def value(logits):
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            vp = VideoProbabilities(pooled_scores=logits[:c], pooled_threshold=float(logits[c]), probs=probs)
            loss, _ = classification_loss([vp], [y], background_weight=0.25)
            return loss

        probs = np.exp(logits0 - logits0.max())
        probs /= probs.sum()
        vp = VideoProbabilities(pooled_scores=logits0[:c], pooled_threshold=float(logits0[c]), probs=probs)
        _, ((d_shat, d_bhat),) = classification_loss([vp], [y], background_weight=0.25)
        numeric = numerical_gradient(value, logits0)
        analytic = np.append(d_shat, d_bhat)
        assert relative_error(analytic, numeric) < 1e-6


class TestThresholdRegularization:
    def test_inactive_hinge_is_zero(self):
        # stilde * b = -2 everywhere, margin already beyond the hinge
        smap = ScoreMap(scores=np.full((3, 1), 2.0), thresholds=np.full(3, -1.0))
        loss, _ = threshold_regularization_loss([smap], [np.array([1.0])])
        assert loss == 0.0

    def test_hand_value_all_ones(self):
        smap = ScoreMap(scores=np.ones((2, 1)), thresholds=np.ones(2))
        loss, _ = threshold_regularization_loss([smap], [np.array([1.0])])
        np.testing.assert_allclose(loss, 2.0, rtol=1e-6)

    def test_l1_saturates_beyond_unit_distance(self):
        smap = ScoreMap(scores=np.full((4, 1), 0.2), thresholds=np.full(4, -4.0))
        loss, _ = threshold_regularization_loss([smap], [np.array([1.0])], form="l1")
        assert loss == 0.0

    def test_l2_at_zero_distance(self):
        smap = ScoreMap(scores=np.full((5, 1), 0.7), thresholds=np.full(5, 0.7))
        loss, _ = threshold_regularization_loss([smap], [np.array([1.0])], form="l2")
        np.testing.assert_allclose(loss, 1.0)

    def test_cosine_antiparallel(self):
        rng = np.random.default_rng(6)
        s = rng.normal(size=(4, 1))
        smap = ScoreMap(scores=s, thresholds=-s[:, 0])
        loss, _ = threshold_regularization_loss([smap], [np.array([1.0])], form="cosine")
        np.testing.assert_allclose(loss, -1.0, atol=1e-6)

    def test_hinge_forms_nonnegative(self):
        rng = np.random.default_rng(7)
        for form in ("inner_product", "l1", "l2"):
            for _ in range(50):
                smap = random_scoremap(rng, t=4, c=2, scale=2.0)
                loss, _ = threshold_regularization_loss([smap], [label_vector({0}, 2)], form=form)
                assert loss >= 0

    @pytest.mark.parametrize("form", ["inner_product", "l1", "l2", "cosine"])
    def test_gradient_matches_fd(self, form):
        rng = np.random.default_rng(8)
        t, c = 5, 3
        y = label_vector({0, 2}, c)
        smap = random_scoremap(rng, t=t, c=c)

        def value(flat):
            sm = ScoreMap(flat[: t * c].reshape(t, c), flat[t * c :])
            loss, _ = threshold_regularization_loss([sm], [y], form=form)
            return loss

        _, ((d_s, d_b),) = threshold_regularization_loss([smap], [y], form=form)
        flat0 = np.concatenate([smap.scores.ravel(), smap.thresholds])
        numeric = numerical_gradient(value, flat0)
        assert relative_error(np.concatenate([d_s.ravel(), d_b]), numeric) < 1e-6


class TestLocalizationLoss:
    def test_exact_match_is_zero(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        gate = a.copy()
        loss, grads = localization_loss([gate], [a], [True])
        assert loss == 0.0
        assert not grads[0].any()

    def test_half_gate_on_binary_annotation(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        gate = np.full((2, 2), 0.5)
        loss, _ = localization_loss([gate], [a], [True])
        np.testing.assert_allclose(loss, 0.5)

    def test_no_flagged_samples(self):
        gate = np.full((2, 2), 0.5)
        loss, grads = localization_loss([gate], [None], [False])
        assert loss == 0.0
        assert grads == [None]

    def test_range_bounded_by_one(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            g = rng.uniform(size=(3, 2))
            a = (rng.uniform(size=(3, 2)) > 0.5).astype(float)
            loss, _ = localization_loss([g], [a], [True])
            assert 0.0 <= loss <= 1.0

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(10)
        a = (rng.uniform(size=(4, 2)) > 0.5).astype(float)
        g0 = rng.uniform(0.05, 0.95, size=(4, 2))

        def value(flat):
            loss, _ = localization_loss([flat.reshape(4, 2)], [a], [True])
            return loss

        _, (d_g,) = localization_loss([g0], [a], [True])
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
                return classification_loss([vp], [y], background_weight=0.5)[0]

            np.testing.assert_allclose(clas(shifted), clas(smap), atol=1e-9)

            a = (rng.uniform(size=(6, 2)) > 0.5).astype(float)

            def loc(sm):
                return localization_loss([gate_values(gate_margins(sm, "predicted"), "sigmoid")], [a], [True])[0]

            np.testing.assert_allclose(loc(shifted), loc(smap), atol=1e-9)

            r0 = threshold_regularization_loss([smap], [y])[0]
            r1 = threshold_regularization_loss([shifted], [y])[0]
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
            l0 = classification_loss([vp], [y], 0.3)[0]
            l1 = classification_loss([vp_p], [y_p], 0.3)[0]
            np.testing.assert_allclose(l1, l0, rtol=1e-10)

            for form in ("inner_product", "l1", "l2", "cosine"):
                r0 = threshold_regularization_loss([smap], [y], form)[0]
                r1 = threshold_regularization_loss([smap_p], [y_p], form)[0]
                np.testing.assert_allclose(r1, r0, rtol=1e-10)

            g0 = localization_loss([gate_values(gate_margins(smap, "predicted"), "sigmoid")], [a], [True])[0]
            g1 = localization_loss([gate_values(gate_margins(smap_p, "predicted"), "sigmoid")], [a_p], [True])[0]
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
        monkeypatch.setattr(network, "gate_input_grad", lambda x, v, kind: 1.1 * real(x, v, kind))
        assert check_total_loss("sigmoid", "gated", "l2", True, train_localization="manual") > 1e-5

    def test_thresholds_restored_after_a_failure(self, monkeypatch):
        real = network.manual_thresholds

        def failing(*args, **kwargs):
            raise ValidationError("boom")

        monkeypatch.setattr(objectives, "total_loss", failing)
        with pytest.raises(ValidationError, match="boom"):
            check_total_loss("sigmoid", "gated", "l2", True, train_localization="manual")
        assert network.manual_thresholds is real
