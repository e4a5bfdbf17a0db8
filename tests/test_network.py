import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttcloc import network
from ttcloc.errors import ValidationError
from ttcloc.gradcheck import check_gate_gradient, check_network_backward
from ttcloc.network import (
    BackwardBuffers,
    ForwardBuffers,
    NetworkParams,
    ScoreMap,
    backward,
    forward,
    gate_margins,
    gate_values,
    init_params,
    load_params,
    save_params,
)


def write_checkpoint(path, arrays):
    """A .ttck file holding exactly ``arrays``, whatever their shapes."""
    chunks = [b"TTCK", struct.pack("<II", 1, len(arrays))]
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        chunks += [struct.pack("<H", len(name)), name.encode(), struct.pack("<B", arr.ndim)]
        chunks += [struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def tiny_params(seed=0, d=2, h=4, c=2):
    return init_params(np.random.default_rng(seed), d, h, c)


class TestParamsLayout:
    def test_arrays_are_views_into_flat(self):
        params = tiny_params(d=2, h=4, c=2)
        assert params.flat.size == 2 * 4 + 4 + 3 * 4 * 4 + 4 + 4 * 3 + 3
        assert all(np.shares_memory(arr, params.flat) for arr in params.as_dict().values())
        params.flat[:] = 0.0
        assert not params.w1.any()
        params.conv_kernel[1] += 1.0
        assert params.flat.sum() == 16.0

    def test_constructor_copies_into_layout_order(self):
        arrays = tiny_params().as_dict()
        params = NetworkParams(**arrays)
        assert params.flat.tobytes() == np.concatenate([a.ravel() for a in arrays.values()]).tobytes()
        assert not any(np.shares_memory(params.flat, a) for a in arrays.values())

    def test_with_flat_shares_the_given_buffer(self):
        params = tiny_params()
        theta = params.flat.copy()
        view = params.with_flat(theta)
        view.b2[:] = 5.0
        assert theta[-3:].tolist() == [5.0, 5.0, 5.0]
        assert not params.b2.any()
        with pytest.raises(ValidationError):
            params.with_flat(theta[:-1])

    def test_init_draws_w1_then_the_kernel_then_w2(self):
        # this order fixes the bytes of every checkpoint
        d, h, c = 3, 5, 2
        rng = np.random.default_rng(3)
        expected = [rng.uniform(-np.sqrt(6.0 / (i + o)), np.sqrt(6.0 / (i + o)), size=shape)
                    for shape, i, o in (((d, h), d, h), ((3, h, h), 3 * h, 3 * h), ((h, c + 1), h, c + 1))]
        params = init_params(np.random.default_rng(3), d, h, c)
        assert [params.w1.tobytes(), params.conv_kernel.tobytes(), params.w2.tobytes()] == [e.tobytes() for e in expected]
        assert not (params.b1.any() or params.conv_bias.any() or params.b2.any())

    def test_refused_size_draws_nothing(self):
        # the 8.53 PiB vector is refused before the 160 MB w1 is drawn
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(MemoryError):
            init_params(rng, 1, 2 * 10**7, 2)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "name, shape",
        [("w2", (5, 3)), ("b2", (4,)), ("conv_kernel", (3, 4, 5)), ("b1", (3,)), ("w1", (8,))],
    )
    def test_inconsistent_shapes_rejected(self, name, shape):
        arrays = tiny_params().as_dict()
        arrays[name] = np.zeros(shape)
        with pytest.raises(ValidationError, match="shape"):
            NetworkParams(**arrays)


class TestForward:
    def test_zero_params_give_zero_outputs(self):
        params = tiny_params()
        params.flat[:] = 0.0
        smap, _ = forward(params, np.random.default_rng(1).normal(size=(5, 2)))
        assert not smap.scores.any()
        assert not smap.thresholds.any()

    def test_single_snippet_sees_zero_padding(self):
        params = tiny_params()
        smap, _ = forward(params, np.random.default_rng(2).normal(size=(1, 2)))
        assert smap.scores.shape == (1, 2)
        assert smap.thresholds.shape == (1,)
        assert np.all(np.isfinite(smap.scores))

    def test_deterministic(self):
        params = tiny_params()
        x = np.random.default_rng(3).normal(size=(6, 2))
        a, _ = forward(params, x)
        b, _ = forward(params, x)
        assert a.scores.tobytes() == b.scores.tobytes()
        assert a.thresholds.tobytes() == b.thresholds.tobytes()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValidationError):
            forward(tiny_params(), np.zeros((4, 3)))

    def test_conv_identity_kernel_doubles_constant_rows(self):
        # Kernel summing the three taps as identity maps a constant-in-time
        # h1 to 3*h1 at interior snippets; the zero padding removes exactly
        # one tap's worth at each boundary snippet, each clip of a batch at its own.
        eye = np.eye(3)
        params = NetworkParams(eye, np.zeros(3), np.stack([eye, eye, eye]), np.zeros(3), eye, np.zeros(3))
        h1 = np.tile(np.array([1.0, 2.0, 3.0]), (7, 1))
        smap, _ = forward(params, h1, lengths=(5, 2))  # linear-1 and the head are identities here
        conv = np.column_stack([smap.scores, smap.thresholds]) - h1  # less the residual path
        np.testing.assert_allclose(conv[1:4], 3.0 * h1[1:4])
        np.testing.assert_allclose(conv[[0, 4, 5, 6]], 2.0 * h1[[0, 4, 5, 6]])

    def test_dropout_mask_scales_surviving_units(self):
        params = tiny_params()
        x = np.random.default_rng(4).normal(size=(3, 2))
        t, h = 3, params.hidden_dim
        full_mask = np.ones((t, h))
        smap_scaled, _ = forward(params, x, dropout_mask=full_mask, drop_rate=0.5)
        smap_plain, _ = forward(params, x)
        # all-ones mask with p=0.5 doubles activations entering the head
        np.testing.assert_allclose(
            smap_scaled.scores - params.b2[:2], 2.0 * (smap_plain.scores - params.b2[:2]), atol=1e-12
        )


class TestBackward:
    def test_zero_upstream_gives_zero_bundle(self):
        params = tiny_params()
        _, cache = forward(params, np.random.default_rng(5).normal(size=(4, 2)))
        grads = backward(cache, np.zeros((4, 2)), np.zeros(4))
        assert not grads.flat.any()

    def test_matches_finite_differences(self):
        assert check_network_backward(seed=0) < 1e-7
        assert check_network_backward(seed=1, t=5, d=3, h=4, c=3) < 1e-7

    def test_matches_finite_differences_with_dropout(self):
        assert check_network_backward(seed=2, t=4, dropout=True) < 1e-7

    def test_boolean_mask_gives_the_bytes_of_a_float_mask(self):
        rng = np.random.default_rng(9)
        params = init_params(rng, 3, 6, 2)
        x = rng.normal(size=(7, 3))
        mask = rng.uniform(size=(7, 6)) >= 0.5
        d_s, d_b = rng.normal(size=(7, 2)), rng.normal(size=7)  # signed, so a dropped unit gets -0.0
        outputs = []
        for m in (mask, mask.astype(np.float64)):
            smap, cache = forward(params, x, dropout_mask=m, drop_rate=0.5)
            outputs.append((smap.scores.tobytes(), smap.thresholds.tobytes(), backward(cache, d_s, d_b).flat.tobytes()))
        assert outputs[0] == outputs[1]

    def test_backward_leaves_the_cache_untouched(self):
        # backward works in place on its own buffers only: the cache keeps its
        # bytes, and a second backward on it gives the first one's bytes
        rng = np.random.default_rng(10)
        params = init_params(rng, 3, 6, 2)
        params.conv_bias += rng.normal(scale=0.1, size=6)
        x = rng.normal(size=(7, 3))
        d_s, d_b = rng.normal(size=(7, 2)), rng.normal(size=7)
        for mask in (None, rng.uniform(size=(7, 6)) >= 0.5):
            _, cache = forward(params, x, dropout_mask=mask, drop_rate=0.5)
            arrays = {name: value for name, value in vars(cache).items() if isinstance(value, np.ndarray)}
            before = {name: value.tobytes() for name, value in arrays.items()}
            first = backward(cache, d_s, d_b).flat.tobytes()
            assert backward(cache, d_s, d_b).flat.tobytes() == first
            assert {name: value.tobytes() for name, value in arrays.items()} == before
            assert cache.h1_padded[[0, -1]].tobytes() == np.zeros((2, 6)).tobytes()

    def test_forward_gives_the_bytes_of_the_plain_formula(self):
        rng = np.random.default_rng(11)
        params = init_params(rng, 3, 6, 2)
        params.flat += rng.normal(scale=0.1, size=params.flat.size)
        x = rng.normal(size=(9, 3))
        mask = rng.uniform(size=(9, 6)) >= 0.5
        h1 = np.maximum(x @ params.w1 + params.b1, 0.0)
        padded = np.zeros((11, 6))
        padded[1:10] = h1
        conv = padded[0:9] @ params.conv_kernel[0] + padded[1:10] @ params.conv_kernel[1]
        conv = conv + padded[2:11] @ params.conv_kernel[2] + params.conv_bias
        h3 = np.maximum(h1 + conv, 0.0) * mask * 2.0
        out = h3 @ params.w2 + params.b2
        smap, _ = forward(params, x, dropout_mask=mask, drop_rate=0.5)
        assert smap.scores.tobytes() == np.ascontiguousarray(out[:, :2]).tobytes()
        assert smap.thresholds.tobytes() == np.ascontiguousarray(out[:, 2]).tobytes()

    def test_zero_conv_kernel_reduces_to_fc_backward(self):
        params = tiny_params()
        params.conv_kernel[:] = 0.0
        params.conv_bias[:] = 0.0
        x = np.random.default_rng(6).normal(size=(4, 2))
        d_s = np.random.default_rng(7).normal(size=(4, 2))
        d_b = np.random.default_rng(8).normal(size=(4,))
        _, cache = forward(params, x)
        grads = backward(cache, d_s, d_b)

        # reference: plain two-layer net relu(x@w1+b1) @ w2 + b2 (the
        # residual relu(relu(z1)) is idempotent so h2 == h1 here)
        z1 = x @ params.w1 + params.b1
        h1 = np.maximum(z1, 0)
        d_out = np.concatenate([d_s, d_b[:, None]], axis=1)
        d_h1 = (d_out @ params.w2.T) * (h1 > 0)
        d_z1 = d_h1 * (z1 > 0)
        np.testing.assert_allclose(grads.w1, x.T @ d_z1, atol=1e-12)
        np.testing.assert_allclose(grads.w2, h1.T @ d_out, atol=1e-12)


@st.composite
def ragged_batches(draw):
    """Small (D, H, C), clip lengths of 1 row and more, a seed for the
    arrays, and whether dropout is on."""
    dims = draw(st.integers(1, 4)), draw(st.sampled_from([1, 3, 8, 33, 40])), draw(st.integers(1, 4))
    lengths = tuple(draw(st.lists(st.integers(1, 12) | st.just(1), min_size=1, max_size=6)))
    return dims, lengths, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(ragged_batches())
def test_a_batch_gives_the_bytes_of_its_clips_alone(case):
    # forward on a batch: the bytes of one-clip passes laid end to end;
    # backward: the bytes of one-clip gradients summed in clip order; and
    # the cache keeps its bytes, in stale buffers larger than the batch
    (d, h, c), lengths, seed, dropout = case
    rng = np.random.default_rng(seed)
    params = init_params(rng, d, h, c)
    params.flat += rng.normal(scale=0.1, size=params.flat.size)
    n = sum(lengths)
    x = rng.normal(size=(n, d)).astype(np.float32)
    mask = rng.uniform(size=(n, h)) >= 0.5 if dropout else None
    d_s, d_b = rng.normal(size=(n, c)), rng.normal(size=n)
    buffers = ForwardBuffers.empty(params, n + 3, len(lengths) + 1)
    scratch = BackwardBuffers.empty(params, n + 3, max(lengths) + 1, d_pre=buffers.scratch)
    for array in (*vars(buffers).values(), *vars(scratch).values()):
        array.fill(np.nan)
    smap, cache = forward(params, x, mask, 0.5, out=buffers, lengths=lengths)
    cached = {name: value.tobytes() for name, value in vars(cache).items() if isinstance(value, np.ndarray)}
    grads = backward(cache, d_s, d_b, scratch=scratch).flat
    assert {name: value.tobytes() for name, value in vars(cache).items() if isinstance(value, np.ndarray)} == cached

    total = None
    for a, z in network.clip_layout(lengths, n)[1]:
        alone, clip_cache = forward(params, x[a:z], None if mask is None else mask[a:z], 0.5)
        assert alone.scores.tobytes() == smap.scores[a:z].tobytes()
        assert alone.thresholds.tobytes() == smap.thresholds[a:z].tobytes()
        part = backward(clip_cache, d_s[a:z], d_b[a:z]).flat
        if total is None:
            total = part.copy()
        else:
            total += part
    assert grads.tobytes() == total.tobytes()


class TestGating:
    def test_gate_is_half_at_equal_scores(self):
        smap = ScoreMap(scores=np.full((3, 2), 1.7), thresholds=np.full(3, 1.7))
        for kind in ("sigmoid", "softsign"):
            np.testing.assert_allclose(gate_values(gate_margins(smap, "predicted"), kind), 0.5)

    def test_sigmoid_at_unit_margin(self):
        # 1 / (1 + e^-1), evaluated to full double precision
        smap = ScoreMap(scores=np.array([[1.0]]), thresholds=np.array([0.0]))
        gate = gate_values(gate_margins(smap, "predicted"), "sigmoid")
        np.testing.assert_allclose(gate, 0.7310585786300049, rtol=0, atol=1e-15)

    def test_sigmoid_gives_the_bytes_of_the_split_formula(self):
        # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, as
        # boolean-indexed halves
        x = np.concatenate([np.random.default_rng(12).normal(scale=8.0, size=500), [0.0, -0.0, 750.0, -750.0]])
        split = np.empty_like(x)
        pos = x >= 0
        split[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        split[~pos] = ex / (1.0 + ex)
        assert network.sigmoid(x).tobytes() == split.tobytes()

    def test_binarize_forward_and_surrogate(self):
        x = np.array([-0.3, 0.0, 0.2])
        vals = network.gate_values(x, "binarize")
        np.testing.assert_array_equal(vals, [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(network.gate_input_grad(x, vals, "binarize"), 1.0)

    def test_smooth_gates_match_finite_differences(self):
        assert check_gate_gradient("sigmoid") < 1e-9
        assert check_gate_gradient("softsign") < 1e-9

    def test_gate_ranges(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-30, 30, size=2000)
        for kind in ("sigmoid", "softsign"):
            g = network.gate_values(x, kind)
            assert np.all(g > 0) and np.all(g < 1)
        g = network.gate_values(x, "binarize")
        assert set(np.unique(g)) <= {0.0, 1.0}

    def test_shift_equivariance(self):
        rng = np.random.default_rng(10)
        s = rng.normal(size=(6, 3))
        b = rng.normal(size=6)
        for kind in ("sigmoid", "softsign", "binarize"):
            base = gate_values(gate_margins(ScoreMap(s, b), "predicted"), kind)
            shifted = gate_values(gate_margins(ScoreMap(s + 2.5, b + 2.5), "predicted"), kind)
            np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            network.gate_values(np.zeros(2), "tanh")

    def test_margins_by_rule(self):
        smap = ScoreMap(scores=np.array([[1.0, 4.0], [3.0, 0.0]]), thresholds=np.array([2.0, -1.0]))
        np.testing.assert_array_equal(gate_margins(smap, "predicted"), [[-1.0, 2.0], [4.0, 1.0]])
        # manual thresholds: per-class midpoints 2.0 and 2.0
        np.testing.assert_array_equal(gate_margins(smap, "manual"), [[-1.0, 2.0], [1.0, -2.0]])
        with pytest.raises(ValidationError):
            gate_margins(smap, "none")


class TestInit:
    def test_deterministic_given_seed(self):
        a = tiny_params(seed=42)
        b = tiny_params(seed=42)
        assert a.flat.tobytes() == b.flat.tobytes()

    def test_biases_zero(self):
        p = tiny_params()
        assert not p.b1.any() and not p.b2.any() and not p.conv_bias.any()

    def test_w1_spread_matches_uniform_moment(self):
        # std of U(-a, a) is a / sqrt(3)
        p = init_params(np.random.default_rng(0), 64, 2048, 4)
        a = np.sqrt(6.0 / (64 + 2048))
        assert abs(p.w1.std() - a / np.sqrt(3)) < 0.05 * (a / np.sqrt(3))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = tiny_params(seed=11)
        path = str(tmp_path / "params.bin")
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        write_checkpoint(path, params.as_dict())
        assert load_params(path).flat.tobytes() == params.flat.tobytes()

    def test_byte_identical_across_saves(self, tmp_path):
        params = tiny_params(seed=12)
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_params(params, p1)
        save_params(params, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "params.bin")
        save_params(tiny_params(), path)
        blob = open(path, "rb").read()
        for cut in (10, 13, 20, len(blob) - 8):
            with open(path, "wb") as fh:
                fh.write(blob[:cut])
            with pytest.raises(ValidationError, match="truncated"):
                load_params(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "params.bin")
        save_params(tiny_params(), path)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(ValidationError, match="trailing"):
            load_params(path)

    def test_head_rows_must_match_hidden_dim(self, tmp_path):
        arrays = tiny_params(h=4, c=2).as_dict()
        arrays["w2"] = np.zeros((5, 3))
        path = str(tmp_path / "params.bin")
        write_checkpoint(path, arrays)
        with pytest.raises(ValidationError, match="w2"):
            load_params(path)

    def test_missing_array_rejected(self, tmp_path):
        arrays = tiny_params().as_dict()
        del arrays["conv_bias"]
        path = str(tmp_path / "params.bin")
        write_checkpoint(path, arrays)
        with pytest.raises(ValidationError, match="conv_bias"):
            load_params(path)

    def test_repeated_array_rejected(self, tmp_path):
        # a second w1 after the full set must not silently replace the first
        params = tiny_params()
        path = str(tmp_path / "params.bin")
        save_params(params, path)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[8:12] = struct.pack("<I", 7)
        w1 = params.w1
        blob += struct.pack("<H", 2) + b"w1" + struct.pack("<BII", 2, *w1.shape) + np.zeros_like(w1).tobytes()
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(ValidationError, match="twice"):
            load_params(path)

    def test_more_dimensions_than_numpy_allows_rejected(self, tmp_path):
        # an empty array of 65 dimensions passes the size check, but NumPy cannot shape it
        path = tmp_path / "params.bin"
        path.write_bytes(b"TTCK" + struct.pack("<IIH", 1, 1, 2) + b"w1" + struct.pack("<B65I", 65, *[0] * 65))
        with pytest.raises(ValidationError, match="corrupt"):
            load_params(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOPElol")
        with pytest.raises(ValidationError):
            load_params(path)
