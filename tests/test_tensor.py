"""Forward-kernel contracts: spec examples, naive-loop oracles, purity."""

import math

import numpy as np
import pytest

import oracles
from ivgf import tensor
from ivgf.errors import ConfigError, DimensionError
from ivgf.pipeline import cross_entropy
from ivgf.tensor import (
    Tensor,
    backward,
    adaptive_pool,
    attention,
    concat,
    conv2d,
    feature_map,
    layer_norm,
    linear,
    narrow,
    relu,
    reshape,
    sigmoid,
    softmax_rows,
    tokens,
    upsample_nearest,
)

RNG = np.random.default_rng


class TestConv2d:
    def test_identity_kernel(self):
        rng = RNG(0)
        x = Tensor(rng.uniform(-1, 1, (5, 4, 4)))
        w = np.zeros((5, 5, 1, 1))
        w[np.arange(5), np.arange(5), 0, 0] = 1.0
        out = conv2d(x, Tensor(w), Tensor(np.zeros(5)))
        assert np.array_equal(out.data, x.data)

    def test_zero_input_gives_bias(self):
        rng = RNG(1)
        w = Tensor(rng.uniform(-1, 1, (4, 2, 3, 3)))
        b = rng.uniform(-1, 1, 4)
        out = conv2d(Tensor(np.zeros((2, 5, 5))), w, Tensor(b), padding=1)
        for c in range(4):
            assert np.allclose(out.data[c], b[c], atol=1e-15)

    def test_matches_nested_loop_oracle(self):
        rng = RNG(2)
        x = rng.uniform(-1, 1, (1, 4, 4))
        w = rng.uniform(-1, 1, (1, 1, 3, 3))
        b = rng.uniform(-1, 1, 1)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1)
        expected = oracles.conv2d_naive(x, w, b, padding=1)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_oracle_random_shapes(self, stride, padding):
        rng = RNG(3 + stride + padding)
        for trial in range(10):
            c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            x = rng.uniform(-1, 1, (c_in, h, w))
            wt = rng.uniform(-1, 1, (c_out, c_in, 3, 3))
            b = rng.uniform(-1, 1, c_out)
            out = conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, padding=padding)
            expected = oracles.conv2d_naive(x, wt, b, stride=stride, padding=padding)
            assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_output_spatial_size(self):
        out = conv2d(Tensor(np.zeros((1, 7, 5))), Tensor(np.zeros((2, 1, 3, 3))), Tensor(np.zeros(2)), stride=2, padding=1)
        assert out.shape == (2, (7 + 2 - 3) // 2 + 1, (5 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_names_both(self):
        with pytest.raises(DimensionError, match="3.*channels.*2|2.*channels.*3"):
            conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 1, 1))), Tensor(np.zeros(1)))


class TestLinear:
    def test_identity(self):
        rng = RNG(4)
        x = Tensor(rng.uniform(-1, 1, (3, 4)))
        out = linear(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        assert np.array_equal(out.data, x.data)

    def test_zero_input_broadcasts_bias(self):
        b = np.array([1.0, -2.0])
        out = linear(Tensor(np.zeros((3, 5))), Tensor(np.zeros((2, 5))), Tensor(b))
        assert np.array_equal(out.data, np.tile(b, (3, 1)))

    def test_matches_double_loop_oracle(self):
        rng = RNG(5)
        for _ in range(10):
            x = rng.uniform(-1, 1, (2, 3))
            w = rng.uniform(-1, 1, (4, 3))
            b = rng.uniform(-1, 1, 4)
            out = linear(Tensor(x), Tensor(w), Tensor(b))
            assert np.max(np.abs(out.data - oracles.linear_naive(x, w, b))) < 1e-12

    def test_trailing_dim_mismatch(self):
        with pytest.raises(DimensionError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))


class TestLayerNorm:
    def test_constant_row_collapses_to_zero(self):
        out = layer_norm(Tensor(np.full((2, 5), 3.7)), Tensor(np.ones(5)), Tensor(np.zeros(5)))
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_output_rows_are_centered(self):
        rng = RNG(6)
        x = Tensor(rng.uniform(-1, 1, (4, 7)))
        out = layer_norm(x, Tensor(np.ones(7)), Tensor(np.zeros(7)))
        assert np.max(np.abs(out.data.mean(axis=1))) < 1e-9

    def test_formula_on_fixed_row(self):
        out = layer_norm(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        # frozen from the closed form: (x-2)/sqrt(2/3 + 1e-5)
        expected = np.array([[-1.2247356859083902, 0.0, 1.2247356859083902]])
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_matches_loop_oracle(self):
        rng = RNG(7)
        for _ in range(10):
            x = rng.uniform(-1, 1, (3, 6))
            g = rng.uniform(0.5, 1.5, 6)
            b = rng.uniform(-1, 1, 6)
            out = layer_norm(Tensor(x), Tensor(g), Tensor(b))
            assert np.max(np.abs(out.data - oracles.layer_norm_naive(x, g, b))) < 1e-12


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax_rows(Tensor(np.zeros((2, 8))))
        assert np.array_equal(out.data, np.full((2, 8), 1.0 / 8.0))

    def test_shift_invariance(self):
        rng = RNG(8)
        x = rng.uniform(-1, 1, (3, 5))
        a = softmax_rows(Tensor(x))
        b = softmax_rows(Tensor(x + 100.0))
        assert np.max(np.abs(a.data - b.data)) < 1e-12

    def test_closed_form(self):
        out = softmax_rows(Tensor([[0.0, math.log(3.0)]]))
        assert np.max(np.abs(out.data - [[0.25, 0.75]])) < 1e-15

    def test_stability_at_large_magnitudes(self):
        rng = RNG(9)
        x = rng.uniform(-1e4, 1e4, (20, 6))
        out = softmax_rows(Tensor(x))
        assert np.all(out.data >= 0.0) and np.all(out.data <= 1.0)
        assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(np.isfinite(out.data))

    def test_matches_loop_oracle(self):
        rng = RNG(10)
        for _ in range(10):
            x = rng.uniform(-3, 3, (4, 5))
            assert np.max(np.abs(softmax_rows(Tensor(x)).data - oracles.softmax_naive(x))) < 1e-12

    def test_log_softmax_consistent(self):
        # the log-softmax lives inside cross_entropy: one pixel labeled t has
        # loss -log softmax(x)[t]
        rng = RNG(11)
        x = rng.uniform(-2, 2, (3, 4))
        probs = softmax_rows(Tensor(x)).data
        for i in range(3):
            for t in range(4):
                loss = cross_entropy(Tensor(x[i].reshape(4, 1, 1)), np.array([[t]]))
                assert abs(np.exp(-loss.item()) - probs[i, t]) < 1e-12


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_loop_oracle(self, heads):
        rng = RNG(30 + heads)
        q = rng.uniform(-2, 2, (5, 8))
        k = rng.uniform(-2, 2, (7, 8))  # more keys than queries
        v = rng.uniform(-2, 2, (7, 8))
        out = attention(Tensor(q), Tensor(k), Tensor(v), heads)
        assert out.shape == (5, 8)
        assert np.max(np.abs(out.data - oracles.attention_naive(q, k, v, heads))) < 1e-12

    def test_rejects_heads_not_dividing_width(self):
        t = Tensor(np.zeros((3, 6)))
        with pytest.raises(DimensionError):
            attention(t, t, t, 4)

    def test_rejects_mismatched_keys_and_values(self):
        with pytest.raises(DimensionError):
            attention(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 4))), Tensor(np.zeros((4, 4))), 2)


class TestTokenLayout:
    def test_matches_loop_oracle(self):
        rng = RNG(40)
        for c, h, w in ((3, 2, 5), (1, 4, 1), (6, 1, 3)):
            x = rng.uniform(-2, 2, (c, h, w))
            out = tokens(Tensor(x))
            assert out.shape == (h * w, c) and out.data.flags.c_contiguous
            assert np.max(np.abs(out.data - oracles.tokens_naive(x))) < 1e-12
            back = feature_map(Tensor(oracles.tokens_naive(x)), h, w)
            assert back.shape == (c, h, w) and back.data.flags.c_contiguous
            assert np.max(np.abs(back.data - x)) < 1e-12

    def test_round_trip_is_identity(self):
        rng = RNG(41)
        x = rng.uniform(-2, 2, (4, 3, 2))
        assert np.array_equal(feature_map(tokens(Tensor(x)), 3, 2).data, x)
        rows = rng.uniform(-2, 2, (6, 4))
        assert np.array_equal(tokens(feature_map(Tensor(rows), 2, 3)).data, rows)

    def test_rejects_wrong_shapes(self):
        with pytest.raises(DimensionError):
            tokens(Tensor(np.zeros((4, 6))))
        with pytest.raises(DimensionError):
            feature_map(Tensor(np.zeros((6, 4))), 2, 2)
        with pytest.raises(DimensionError):
            feature_map(Tensor(np.zeros((2, 3, 4))), 2, 3)


class TestAdaptivePool:
    def test_global_avg_is_channel_mean(self):
        rng = RNG(12)
        x = rng.uniform(-1, 1, (5, 4, 6))
        out = adaptive_pool(Tensor(x), "avg", (1, 1))
        assert out.shape == (5, 1, 1)
        assert np.max(np.abs(out.data[:, 0, 0] - x.mean(axis=(1, 2)))) < 1e-12

    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_constant_input(self, mode):
        x = Tensor(np.full((2, 6, 6), 0.4))
        assert np.allclose(adaptive_pool(x, mode, (1, 1)).data, 0.4, atol=0)
        assert np.allclose(adaptive_pool(Tensor(np.full((3, 6), 0.4)), mode, 3).data, 0.4, atol=0)

    def test_binning_rule_len6_to_2(self):
        x = np.arange(6, dtype=float).reshape(1, 6)
        out = adaptive_pool(Tensor(x), "avg", 2)
        assert np.array_equal(out.data, [[1.0, 4.0]])  # mean(0..2), mean(3..5)

    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_matches_loop_oracle(self, mode):
        rng = RNG(13)
        for _ in range(10):
            x = rng.uniform(-1, 1, (3, int(rng.integers(1, 8)), int(rng.integers(1, 6))))
            out = adaptive_pool(Tensor(x), mode, (1, 1))
            assert np.max(np.abs(out.data - oracles.adaptive_pool2d_naive(x, mode, 1, 1))) < 1e-12
            width = int(rng.integers(1, 4))
            rows = rng.uniform(-1, 1, (4, width * int(rng.integers(1, 4))))
            out2 = adaptive_pool(Tensor(rows), mode, width)
            assert np.max(np.abs(out2.data - oracles.adaptive_pool_rows_naive(rows, mode, width))) < 1e-12

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            adaptive_pool(Tensor(np.zeros((2, 4, 4))), "avg", (0, 2))

    def test_oversized_target_rejected(self):
        with pytest.raises(DimensionError):
            adaptive_pool(Tensor(np.zeros((2, 4, 4))), "avg", (5, 2))


class TestPurityAndInvariants:
    def test_kernels_are_pure(self):
        rng = RNG(14)
        x = rng.uniform(-1, 1, (3, 6, 6))
        t = Tensor(x)
        w = Tensor(rng.uniform(-1, 1, (2, 3, 3, 3)))
        b = Tensor(rng.uniform(-1, 1, 2))
        first = conv2d(t, w, b, padding=1).data.tobytes()
        second = conv2d(t, w, b, padding=1).data.tobytes()
        assert first == second
        assert np.array_equal(t.data, x)  # inputs untouched

    def test_finite_outputs_on_finite_inputs(self):
        rng = RNG(15)
        x = Tensor(rng.uniform(-1e3, 1e3, (4, 8)))
        for out in (relu(x), sigmoid(x), softmax_rows(x), layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))):
            assert np.all(np.isfinite(out.data))

    def test_shape_ops_roundtrip(self):
        rng = RNG(16)
        x = rng.uniform(-1, 1, (3, 4))
        t = Tensor(x)
        assert np.array_equal(reshape(t, (12,)).data, x.reshape(12))
        assert np.array_equal(tokens(reshape(t, (3, 4, 1))).data, x.T)
        assert np.array_equal(narrow(t, 1, 1, 2).data, x[:, 1:3])
        joined = concat([t, t], axis=0)
        assert joined.shape == (6, 4)
        assert np.array_equal(concat([t, narrow(t, 1, 0, 1)], axis=1).data, np.hstack([x, x[:, :1]]))

    def test_upsample_nearest(self):
        x = np.arange(4, dtype=float).reshape(1, 2, 2)
        out = upsample_nearest(Tensor(x), 2)
        assert out.shape == (1, 4, 4)
        assert np.array_equal(out.data[0, :2, :2], np.full((2, 2), 0.0))
        assert np.array_equal(out.data[0, 2:, 2:], np.full((2, 2), 3.0))


def test_linear_supports_leading_batch_dims():
    rng = RNG(17)
    x = rng.uniform(-1, 1, (2, 3, 4))
    w = rng.uniform(-1, 1, (5, 4))
    b = rng.uniform(-1, 1, 5)
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    assert out.shape == (2, 3, 5)
    for i in range(2):
        assert np.max(np.abs(out.data[i] - oracles.linear_naive(x[i], w, b))) < 1e-12


class TestArgumentErrors:
    """Bad kernel arguments raise DimensionError, which callers can still catch as ValueError."""

    @pytest.mark.parametrize("k", [(5, 5), (1, 3)])
    def test_conv2d_kernel_size(self, k):
        with pytest.raises(DimensionError, match="1x1 or 3x3"):
            conv2d(Tensor(np.zeros((1, 6, 6))), Tensor(np.zeros((2, 1) + k)), Tensor(np.zeros(2)))

    def test_conv2d_stride(self):
        with pytest.raises(DimensionError, match="stride"):
            conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((2, 1, 3, 3))), Tensor(np.zeros(2)), stride=0)

    def test_upsample_factor(self):
        with pytest.raises(DimensionError, match="factor"):
            upsample_nearest(Tensor(np.zeros((1, 2, 2))), 0)
        assert issubclass(DimensionError, ValueError)

    def test_adaptive_pool_unknown_mode_is_a_config_error(self):
        with pytest.raises(ConfigError, match="mode"):
            adaptive_pool(Tensor(np.zeros((2, 4, 4))), "median", (1, 1))
        assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("shape", [(16, 128), (256, 64), (64, 512), (7, 33), (3, 4), (1, 5)])
def test_layer_norm_variance_is_numpys_bitwise(shape):
    x = RNG(sum(shape)).uniform(-3, 3, shape)
    c = shape[1]
    out = layer_norm(Tensor(x), Tensor(np.ones(c)), Tensor(np.zeros(c)))
    # the expressions of the two-pass form, with np.var for the variance
    inv_std = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
    assert np.array_equal(out.data, (x - x.mean(axis=1, keepdims=True)) * inv_std)


def test_narrow_rejects_out_of_range():
    from ivgf.errors import DimensionError as DE

    t = Tensor(np.zeros((3, 4)))
    for axis, start, length in ((1, 3, 2), (0, -1, 2), (1, 0, 5)):
        with pytest.raises(DE):
            narrow(t, axis, start, length)


class TestBatchAxis:
    """[B,...] stacks against the single-item oracles looped over the batch; [C,H,W] is the B = 1 case."""

    @pytest.mark.parametrize("stride,padding,k", [(1, 0, 1), (1, 1, 3), (2, 1, 3), (2, 0, 3)])
    def test_conv2d_matches_batched_loop_oracle(self, stride, padding, k):
        rng = RNG(50 + stride + 2 * padding + k)
        for items in (1, 2, 3):
            c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            h, w = int(rng.integers(3, 8)), int(rng.integers(3, 8))
            x = rng.uniform(-1, 1, (items, c_in, h, w))
            wt = rng.uniform(-1, 1, (c_out, c_in, k, k))
            b = rng.uniform(-1, 1, c_out)
            out = conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, padding=padding)
            expected = oracles.conv2d_batch_naive(x, wt, b, stride=stride, padding=padding)
            assert out.shape == expected.shape and out.data.flags.c_contiguous
            assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_a_map_is_the_one_item_stack_bitwise(self):
        rng = RNG(51)
        x = rng.uniform(-1, 1, (3, 6, 6))
        wt, b = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3))), Tensor(rng.uniform(-1, 1, 4))
        one = conv2d(Tensor(x), wt, b, stride=2, padding=1)
        stacked = conv2d(Tensor(x[None]), wt, b, stride=2, padding=1)
        assert one.shape == (4, 3, 3) and stacked.shape == (1, 4, 3, 3)
        assert np.array_equal(stacked.data[0], one.data)
        assert np.array_equal(tokens(Tensor(x[None])).data, tokens(Tensor(x)).data)
        assert np.array_equal(upsample_nearest(Tensor(x[None]), 2).data[0], upsample_nearest(Tensor(x), 2).data)

    def test_tokens_and_feature_map_match_batched_loop_oracle(self):
        rng = RNG(52)
        for items, c, h, w in ((2, 3, 2, 5), (3, 1, 4, 1), (1, 6, 1, 3)):
            x = rng.uniform(-2, 2, (items, c, h, w))
            rows = tokens(Tensor(x))
            assert rows.shape == (items * h * w, c) and rows.data.flags.c_contiguous
            assert np.max(np.abs(rows.data - oracles.tokens_batch_naive(x))) < 1e-12
            r = rng.uniform(-2, 2, (items * h * w, c))
            back = feature_map(Tensor(r), h, w, (items,))
            assert back.shape == (items, c, h, w) and back.data.flags.c_contiguous
            assert np.max(np.abs(back.data - oracles.feature_map_batch_naive(r, items, h, w))) < 1e-12
            assert np.array_equal(feature_map(rows, h, w, (items,)).data, x)

    def test_feature_map_rejects_rows_of_another_item_count(self):
        with pytest.raises(DimensionError):
            feature_map(Tensor(np.zeros((12, 4))), 2, 3, (3,))

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_with_items_matches_per_item_loop_oracle(self, heads):
        rng = RNG(53 + heads)
        for items in (1, 2, 3):
            q = rng.uniform(-2, 2, (items * 5, 8))
            k = rng.uniform(-2, 2, (items * 7, 8))
            v = rng.uniform(-2, 2, (items * 7, 8))
            out = attention(Tensor(q), Tensor(k), Tensor(v), heads, items)
            assert out.shape == (items * 5, 8)
            assert np.max(np.abs(out.data - oracles.attention_items_naive(q, k, v, heads, items))) < 1e-12

    def test_attention_rejects_items_not_dividing_rows(self):
        with pytest.raises(DimensionError, match="items"):
            attention(Tensor(np.zeros((5, 4))), Tensor(np.zeros((6, 4))), Tensor(np.zeros((6, 4))), 2, 2)

    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_upsample_nearest_matches_loop_oracle(self, factor):
        rng = RNG(54 + factor)
        for shape in ((3, 2, 3), (2, 3, 2, 3)):
            x = rng.uniform(-1, 1, shape)
            out = upsample_nearest(Tensor(x), factor)
            assert np.max(np.abs(out.data - oracles.upsample_nearest_naive(x, factor))) < 1e-12

    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_adaptive_pool2d_matches_batched_loop_oracle(self, mode):
        rng = RNG(55)
        for items in (1, 2, 3):
            x = rng.uniform(-1, 1, (items, 3, int(rng.integers(1, 8)), int(rng.integers(1, 6))))
            out = adaptive_pool(Tensor(x), mode, (1, 1))
            assert out.shape == (items, 3, 1, 1)
            assert np.max(np.abs(out.data - oracles.adaptive_pool2d_batch_naive(x, mode))) < 1e-12

    def test_cross_entropy_matches_batched_loop_oracle(self):
        rng = RNG(56)
        for items in (1, 2, 3):
            logits = rng.uniform(-3, 3, (items, 4, 3, 5))
            mask = rng.integers(0, 4, (items, 3, 5))
            mask[rng.uniform(size=mask.shape) < 0.3] = 255
            mask[:, 0, 0] = 1  # every item keeps a pixel
            loss = cross_entropy(Tensor(logits), mask).item()
            assert abs(loss - oracles.cross_entropy_naive(logits, mask)) < 1e-12


def _attention_reference(q, k, v, heads, items=1):
    """The attention expressions as fresh arrays over the whole [items, heads, rows, rows] stack."""
    c = q.shape[1]
    n, m = q.shape[0] // items, k.shape[0] // items
    d = c // heads
    scale = 1.0 / (d**0.5)

    def split(x, rows):
        return np.ascontiguousarray(x.reshape(items, rows, heads, d).transpose(0, 2, 1, 3))

    def merge(x, rows):
        return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(-1, c)

    qh, vh = split(q, n), split(v, m)
    kt = np.ascontiguousarray(k.reshape(items, m, heads, d).transpose(0, 2, 3, 1))
    z = (qh @ kt) * scale
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        go = split(g, n)
        gs = go @ vh.swapaxes(-1, -2)
        gz = s * (gs - (gs * s).sum(axis=-1, keepdims=True)) * scale
        gk = (qh.swapaxes(-1, -2) @ gz).swapaxes(-1, -2)
        return merge(gz @ kt.swapaxes(-1, -2), n), merge(gk, m), merge(s.swapaxes(-1, -2) @ go, m)

    return merge(s @ vh, n), back


def test_in_place_attention_softmax_is_bitwise_the_fresh_array_expressions():
    rng = RNG(57)
    n, c, heads = 256, 32, 4  # the first fusion scale of toy.cfg: [4, 256, 256] score stacks
    q, k, v = (Tensor(rng.uniform(-2, 2, (n, c)), requires_grad=True) for _ in range(3))
    out = attention(q, k, v, heads)
    expected, back = _attention_reference(q.data, k.data, v.data, heads)
    assert np.array_equal(out.data, expected)
    weights = rng.uniform(-1, 1, (n, c))
    grads = backward((out * Tensor(weights)).sum(), [q, k, v])
    for got, want in zip(grads, back(weights)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "items, n, c, heads, groups",
    [
        (2, 256, 32, 4, (1,) * 8),  # the first fusion scale of a batch-2 toy.cfg step: one slice per group
        (3, 128, 8, 2, (4, 2)),  # 128x128 scores: groups of 4 slices, the last one ragged
        (1, 16, 32, 4, (4,)),  # a small stack runs as one group
    ],
)
def test_tiled_attention_backward_is_bitwise_the_whole_stack_expressions(items, n, c, heads, groups):
    step = max(1, tensor.ATTENTION_TILE // (n * n))
    assert tuple(min(step, items * heads - i) for i in range(0, items * heads, step)) == groups
    rng = RNG(58)
    q, k, v = (Tensor(rng.uniform(-2, 2, (items * n, c)), requires_grad=True) for _ in range(3))
    out = attention(q, k, v, heads, items)
    expected, back = _attention_reference(q.data, k.data, v.data, heads, items)
    assert np.array_equal(out.data, expected)
    weights = rng.uniform(-1, 1, (items * n, c))
    for got, want in zip(backward((out * Tensor(weights)).sum(), [q, k, v]), back(weights)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("tile", [1, 20, 45, 10**6])
def test_attention_backward_does_not_depend_on_the_grouping(monkeypatch, tile):
    # 5x4 scores over 6 (item, head) slices: groups of 1, 1, 2 and 6 slices
    rng = RNG(59)
    q = Tensor(rng.uniform(-2, 2, (2 * 5, 6)), requires_grad=True)
    k, v = (Tensor(rng.uniform(-2, 2, (2 * 4, 6)), requires_grad=True) for _ in range(2))
    monkeypatch.setattr(tensor, "ATTENTION_TILE", tile)
    out = attention(q, k, v, 3, 2)
    weights = rng.uniform(-1, 1, out.shape)
    _, back = _attention_reference(q.data, k.data, v.data, 3, 2)
    for got, want in zip(backward((out * Tensor(weights)).sum(), [q, k, v]), back(weights)):
        assert np.array_equal(got, want)


def test_relu_gradient_is_bitwise_the_input_mask_form():
    # the backward reads its mask off the output: out > 0 holds exactly where x > 0
    rng = RNG(61)
    special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0])
    for x in (special, rng.normal(0.0, 3.0, (4, 5, 6))):
        g = rng.uniform(-1, 1, x.shape)
        t = Tensor(x, requires_grad=True)
        grad = backward((relu(t) * Tensor(g)).sum(), [t])[0]
        assert np.array_equal(grad.view(np.int64), (g * (x > 0.0)).view(np.int64))


@pytest.mark.parametrize("case", ["conv3x3_pad1_stride2", "conv1x1", "attention"])
def test_a_second_backward_on_one_graph_gives_the_same_bits(monkeypatch, case):
    # the backward rebuilds what the forward dropped and overwrites only those fresh copies
    rng = RNG(62)
    if case == "attention":
        monkeypatch.setattr(tensor, "ATTENTION_TILE", 2 * 5 * 4)  # 6 slices of 5x4 scores: 3 groups of 2
        inputs = [Tensor(rng.uniform(-2, 2, (2 * rows, 6)), requires_grad=True) for rows in (5, 4, 4)]
        out = attention(*inputs, 3, 2)
    else:
        k, stride, padding = (3, 2, 1) if case.startswith("conv3x3") else (1, 1, 0)
        inputs = [Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
                  for shape in ((2, 3, 7, 7), (4, 3, k, k), (4,))]
        out = conv2d(*inputs, stride=stride, padding=padding)
    before = [t.data.copy() for t in (*inputs, out)]
    loss = (out * Tensor(rng.uniform(-1, 1, out.shape))).sum()
    first, second = backward(loss, inputs), backward(loss, inputs)
    for a, b in zip(first, second):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    for t, data in zip((*inputs, out), before):
        assert np.array_equal(t.data.view(np.int64), data.view(np.int64))


class TestSigmoidAgainstTheMaskedForm:
    """sigmoid is bitwise the two-branch masked form (oracles.sigmoid_masked), gradients too."""

    SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0, 710.0, -710.0, 745.0, -745.0,
               np.inf, -np.inf, np.nan]

    @staticmethod
    def _value_and_grad(x, g):
        t = Tensor(x, requires_grad=True)
        out = sigmoid(t)
        return out.data, backward((out * Tensor(g)).sum(), [t])[0]

    @staticmethod
    def _masked_value_and_grad(x, g):
        s = oracles.sigmoid_masked(x)
        return s, g * s * (1.0 - s)

    def test_random_shapes(self):
        rng = RNG(60)
        for _ in range(20):
            shape = tuple(int(d) for d in rng.integers(1, 6, size=int(rng.integers(1, 4))))
            x = rng.normal(0.0, 30.0, shape)
            g = rng.uniform(-1, 1, shape)
            for got, want in zip(self._value_and_grad(x, g), self._masked_value_and_grad(x, g)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_special_values(self):
        x = np.array(self.SPECIAL)
        g = np.linspace(-1.0, 1.0, x.size)
        got, want = self._value_and_grad(x, g), self._masked_value_and_grad(x, g)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
            finite = np.isfinite(b)
            assert np.array_equal(a[finite].view(np.int64), b[finite].view(np.int64))  # bit for bit, signed zeros included
        assert np.isnan(got[0][-1]) and got[0][0] == 0.5


@pytest.mark.parametrize("x, out_size", [
    (np.array([[[1.0, 3.0], [3.0, 0.0]], [[2.0, 2.0], [2.0, 2.0]]]), (1, 1)),  # [C,H,W], ties in both maps
    (np.array([[5.0, 1.0, 5.0, 0.0, 0.0, 0.0], [-1.0, -1.0, -2.0, 7.0, 3.0, 7.0]]), 2),  # [N,C] rows
])
def test_adaptive_max_pool_sends_the_gradient_to_the_first_maximum(x, out_size):
    t = Tensor(x, requires_grad=True)
    out = adaptive_pool(t, "max", out_size)
    g = np.arange(1.0, out.size + 1.0).reshape(out.shape)
    grad = backward((out * Tensor(g)).sum(), [t])[0]
    rows = x.reshape(out.size, -1)  # one bin per row
    expected = np.zeros_like(rows)
    expected[np.arange(out.size), rows.argmax(axis=1)] = g.reshape(-1)
    assert np.array_equal(grad, expected.reshape(x.shape))
    assert np.count_nonzero(grad) == out.size
