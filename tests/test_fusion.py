"""Fusion block contracts: spec examples, naive-loop oracle equivalence,
normalization invariants, and permutation properties."""

import math

import numpy as np
import pytest

import oracles
from oracles import max_rel_error
from ivgf import fusion
from ivgf.errors import ConfigError, DimensionError
from ivgf.params import ParamStore
from ivgf.rng import RngState
from ivgf.tensor import Tensor, backward

ORACLE_TRIALS = 10


def _randomize(store, seed, scale=0.6):
    rng = RngState(seed)
    for name, p in store.items():
        p.data = rng.derive("rand", name).fill_uniform(p.data.shape, -scale, scale)


def _fem(seed, c=4, mode="parallel", randomize=True):
    store = ParamStore()
    fem = fusion.build_fem(store, RngState(seed), "fem", c, mode)
    if randomize:
        _randomize(store, seed)
    return fem, store


def _tem(seed, c=4, adapters=2, randomize=True):
    store = ParamStore()
    tem = fusion.build_tem(store, RngState(seed), "tem", c, adapters)
    if randomize:
        _randomize(store, seed)
    return tem, store


def _agf(seed, c=4, heads=2, randomize=True):
    store = ParamStore()
    agf = fusion.build_agf(store, RngState(seed), "agf", c, heads)
    if randomize:
        _randomize(store, seed)
    return agf, store


def _rand(rng, shape):
    return rng.uniform(-1.0, 1.0, shape)


def _cross(q_src, kv_src, proj, heads):
    """One direction of cross-modality attention between flattened [C,N] and [C,M] maps."""
    return fusion.multi_head_attention(Tensor(q_src.T.copy()), Tensor(kv_src.T.copy()), proj, heads)


class TestSpatialAttention:
    def test_output_shape_is_single_channel(self):
        fem, _ = _fem(0, c=6)
        out = fusion.spatial_attention(Tensor(np.ones((6, 3, 5))), fem.spatial_x)
        assert out.shape == (1, 3, 5)

    def test_zero_input_zero_biases_gives_half(self):
        fem, _ = _fem(1, randomize=False)  # default init: biases are zero
        out = fusion.spatial_attention(Tensor(np.zeros((4, 3, 3))), fem.spatial_x)
        assert np.allclose(out.data, 0.5, atol=0)

    def test_values_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        fem, _ = _fem(2)
        out = fusion.spatial_attention(Tensor(_rand(rng, (4, 3, 3))), fem.spatial_x)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_matches_naive_oracle(self):
        for trial in range(ORACLE_TRIALS):
            rng = np.random.default_rng(10 + trial)
            fem, _ = _fem(10 + trial)
            x = _rand(rng, (4, 2, 2))
            out = fusion.spatial_attention(Tensor(x), fem.spatial_x)
            expected = oracles.spatial_attention_naive(x, fem.spatial_x)
            assert np.max(np.abs(out.data - expected)) < 1e-12


class TestCrossSpatialIntegration:
    def test_zero_other_modality_passes_input_through(self):
        fem, _ = _fem(3, randomize=False)
        rng = np.random.default_rng(3)
        fx = _rand(rng, (4, 3, 3))
        sxy, _ = fusion.cross_spatial_integration(Tensor(fx), Tensor(np.zeros((4, 3, 3))), fem.spatial_x, fem.spatial_y)
        assert np.array_equal(sxy.data, fx)

    def test_shapes_preserved(self):
        fem, _ = _fem(4)
        rng = np.random.default_rng(4)
        sxy, syx = fusion.cross_spatial_integration(
            Tensor(_rand(rng, (4, 5, 3))), Tensor(_rand(rng, (4, 5, 3))), fem.spatial_x, fem.spatial_y
        )
        assert sxy.shape == syx.shape == (4, 5, 3)

    def test_cross_wiring_against_scalar_loop(self):
        for trial in range(ORACLE_TRIALS):
            rng = np.random.default_rng(20 + trial)
            fem, _ = _fem(20 + trial, c=3)
            fx, fy = _rand(rng, (3, 2, 2)), _rand(rng, (3, 2, 2))
            sxy, syx = fusion.cross_spatial_integration(Tensor(fx), Tensor(fy), fem.spatial_x, fem.spatial_y)
            exp_sxy, exp_syx = oracles.cross_spatial_naive(fx, fy, fem.spatial_x, fem.spatial_y)
            assert np.max(np.abs(sxy.data - exp_sxy)) < 1e-12
            assert np.max(np.abs(syx.data - exp_syx)) < 1e-12

    def test_shape_mismatch_rejected(self):
        fem, _ = _fem(5)
        with pytest.raises(DimensionError):
            fusion.cross_spatial_integration(Tensor(np.zeros((4, 2, 2))), Tensor(np.zeros((4, 3, 3))), fem.spatial_x, fem.spatial_y)


class TestChannelAttention:
    def test_zero_weights_give_half(self):
        fem, store = _fem(6, randomize=False)
        for name, p in store.items():
            if "channel" in name:
                p.data = np.zeros_like(p.data)
        out = fusion.channel_attention(Tensor(np.full((4, 3, 3), 2.5)), fem.channel_x)
        assert np.allclose(out.data, 0.5, atol=0)

    def test_weight_shape_and_broadcast(self):
        fem, _ = _fem(7)
        rng = np.random.default_rng(7)
        f = Tensor(_rand(rng, (4, 3, 2)))
        w = fusion.channel_attention(f, fem.channel_x)
        assert w.shape == (4, 1, 1)
        gated = f * w
        assert gated.shape == (4, 3, 2)
        assert np.allclose(gated.data, f.data * w.data)

    def test_matches_naive_oracle(self):
        for trial in range(ORACLE_TRIALS):
            rng = np.random.default_rng(30 + trial)
            fem, _ = _fem(30 + trial, c=3)
            x = _rand(rng, (3, 2, 2))
            out = fusion.channel_attention(Tensor(x), fem.channel_x)
            assert np.max(np.abs(out.data - oracles.channel_weights_naive(x, fem.channel_x))) < 1e-12


class TestFemForward:
    @pytest.mark.parametrize("mode", fusion.FEM_MODES)
    def test_shapes_preserved_all_modes(self, mode):
        fem, _ = _fem(8, mode=mode)
        rng = np.random.default_rng(8)
        ox, oy = fusion.fem_forward(Tensor(_rand(rng, (4, 3, 5))), Tensor(_rand(rng, (4, 3, 5))), fem)
        assert ox.shape == oy.shape == (4, 3, 5)

    def test_zero_inputs_zero_biases_give_zero(self):
        fem, _ = _fem(9, randomize=False)
        ox, oy = fusion.fem_forward(Tensor(np.zeros((4, 3, 3))), Tensor(np.zeros((4, 3, 3))), fem)
        assert np.allclose(ox.data, 0.0, atol=0) and np.allclose(oy.data, 0.0, atol=0)

    def test_parallel_equals_sum_of_branches(self):
        for trial in range(ORACLE_TRIALS):
            rng = np.random.default_rng(40 + trial)
            fem, _ = _fem(40 + trial, mode="parallel")
            fx, fy = Tensor(_rand(rng, (4, 4, 4))), Tensor(_rand(rng, (4, 4, 4)))
            ox, oy = fusion.fem_forward(fx, fy, fem)
            sxy, syx = fusion.cross_spatial_integration(fx, fy, fem.spatial_x, fem.spatial_y)
            cx = fx * fusion.channel_attention(fx, fem.channel_x)
            cy = fy * fusion.channel_attention(fy, fem.channel_y)
            assert np.max(np.abs(ox.data - (sxy.data + cx.data))) < 1e-12
            assert np.max(np.abs(oy.data - (syx.data + cy.data))) < 1e-12

    @pytest.mark.parametrize("mode", fusion.FEM_MODES)
    def test_matches_naive_oracle(self, mode):
        for trial in range(ORACLE_TRIALS):
            rng = np.random.default_rng(50 + trial)
            fem, _ = _fem(50 + trial, mode=mode)
            fx, fy = _rand(rng, (4, 2, 3)), _rand(rng, (4, 2, 3))
            ox, oy = fusion.fem_forward(Tensor(fx), Tensor(fy), fem)
            ex, ey = oracles.fem_naive(fx, fy, fem)
            assert np.max(np.abs(ox.data - ex)) < 1e-12
            assert np.max(np.abs(oy.data - ey)) < 1e-12

    def test_unknown_mode_rejected(self):
        fem, _ = _fem(10)
        fem.mode = "diagonal"
        with pytest.raises(ConfigError):
            fusion.fem_forward(Tensor(np.zeros((4, 2, 2))), Tensor(np.zeros((4, 2, 2))), fem)
        with pytest.raises(ConfigError):
            fusion.build_fem(ParamStore(), RngState(0), "bad", 4, "diagonal")


class TestTemForward:
    def test_rows_scale_by_shared_factor_in_unit_interval(self):
        # each output row must be s * input row with one s per row, s in (0,1)
        tem, _ = _tem(11)
        rng = np.random.default_rng(11)
        tx, ty = _rand(rng, (5, 4)) + 2.0, _rand(rng, (5, 4)) + 2.0  # keep entries nonzero
        ox, oy = fusion.tem_forward(Tensor(tx), Tensor(ty), tem)
        for out, t in ((ox, tx), (oy, ty)):
            ratio = out.data / t
            spread = ratio.max(axis=1) - ratio.min(axis=1)
            assert np.max(spread) < 1e-12
            assert np.all(ratio > 0.0) and np.all(ratio < 1.0)

    def test_rowwise_norm_contraction(self):
        tem, _ = _tem(12)
        rng = np.random.default_rng(12)
        tx, ty = _rand(rng, (6, 4)), _rand(rng, (6, 4))
        ox, oy = fusion.tem_forward(Tensor(tx), Tensor(ty), tem)
        assert np.all(np.linalg.norm(ox.data, axis=1) < np.linalg.norm(tx, axis=1))
        assert np.all(np.linalg.norm(oy.data, axis=1) < np.linalg.norm(ty, axis=1))

    @pytest.mark.parametrize("adapters", [0, 2])
    def test_matches_naive_oracle(self, adapters):
        for trial in range(ORACLE_TRIALS):
            rng = np.random.default_rng(60 + trial)
            tem, _ = _tem(60 + trial, adapters=adapters)
            tx, ty = _rand(rng, (2, 4)), _rand(rng, (2, 4))
            ox, oy = fusion.tem_forward(Tensor(tx), Tensor(ty), tem)
            ex, ey = oracles.tem_naive(tx, ty, tem)
            assert np.max(np.abs(ox.data - ex)) < 1e-12
            assert np.max(np.abs(oy.data - ey)) < 1e-12

    def test_shape_mismatch_rejected(self):
        tem, _ = _tem(13)
        with pytest.raises(DimensionError):
            fusion.tem_forward(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), tem)


class TestCrossAttention:
    def test_single_key_returns_value_row(self):
        agf, _ = _agf(14, c=4, heads=2)
        rng = np.random.default_rng(14)
        q_src = _rand(rng, (4, 5))
        kv_src = _rand(rng, (4, 1))  # one key/value position
        out = _cross(q_src, kv_src, agf.xy, agf.heads)
        from ivgf.tensor import linear

        v_row = linear(Tensor(kv_src.T), agf.xy.v_w, agf.xy.v_b).data[0]
        assert out.shape == (5, 4)
        assert np.max(np.abs(out.data - v_row)) < 1e-12

    def test_closed_form_two_tokens_one_head(self):
        agf, store = _agf(15, c=2, heads=1)
        rng = np.random.default_rng(15)
        q_src, kv_src = _rand(rng, (2, 2)), _rand(rng, (2, 2))
        out = _cross(q_src, kv_src, agf.yx, agf.heads)

        # independent closed-form evaluation
        tq, tkv = q_src.T, kv_src.T
        proj = agf.yx
        q = tq @ proj.q_w.data.T + proj.q_b.data
        k = tkv @ proj.k_w.data.T + proj.k_b.data
        v = tkv @ proj.v_w.data.T + proj.v_b.data
        expected = np.zeros((2, 2))
        for i in range(2):
            s0 = (q[i] @ k[0]) / math.sqrt(2.0)
            s1 = (q[i] @ k[1]) / math.sqrt(2.0)
            m = max(s0, s1)
            w0, w1 = math.exp(s0 - m), math.exp(s1 - m)
            expected[i] = (w0 * v[0] + w1 * v[1]) / (w0 + w1)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_kv_permutation_invariance(self):
        agf, _ = _agf(16, c=4, heads=4)
        rng = np.random.default_rng(16)
        q_src = _rand(rng, (4, 6))
        kv = _rand(rng, (4, 6))
        perm = rng.permutation(6)
        out_a = _cross(q_src, kv, agf.xy, agf.heads)
        out_b = _cross(q_src, kv[:, perm], agf.xy, agf.heads)
        assert np.max(np.abs(out_a.data - out_b.data)) < 1e-9

    def test_matches_naive_oracle(self):
        for trial in range(ORACLE_TRIALS):
            heads = (1, 2, 4)[trial % 3]
            rng = np.random.default_rng(70 + trial)
            agf, _ = _agf(70 + trial, c=4, heads=heads)
            q_src, kv_src = _rand(rng, (4, 3)), _rand(rng, (4, 3))
            out = _cross(q_src, kv_src, agf.xy, heads)
            expected = oracles.cross_attention_naive(q_src, kv_src, agf.xy, heads)
            assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            fusion.build_agf(ParamStore(), RngState(0), "agf", c=4, heads=3)
        agf, _ = _agf(17, c=4, heads=2)
        agf.heads = 3
        with pytest.raises(ConfigError):
            _cross(np.zeros((4, 2)), np.zeros((4, 2)), agf.xy, agf.heads)


class TestAgfForward:
    def test_output_shape(self):
        agf, _ = _agf(18, c=4, heads=2)
        rng = np.random.default_rng(18)
        out = fusion.agf_forward(Tensor(_rand(rng, (4, 3, 5))), Tensor(_rand(rng, (4, 3, 5))), agf)
        assert out.shape == (4, 3, 5)

    def test_zero_inputs_zero_biases_give_zero(self):
        agf, _ = _agf(19, randomize=False)
        out = fusion.agf_forward(Tensor(np.zeros((4, 2, 2))), Tensor(np.zeros((4, 2, 2))), agf)
        assert np.allclose(out.data, 0.0, atol=0)

    def test_spatial_permutation_equivariance(self):
        # with the 3x3 merge conv reduced to its center tap, every stage is
        # positionwise or attention, so permuting both inputs' positions
        # permutes the output identically
        agf, store = _agf(20, c=4, heads=2)
        w3 = np.zeros_like(agf.merge_c_w.data)
        w3[:, :, 1, 1] = np.random.default_rng(20).uniform(-0.5, 0.5, (4, 4))
        agf.merge_c_w.data = w3
        rng = np.random.default_rng(21)
        fx, fy = _rand(rng, (4, 2, 2)), _rand(rng, (4, 2, 2))
        perm = np.array([2, 0, 3, 1])  # permutation of the 4 positions
        out = fusion.agf_forward(Tensor(fx), Tensor(fy), agf).data.reshape(4, 4)
        fx_p = fx.reshape(4, 4)[:, perm].reshape(4, 2, 2)
        fy_p = fy.reshape(4, 4)[:, perm].reshape(4, 2, 2)
        out_p = fusion.agf_forward(Tensor(fx_p), Tensor(fy_p), agf).data.reshape(4, 4)
        assert np.max(np.abs(out[:, perm] - out_p)) < 1e-9

    def test_matches_naive_oracle(self):
        for trial in range(ORACLE_TRIALS):
            rng = np.random.default_rng(80 + trial)
            agf, _ = _agf(80 + trial, c=4, heads=2)
            fx, fy = _rand(rng, (4, 2, 2)), _rand(rng, (4, 2, 2))
            out = fusion.agf_forward(Tensor(fx), Tensor(fy), agf)
            assert np.max(np.abs(out.data - oracles.agf_naive(fx, fy, agf))) < 1e-12

    def test_shape_mismatch_rejected(self):
        agf, _ = _agf(22)
        with pytest.raises(DimensionError):
            fusion.agf_forward(Tensor(np.zeros((4, 2, 2))), Tensor(np.zeros((4, 2, 3))), agf)


class TestBlockGradients:
    """Spot checks; the exhaustive per-entry sweep lives in the gradcheck suite."""

    def test_fem_input_gradients_match_finite_differences(self):
        fem, store = _fem(23)
        rng = np.random.default_rng(23)
        fx = Tensor(_rand(rng, (4, 3, 3)), requires_grad=True)
        fy = Tensor(_rand(rng, (4, 3, 3)), requires_grad=True)
        proj = Tensor(_rand(rng, (4, 3, 3)))

        def loss():
            ox, oy = fusion.fem_forward(fx, fy, fem)
            return ((ox + oy) * proj).sum()

        for t, analytic in zip((fx, fy), backward(loss(), (fx, fy))):
            numeric = oracles.finite_diff_grad(lambda _: loss().item(), t)
            assert max_rel_error(analytic, numeric) <= 1e-4

    def test_agf_parameter_gradients_match_finite_differences(self):
        agf, store = _agf(24)
        rng = np.random.default_rng(24)
        fx = Tensor(_rand(rng, (4, 2, 2)))
        fy = Tensor(_rand(rng, (4, 2, 2)))
        proj = Tensor(_rand(rng, (4, 2, 2)))

        def loss():
            return (fusion.agf_forward(fx, fy, agf) * proj).sum()

        names = ("agf.merge_c.w", "agf.xy.q.w")
        for name, analytic in zip(names, backward(loss(), [store[n] for n in names])):
            t = store[name]
            numeric = oracles.finite_diff_grad(lambda _: loss().item(), t)
            assert max_rel_error(analytic, numeric) <= 1e-4
