"""Reverse-mode correctness: backward semantics plus finite-difference
checks for every differentiable kernel (20 random trials each)."""

import math

import numpy as np
import pytest

from ivgf import pipeline
from ivgf.errors import DimensionError
from ivgf.io_formats import Config
from ivgf.pipeline import cross_entropy
from ivgf.tensor import (
    Tensor,
    adaptive_pool,
    attention,
    backward,
    concat,
    conv2d,
    feature_map,
    layer_norm,
    linear,
    named_gradients,
    narrow,
    no_grad,
    relu,
    reshape,
    sigmoid,
    softmax_rows,
    tokens,
    trace,
    upsample_nearest,
)
from oracles import finite_diff_grad, max_rel_error

TRIALS = 20
TOL = 1e-4


def _leaf(rng, shape):
    return Tensor(rng.uniform(-1, 1, shape), requires_grad=True)


def _proj_loss(rng, out):
    return (out * Tensor(rng.uniform(-1, 1, out.shape))).sum()


def _check(build_loss, leaves, trial_seed):
    """Compare tape gradients with central differences on every leaf entry."""
    analytic = dict(zip(leaves, backward(build_loss(), leaves.values())))
    for name, t in leaves.items():
        numeric = finite_diff_grad(lambda _: build_loss().item(), t)
        err = max_rel_error(analytic[name], numeric)
        assert err <= TOL, f"{name} gradient mismatch (err {err:.2e}, trial seed {trial_seed})"


class TestBackwardSemantics:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 4)), requires_grad=True)
        (gx,) = backward(x.sum(), [x])
        assert np.array_equal(gx, np.ones((3, 4)))

    def test_unreached_parameter_gets_zero_in_named_set(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0], requires_grad=True)
        grads = named_gradients(x.sum(), {"x": x, "y": y})
        assert np.array_equal(grads["x"], [1.0, 1.0])
        assert np.array_equal(grads["y"], [0.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            backward(x + x, [x])

    def test_graph_with_no_parameters_yields_empty_set(self):
        loss = (Tensor(np.ones(4)) * Tensor(np.ones(4))).sum()
        assert named_gradients(loss, {}) == {}

    def test_trace_is_in_forward_creation_order(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (relu(x) * sigmoid(x)).sum()
        graph = trace(loss)
        seqs = [node._seq for node in graph.nodes]
        assert seqs == sorted(seqs)
        assert graph.nodes[-1] is loss

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        (gx,) = backward((x * x).sum(), [x])  # d(x^2)/dx = 2x
        assert np.allclose(gx, [4.0])

    def test_unreached_tensor_gets_zeros(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        unused = Tensor(np.ones((4, 1)), requires_grad=True)
        gx, gu = backward((x * x).sum(), [x, unused])
        assert np.array_equal(gx, np.full((2, 3), 2.0))
        assert gu.shape == (4, 1) and not gu.any()

    def test_inputs_left_unmodified(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        y = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        loss = (relu(x * y) + x).sum()
        x_before, y_before, loss_before = x.data.copy(), y.data.copy(), loss.data.copy()
        first = backward(loss, [x, y])
        assert np.array_equal(x.data, x_before) and np.array_equal(y.data, y_before)
        assert np.array_equal(loss.data, loss_before)
        for a, b in zip(first, backward(loss, [x, y])):  # nothing carried over between calls
            assert np.array_equal(a, b)

    @staticmethod
    def _calls(loss, wrt):
        """backward's on_ready calls as (index, copy of the gradient), in call order."""
        calls = []
        backward(loss, wrt, lambda i, g: calls.append((i, g.copy())))
        return calls

    def test_on_ready_gets_one_call_per_tensor_bit_equal_to_the_fresh_gradient(self):
        # x is reached three times (x * y, and x * x as two edges), so its
        # gradient is complete only after the last of the three has run
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        y = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        loss = (relu(x * y) + x * x).sum()
        mask = (x.data * y.data > 0.0) * 1.0
        # the sums in the walk's order: x * x's two edges, then relu's
        fresh = [(x.data + x.data) + mask * y.data, mask * x.data]
        calls = self._calls(loss, [x, y])
        assert sorted(i for i, _ in calls) == [0, 1]
        for i, got in calls:
            assert np.array_equal(got, fresh[i])
        for got, want in zip(backward(loss, [x, y]), fresh):
            assert np.array_equal(got, want)

    def test_each_leaf_is_ready_once_its_last_consumer_has_run(self):
        # the forward pass consumes x, then w1 (twice), then w2 (twice), so the
        # walk finishes w2 first; writing each leaf's .data as it is handed
        # over (as an optimizer would) leaves every other gradient as it was
        rng = np.random.default_rng(4)
        x, w1, w2 = (Tensor(rng.uniform(-1, 1, 5), requires_grad=True) for _ in range(3))

        def loss():
            h = (relu(x) * w1) * w1
            return (sigmoid(h * w2) * w2).sum()

        fresh = backward(loss(), [x, w1, w2])
        order = []

        def update(i, g):
            order.append(i)
            assert np.array_equal(g, fresh[i])
            (x, w1, w2)[i].data[...] = np.nan

        backward(loss(), [w1, w2, x], lambda i, g: update((1, 2, 0)[i], g))
        assert order == [2, 1, 0]

    def test_array_handed_to_both_parents_is_never_summed_into(self):
        # add's backward hands one array object to x + y's two parents and to x
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        loss = ((x + y) + x).sum()
        gx, gy = backward(loss, [x, y])
        assert np.array_equal(gx, [2.0, 2.0, 2.0]) and np.array_equal(gy, [1.0, 1.0, 1.0])
        calls = dict(self._calls(loss, [x, y]))
        assert np.array_equal(calls[0], [2.0, 2.0, 2.0]) and np.array_equal(calls[1], [1.0, 1.0, 1.0])

    def test_unreached_tensor_is_called_with_zeros_at_the_end(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        calls = []
        named_gradients(x.sum(), {"y": y, "x": x}, on_ready=lambda name, g: calls.append((name, g.copy())))
        assert [name for name, _ in calls] == ["x", "y"]
        assert np.array_equal(calls[0][1], [1.0, 1.0, 1.0]) and np.array_equal(calls[1][1], [0.0, 0.0])

    def test_repeated_calls_carry_nothing_over(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        params = {"x": x, "y": y}
        both, x_only = (x * y.sum()).sum(), x.sum()
        for loss, want_y in ((both, [3.0, 3.0]), (x_only, [0.0, 0.0]), (both, [3.0, 3.0])):
            calls = {}
            named_gradients(loss, params, on_ready=lambda name, g: calls.__setitem__(name, g.copy()))
            assert np.array_equal(calls["y"], want_y)
            assert np.array_equal(calls["x"], named_gradients(loss, params)["x"])

    def test_wrt_tensor_with_parents_is_called_and_still_passes_its_gradient_on(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = x * x
        loss = (h * h).sum()  # d/dh = 2h, d/dx = 2h * 2x
        calls = self._calls(loss, [h, x])
        assert [i for i, _ in calls] == [0, 1]
        assert np.array_equal(calls[0][1], 2.0 * h.data)
        assert np.array_equal(calls[1][1], backward(loss, [x])[0])
        assert np.array_equal(calls[1][1], 4.0 * h.data * x.data)

    def test_same_tensor_twice_in_wrt_gets_both_slots(self):
        x = Tensor(np.ones(2), requires_grad=True)
        gx, again = backward((x * x).sum(), [x, x])
        assert np.array_equal(gx, [2.0, 2.0]) and again is gx


class TestNoGrad:
    CFG = Config(backbone_base_width=8, head_width=8, data_image_size=32)

    def _scene(self, seed):
        scene = pipeline.make_dataset(seed, "eval", 1, 32, 4)[0]
        return scene.ir, scene.vis, scene.mask

    def test_model_forward_builds_no_tape(self):
        model = pipeline.build_model(self.CFG, seed=0)
        ir, vis, _ = self._scene(1)
        with no_grad():
            feats, logits = pipeline.model_forward(model, ir, vis)
        for t in [logits, *feats.fused, *(f for pair in feats.pairs for f in pair)]:
            assert t._parents == () and t._backward_fn is None and not t.requires_grad
        assert trace(logits).nodes == [logits]

    def test_values_match_the_taped_forward_bitwise(self):
        model = pipeline.build_model(self.CFG, seed=0)
        ir, vis, _ = self._scene(2)
        taped = pipeline.model_forward(model, ir, vis)[1]
        with no_grad():
            free = pipeline.model_forward(model, ir, vis)[1]
        assert len(trace(taped).nodes) > 1
        assert np.array_equal(free.data, taped.data)

    def test_previous_state_returns_after_a_raise_and_when_nested(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError):
            with no_grad():
                backward(x + x, [x])  # non-scalar loss
        assert (x * x)._parents == (x, x)
        with no_grad():
            with no_grad():
                assert (x * x)._parents == ()
            assert (x * x)._parents == ()  # the outer block is still active
        assert (x * x)._backward_fn is not None

    def test_taped_forward_after_a_no_grad_block_gives_fresh_gradients(self):
        ir, vis, mask = self._scene(3)

        def gradients():
            model = pipeline.build_model(self.CFG, seed=5)
            loss = cross_entropy(pipeline.model_forward(model, ir, vis)[1], mask)
            return named_gradients(loss, dict(model.store.items()))

        fresh = gradients()
        with no_grad():
            pipeline.model_forward(pipeline.build_model(self.CFG, seed=5), ir, vis)
        after = gradients()
        assert fresh.keys() == after.keys()
        for name in fresh:
            assert np.array_equal(fresh[name], after[name]), name


class TestFiniteDiffOracle:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0])
        grad = finite_diff_grad(lambda t: float((t.data ** 2).sum()), x)
        assert np.max(np.abs(grad - [2.0, 4.0])) < 1e-6

    def test_constant_function(self):
        x = Tensor(np.ones((2, 3)))
        assert np.array_equal(finite_diff_grad(lambda t: 5.0, x), np.zeros((2, 3)))

    def test_softmax_dot_matches_analytic_jacobian(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.uniform(-1, 1, 5))
        v = rng.uniform(-1, 1, 5)

        def f(t):
            e = np.exp(t.data - t.data.max())
            return float((e / e.sum()) @ v)

        numeric = finite_diff_grad(f, x)
        e = np.exp(x.data - x.data.max())
        s = e / e.sum()
        analytic = (np.diag(s) - np.outer(s, s)) @ v
        assert np.max(np.abs(numeric - analytic)) < 1e-6

    def test_restores_input(self):
        x = Tensor([1.0, 2.0, 3.0])
        before = x.data.copy()
        finite_diff_grad(lambda t: float(t.data.sum()), x)
        assert np.array_equal(x.data, before)


class TestKernelGradients:
    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_conv2d(self, trial):
        rng = np.random.default_rng(100 + trial)
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        k = 3 if rng.integers(2) else 1
        x = _leaf(rng, (2, 5, 5))
        w = _leaf(rng, (3, 2, k, k))
        b = _leaf(rng, 3)
        _check(lambda: _proj_loss(np.random.default_rng(trial), conv2d(x, w, b, stride, padding)),
               {"x": x, "w": w, "b": b}, trial)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_linear(self, trial):
        rng = np.random.default_rng(200 + trial)
        x = _leaf(rng, (3, 4))
        w = _leaf(rng, (5, 4))
        b = _leaf(rng, 5)
        _check(lambda: _proj_loss(np.random.default_rng(trial), linear(x, w, b)),
               {"x": x, "w": w, "b": b}, trial)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_layer_norm(self, trial):
        rng = np.random.default_rng(300 + trial)
        x = _leaf(rng, (3, 6))
        g = _leaf(rng, 6)
        b = _leaf(rng, 6)
        _check(lambda: _proj_loss(np.random.default_rng(trial), layer_norm(x, g, b)),
               {"x": x, "g": g, "b": b}, trial)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_softmax_rows(self, trial):
        rng = np.random.default_rng(400 + trial)
        x = _leaf(rng, (4, 5))
        _check(lambda: _proj_loss(np.random.default_rng(trial), softmax_rows(x)), {"x": x}, trial)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_log_softmax_rows(self, trial):
        # the log-softmax lives inside cross_entropy: 4 pixels of 5 class logits
        rng = np.random.default_rng(450 + trial)
        x = _leaf(rng, (5, 2, 2))
        mask = rng.integers(0, 5, (2, 2))
        _check(lambda: cross_entropy(x, mask), {"x": x}, trial)

    @pytest.mark.parametrize("trial", range(TRIALS))
    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_adaptive_pool2d(self, mode, trial):
        rng = np.random.default_rng(500 + trial)
        x = _leaf(rng, (3, 6, 5))
        _check(lambda: _proj_loss(np.random.default_rng(trial), adaptive_pool(x, mode, (1, 1))),
               {"x": x}, trial)

    @pytest.mark.parametrize("trial", range(TRIALS))
    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_adaptive_pool_rows(self, mode, trial):
        rng = np.random.default_rng(600 + trial)
        x = _leaf(rng, (4, 8))
        _check(lambda: _proj_loss(np.random.default_rng(trial), adaptive_pool(x, mode, 2)),
               {"x": x}, trial)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_elementwise_and_shape_ops(self, trial):
        rng = np.random.default_rng(700 + trial)
        x = _leaf(rng, (3, 4))
        y = _leaf(rng, (3, 4))
        row = _leaf(rng, (1, 4))  # broadcast path

        def build():
            z = (x * y + row + x * -0.5) * 0.5
            z = relu(z) + sigmoid(z)
            first_cols = reshape(feature_map(narrow(tokens(reshape(z, (3, 4, 1))), 0, 0, 2), 2, 1), (3, 2))
            z = concat([z, first_cols * narrow(z, 1, 2, 2)], axis=1)  # [3,6]
            z = narrow(z, 1, 2, 3)  # spans the concat seam
            return _proj_loss(np.random.default_rng(trial), reshape(z, (9,)))

        _check(build, {"x": x, "y": y, "row": row}, trial)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_tokens_feature_map(self, trial):
        rng = np.random.default_rng(1000 + trial)
        c, h, w = 3, 1 + trial % 3, 2 + trial % 2
        fmap = _leaf(rng, (c, h, w))
        rows = _leaf(rng, (h * w, c))
        _check(lambda: _proj_loss(np.random.default_rng(trial), feature_map(tokens(fmap) * rows, h, w)),
               {"fmap": fmap, "rows": rows}, trial)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_attention(self, trial):
        rng = np.random.default_rng(900 + trial)
        heads = (1, 2, 4)[trial % 3]
        q = _leaf(rng, (3, 4))
        k = _leaf(rng, (5, 4))
        v = _leaf(rng, (5, 4))
        _check(lambda: _proj_loss(np.random.default_rng(trial), attention(q, k, v, heads)),
               {"q": q, "k": k, "v": v}, trial)

    @pytest.mark.parametrize("trial", range(TRIALS))
    def test_upsample_nearest(self, trial):
        rng = np.random.default_rng(800 + trial)
        x = _leaf(rng, (2, 3, 3))
        _check(lambda: _proj_loss(np.random.default_rng(trial), upsample_nearest(x, 2)), {"x": x}, trial)


BATCH_TRIALS = 5


class TestBatchedKernelGradients:
    """Central differences through the leading batch axis of each kernel that has one."""

    @pytest.mark.parametrize("trial", range(BATCH_TRIALS))
    def test_conv2d(self, trial):
        rng = np.random.default_rng(1100 + trial)
        stride, padding = 1 + trial % 2, trial % 2
        k = (1, 3)[trial % 2] if trial < 4 else 3
        x = _leaf(rng, (2, 2, 5, 5))
        w = _leaf(rng, (3, 2, k, k))
        b = _leaf(rng, 3)
        _check(lambda: _proj_loss(np.random.default_rng(trial), conv2d(x, w, b, stride, padding)),
               {"x": x, "w": w, "b": b}, trial)

    @pytest.mark.parametrize("trial", range(BATCH_TRIALS))
    def test_tokens_feature_map(self, trial):
        rng = np.random.default_rng(1200 + trial)
        items, c, h, w = 2 + trial % 2, 3, 1 + trial % 3, 2
        fmap = _leaf(rng, (items, c, h, w))
        rows = _leaf(rng, (items * h * w, c))
        _check(lambda: _proj_loss(np.random.default_rng(trial), feature_map(tokens(fmap) * rows, h, w, (items,))),
               {"fmap": fmap, "rows": rows}, trial)

    @pytest.mark.parametrize("trial", range(BATCH_TRIALS))
    def test_attention_with_items(self, trial):
        rng = np.random.default_rng(1300 + trial)
        heads, items = (1, 2, 4)[trial % 3], 2 + trial % 2
        q = _leaf(rng, (items * 3, 4))
        k = _leaf(rng, (items * 5, 4))
        v = _leaf(rng, (items * 5, 4))
        _check(lambda: _proj_loss(np.random.default_rng(trial), attention(q, k, v, heads, items)),
               {"q": q, "k": k, "v": v}, trial)

    @pytest.mark.parametrize("trial", range(BATCH_TRIALS))
    def test_upsample_nearest(self, trial):
        rng = np.random.default_rng(1400 + trial)
        x = _leaf(rng, (2, 2, 3, 3))
        _check(lambda: _proj_loss(np.random.default_rng(trial), upsample_nearest(x, 1 + trial % 3)), {"x": x}, trial)

    @pytest.mark.parametrize("trial", range(BATCH_TRIALS))
    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_adaptive_pool2d(self, mode, trial):
        rng = np.random.default_rng(1500 + trial)
        x = _leaf(rng, (2, 3, 4, 5))
        _check(lambda: _proj_loss(np.random.default_rng(trial), adaptive_pool(x, mode, (1, 1))), {"x": x}, trial)

    @pytest.mark.parametrize("trial", range(BATCH_TRIALS))
    def test_cross_entropy(self, trial):
        rng = np.random.default_rng(1600 + trial)
        x = _leaf(rng, (2 + trial % 2, 4, 2, 3))
        mask = rng.integers(0, 4, (x.shape[0], 2, 3))
        mask[0, 0, :2] = 255  # items with different pixel counts weigh their pixels differently
        _check(lambda: cross_entropy(x, mask), {"x": x}, trial)
