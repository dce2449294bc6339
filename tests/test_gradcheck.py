"""The gradient-check suite's call path and its scoring of finite differences."""

import functools
import warnings

import numpy as np
import pytest

import oracles
from ivgf import cli, fusion, gradcheck, pipeline, tensor
from ivgf.errors import ConfigError
from ivgf.tensor import Tensor, named_gradients, sigmoid

CHECKS = ("check_fem", "check_tem", "check_agf", "check_head", "check_end_to_end")


def test_run_suite_calls_each_module_level_check_once(monkeypatch):
    # per-layer timings wrap these module attributes, so run_suite must
    # reach each of them through the module's globals, once per pass
    calls = dict.fromkeys(CHECKS, 0)
    for name in CHECKS:
        def counted(*args, _name=name, _check=getattr(gradcheck, name)):
            calls[_name] += 1
            return _check(*args)

        monkeypatch.setattr(gradcheck, name, counted)
    results = gradcheck.run_suite(0, 1)
    assert calls == dict.fromkeys(CHECKS, 1)
    assert [r.block for r in results] == ["fem", "tem", "agf", "seg_head", "end_to_end"]
    assert all(r.ok for r in results)


@pytest.mark.parametrize("seed", [0, 7, 20, 38])
def test_scoring_matches_the_scalar_per_entry_oracle(monkeypatch, seed):
    # on seeds 20 and 38 the worst end_to_end entry is one whose step straddles
    # a ReLU kink, so it is scored with a one-sided difference
    results = gradcheck.run_suite(seed, 1)
    kinks = []
    monkeypatch.setattr(gradcheck, "_check_entries", functools.partial(oracles.check_entries_naive, kinks=kinks))
    expected = gradcheck.run_suite(seed, 1)
    assert [(r.block, repr(r.max_err), r.worst) for r in results] == [
        (r.block, repr(r.max_err), r.worst) for r in expected
    ]
    assert (results[-1].worst in kinks) == (seed in (20, 38))


def test_one_tape_pass_and_two_full_loss_evaluations_per_tensor(monkeypatch):
    # each tensor's first entry is evaluated by two full loss_fn() calls; its
    # other entries replay the tape nodes from their calls, with no loss_fn() call
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    taped, untaped, backward_passes = [], [], []

    def loss_fn():
        (taped if tensor._grad_enabled else untaped).append(1)
        return (sigmoid(x) * w).sum()

    def counted_gradients(*args):
        backward_passes.append(1)
        return named_gradients(*args)

    monkeypatch.setattr(gradcheck, "named_gradients", counted_gradients)
    entries = {"x": {7, 0, 5, 11}, "w": {2, 9, 4}}
    x_before, w_before = x.data.copy(), w.data.copy()
    err, worst = gradcheck._check_entries(loss_fn, {"x": x, "w": w}, entries, gradcheck.DEFAULT_TOLERANCE)
    assert (len(taped), len(untaped), len(backward_passes)) == (1, 2 * 2, 1)
    assert err <= gradcheck.DEFAULT_TOLERANCE and worst[0] in "xw"
    assert np.array_equal(x.data, x_before) and np.array_equal(w.data, w_before)


@pytest.mark.parametrize("check", CHECKS)
def test_replayed_differences_match_full_loss_evaluations(monkeypatch, check):
    # four trials cover FEM's four wirings, TEM with and without adapters,
    # and AGF at 1, 2 and 4 heads
    result = getattr(gradcheck, check)(0, 4)
    monkeypatch.setattr(gradcheck, "_check_entries", oracles.check_entries_naive)
    expected = getattr(gradcheck, check)(0, 4)
    assert (repr(result.max_err), result.worst) == (repr(expected.max_err), expected.worst)


def test_a_loss_that_escapes_the_tape_fails_as_it_fails_the_oracle():
    # np.tanh on x.data makes a constant the tape never sees; the first
    # entry's full evaluations still see the loss move with it
    rng = np.random.default_rng(5)
    x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)

    def loss_fn():
        return (sigmoid(x) * Tensor(np.tanh(x.data))).sum()

    entries = {"x": set(range(x.size))}
    for check in (gradcheck._check_entries, oracles.check_entries_naive):
        err, worst = check(loss_fn, {"x": x}, entries, gradcheck.DEFAULT_TOLERANCE)
        assert err > gradcheck.DEFAULT_TOLERANCE and worst.startswith("x["), check


def _doubled(t):
    # a kernel on the tape that was never made @recorded: a replay cannot re-run it
    return tensor._node(t.data * 2.0, "doubled", (t,), lambda g: (2.0 * g,))


def test_a_kernel_that_is_not_recorded_fails_the_block(monkeypatch):
    tem_forward = fusion.tem_forward
    monkeypatch.setattr(fusion, "tem_forward", lambda tx, ty, tem: [_doubled(t) for t in tem_forward(tx, ty, tem)])
    result = gradcheck.check_tem(0, 1)
    assert (result.max_err, result.worst, result.ok) == (np.inf, "doubled (not recorded)", False)
    # the oracle, which never replays, finds the same gradients right
    monkeypatch.setattr(gradcheck, "_check_entries", oracles.check_entries_naive)
    assert gradcheck.check_tem(0, 1).ok


def _composed_inputs():
    model = pipeline.build_model(gradcheck._small_config(), seed=0)
    rng = np.random.default_rng(6)
    ir = Tensor(rng.uniform(0, 1, (3, 32, 32)), requires_grad=True)
    vis = Tensor(rng.uniform(0, 1, (3, 32, 32)))
    return model, ir, vis, rng.integers(0, 3, (32, 32))


def test_every_node_of_the_composed_loss_is_recorded():
    # every node with parents keeps the call that made it, whose only tensors
    # are the node's parents, and re-running that call without a tape gives
    # the node's value bit for bit
    model, ir, vis, mask = _composed_inputs()
    _, logits = pipeline.model_forward(model, ir, vis)
    loss = pipeline.cross_entropy(logits, mask)
    nodes = [node for node in tensor.trace(loss).nodes if node._parents]
    assert nodes[-1] is loss and all(node._call is not None for node in nodes)
    with tensor.no_grad():
        for node in nodes:
            kernel, args, kwargs = node._call
            values = [*args, *kwargs.values()]
            values += [p for v in values if isinstance(v, (list, tuple)) for p in v]
            parents = {id(p) for p in node._parents}
            assert all(id(v) in parents for v in values if isinstance(v, Tensor)), node.op
            again = kernel(*args, **kwargs)
            assert again.data.shape == node.data.shape and again.data.tobytes() == node.data.tobytes(), node.op


def test_leaves_and_untaped_outputs_keep_no_call(monkeypatch):
    # predict runs under no_grad, so none of its intermediates holds a call tuple
    model, ir, vis, mask = _composed_inputs()
    made, init = [], Tensor.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tensor, "__init__", keep)
    with tensor.no_grad():
        _, logits = pipeline.model_forward(model, ir, vis)
        loss = pipeline.cross_entropy(logits, mask)
    monkeypatch.undo()
    assert len(made) > 100 and loss in made and logits in made
    assert [] == [t.op for t in made if t._parents or t._call is not None]
    _, taped = pipeline.model_forward(model, ir, vis)
    leaves = [node for node in tensor.trace(taped).nodes if not node._parents]
    assert ir in leaves and all(node._call is None for node in leaves)
    assert [] == [name for name, p in model.store.items() if p._call is not None]


def test_rel_errors_is_elementwise_with_the_floor():
    a = np.array([1.0, 0.0, -2.0, 1e-9, np.nan])
    b = np.array([1.5, 0.0, 2.0, -1e-9, 1.0])
    errs = gradcheck.rel_errors(a, b)
    assert errs.shape == a.shape
    assert np.array_equal(errs[:4], [0.5 / 1.5, 0.0, 2.0, 2e-9 / 1e-3])
    assert np.isnan(errs[4])
    assert oracles.max_rel_error(a[:4], b[:4]) == errs[:4].max()


def test_trials_below_one_is_a_config_error():
    with pytest.raises(ConfigError, match="trials"):
        gradcheck.run_suite(0, 0)


@pytest.mark.parametrize("check", [gradcheck._check_entries, oracles.check_entries_naive],
                         ids=["vectorized", "scalar_oracle"])
def test_nan_tape_gradients_fail_the_block(monkeypatch, check):
    # a NaN error must count as worse than any finite one, not be skipped
    def nan_gradients(loss, params, out=None):
        return {name: np.full(t.shape, np.nan) for name, t in params.items()}

    monkeypatch.setattr(gradcheck, "named_gradients", nan_gradients)
    monkeypatch.setattr(oracles, "named_gradients", nan_gradients)
    monkeypatch.setattr(gradcheck, "_check_entries", check)
    result = gradcheck.check_tem(0, 1)
    assert result.max_err == np.inf and result.worst != "-"
    assert not result.ok


@pytest.mark.parametrize("check", [gradcheck._check_entries, oracles.check_entries_naive],
                         ids=["vectorized", "scalar_oracle"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_trial_loss_is_named_without_differentiating_it(monkeypatch, check, bad):
    x = Tensor(np.ones(3), requires_grad=True)
    evaluations = []

    def loss_fn():
        evaluations.append(1)
        return (x * bad).sum()

    def no_gradients(*args, **kwargs):
        raise AssertionError("a non-finite loss was differentiated")

    monkeypatch.setattr(gradcheck, "named_gradients", no_gradients)
    monkeypatch.setattr(oracles, "named_gradients", no_gradients)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning from scoring a non-finite loss
        assert check(loss_fn, {"x": x}, {"x": {0, 1, 2}}, gradcheck.DEFAULT_TOLERANCE) == (np.inf, "loss (non-finite)")
    assert len(evaluations) == 1  # no finite-difference evaluations


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_trial_loss_fails_its_block_in_the_cli(monkeypatch, capsys):
    tem_forward = fusion.tem_forward
    monkeypatch.setattr(fusion, "tem_forward", lambda tx, ty, tem: [t * np.inf for t in tem_forward(tx, ty, tem)])
    result = gradcheck.check_tem(0, 1)
    assert (result.max_err, result.worst, result.ok) == (np.inf, "loss (non-finite)", False)
    assert cli.main(["gradcheck", "--trials", "1"]) == 1
    assert "tem (loss (non-finite), err inf)" in capsys.readouterr().err


# A ×1.01 backward fault that one trial cannot see: TEM trial 0 has no
# adapters, so no softmax_rows, and one trial of the pooling ops misses it.
SLIGHT_FAULT_TRIALS = {"softmax_rows": 20, "adaptive_avg_pool2d": 20, "adaptive_max_pool2d": 20}


@pytest.fixture(scope="module")
def graph_ops():
    """{check: ops with a backward on its graphs in trials 0-2}, recorded without differentiating."""
    ops = {}

    def record(loss_fn, tensors, entries, tolerance):
        ops[name].update(node.op for node in tensor.trace(loss_fn()).nodes if node._backward_fn is not None)
        return 0.0, "-"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gradcheck, "_check_entries", record)
        for name in CHECKS:
            ops[name] = set()
            getattr(gradcheck, name)(0, 3)
    return ops


@pytest.mark.parametrize("fault", [*oracles.FAULTS, "scale_1.01"])
def test_every_backward_fault_in_every_op_fails_some_block(graph_ops, fault):
    # the fault matrix: whichever op's backward is wrong, a block whose graph
    # holds that op must fail; blocks run in suite order until one does
    transform = oracles.FAULTS.get(fault, lambda g: g * 1.01)
    assert {"softmax_rows", "narrow"} <= graph_ops["check_tem"]  # only TEM trials 1 and 2 have adapters
    missed = []
    for op in sorted(set().union(*graph_ops.values())):
        trials = SLIGHT_FAULT_TRIALS.get(op, 1) if fault == "scale_1.01" else 1
        with pytest.MonkeyPatch.context() as patch:
            oracles.inject_fault(patch, op, transform)
            if all(getattr(gradcheck, name)(0, trials).ok for name in CHECKS if op in graph_ops[name]):
                missed.append(op)
    assert not missed, f"{fault} fault passed every block in {missed}"
