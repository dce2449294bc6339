"""The gradient-check suite's call path and its scoring of finite differences."""

import functools
import warnings

import numpy as np
import pytest

import oracles
from ivgf import cli, fusion, gradcheck, tensor
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


def test_two_loss_evaluations_per_entry_and_one_tape_pass(monkeypatch):
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 4)))
    taped, untaped, backward_passes = [], [], []

    def loss_fn():
        (taped if tensor._grad_enabled else untaped).append(1)
        return (sigmoid(x) * w).sum()

    def counted_gradients(*args):
        backward_passes.append(1)
        return named_gradients(*args)

    monkeypatch.setattr(gradcheck, "named_gradients", counted_gradients)
    entries = {"x": {7, 0, 5, 11}}
    err, worst = gradcheck._check_entries(loss_fn, {"x": x}, entries, gradcheck.DEFAULT_TOLERANCE)
    assert (len(taped), len(untaped), len(backward_passes)) == (1, 2 * 4, 1)
    assert err <= gradcheck.DEFAULT_TOLERANCE and worst.startswith("x[")


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
