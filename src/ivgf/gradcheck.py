"""Block-level gradient verification against central finite differences.

Each block is rebuilt with fresh random parameters and inputs per trial;
analytic gradients from the tape are compared entry by entry with an
independent central-difference estimate of the same scalar loss, whose
evaluations re-run, from the calls the tape nodes keep, only the nodes a
perturbed tensor reaches (see `_check_entries`). Where the two one-sided
differences disagree by more than the block tolerance, the step may
straddle a kink (a ReLU switching), so the tape entry is compared with
whichever of the central and the two one-sided differences is closest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backbone, fusion, pipeline
from .errors import ConfigError
from .io_formats import Config
from .params import ParamStore
from .rng import RngState
from .tensor import Tensor, named_gradients, no_grad, trace

DEFAULT_TOLERANCE = 1e-4
COMPOSED_TOLERANCE = 1e-3
FD_EPS = 1e-5
REL_ERROR_FLOOR = 1e-3
PARAM_SCALE = 0.6  # each trial draws every parameter from U(-PARAM_SCALE, PARAM_SCALE)
HEAD_ENTRIES = 48  # entries check_head draws per trial, over all its tensors


@dataclass
class BlockResult:
    block: str
    max_err: float
    tolerance: float
    worst: str  # parameter name and flat index of the worst entry

    @property
    def ok(self) -> bool:
        return self.max_err <= self.tolerance


def rel_errors(a, b) -> np.ndarray:
    """Elementwise |a-b| / max(|a|, |b|, REL_ERROR_FLOOR).

    The floor guards the quotient where both gradients are ~0, where central
    differences only carry roundoff noise.
    """
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_ERROR_FLOOR)


def finite_diff_pair(f, x: Tensor, i: int, eps: float) -> tuple[float, float]:
    """f(x) with flat entry i of x.data moved to x[i]+eps and to x[i]-eps.

    x.data is perturbed in place and restored before returning. Stays fully
    independent of the tape: it only ever evaluates f.
    """
    flat = x.data.reshape(-1)
    orig = flat[i]
    flat[i] = orig + eps
    f_plus = float(f(x))
    flat[i] = orig - eps
    f_minus = float(f(x))
    flat[i] = orig
    return f_plus, f_minus


def _check_entries(loss_fn, tensors: dict, entries: dict, tolerance: float) -> tuple[float, str]:
    """Compare tape gradients of loss_fn against FD on the chosen entries, in index order.

    loss_fn runs once on the tape. Each tensor's first entry is then
    evaluated by two full untaped loss_fn() calls; every later entry
    re-runs, under no_grad, only the tape nodes the tensor reaches through
    their parents, in creation order, each from its `_call` (its .data is
    rebound, and restored afterwards). Kernels are deterministic and never
    mutate their inputs, so a replayed loss equals a full loss_fn() bit for
    bit. A computation that escapes the tape shows in the first entry's
    full evaluations; a node with parents but no `_call` (a kernel that is
    not `@recorded`) fails the block as "<op> (not recorded)", with an
    infinite error.

    The kink test, the choice of difference and the errors then run over all
    of a tensor's entries at once. The worst entry is the first one with the
    largest error; an error that is NaN counts as infinite, worse than any
    finite one. A loss that is not finite has no gradient to compare and
    fails as the loss itself.
    """
    loss = loss_fn()
    f0 = loss.item()
    if not np.isfinite(f0):
        return np.inf, "loss (non-finite)"
    nodes = [node for node in trace(loss).nodes if node._parents]
    for node in nodes:
        if node._call is None:
            return np.inf, f"{node.op} (not recorded)"
    grads = named_gradients(loss, tensors)

    def value(_):
        with no_grad():  # a finite difference only evaluates f
            return loss_fn().item()

    worst_err, worst_name = 0.0, "-"
    for name, idxs in entries.items():
        t = tensors[name]
        idx = np.array(sorted(idxs), dtype=np.int64)
        if not idx.size:
            continue
        pairs = [finite_diff_pair(value, t, int(idx[0]), FD_EPS)]
        if idx.size > 1:
            seen, reached = {t}, []
            for node in nodes:
                if any(p in seen for p in node._parents):
                    seen.add(node)
                    reached.append(node)
            saved = [node.data for node in reached]

            def replay(_):
                with no_grad():
                    for node in reached:
                        kernel, args, kwargs = node._call
                        node.data = kernel(*args, **kwargs).data
                return loss.item()

            pairs += [finite_diff_pair(replay, t, int(i), FD_EPS) for i in idx[1:]]
            for node, data in zip(reached, saved):
                node.data = data
        pairs = np.array(pairs)
        f_plus, f_minus = pairs[:, 0], pairs[:, 1]
        analytic = grads[name].reshape(-1)[idx]
        numeric = (f_plus - f_minus) / (2.0 * FD_EPS)
        right, left = (f_plus - f0) / FD_EPS, (f0 - f_minus) / FD_EPS
        # where the one-sided slopes disagree the step may straddle a kink, where
        # only a one-sided slope is a derivative: take the closest of the three
        candidates = np.stack([numeric, right, left])
        closest = candidates[np.abs(candidates - analytic).argmin(axis=0), np.arange(idx.size)]
        numeric = np.where(rel_errors(right, left) > tolerance, closest, numeric)
        errs = rel_errors(analytic, numeric)
        errs[np.isnan(errs)] = np.inf
        j = int(errs.argmax())
        if errs[j] > worst_err:
            worst_err, worst_name = float(errs[j]), f"{name}[{idx[j]}]"
    return worst_err, worst_name


def _all_entries(tensors: dict) -> dict:
    return {name: range(t.size) for name, t in tensors.items()}


def _randomize(store: ParamStore, rng: RngState):
    for name, p in store.items():
        p.data[...] = rng.derive("randomize", name).fill_uniform(p.data.shape, -PARAM_SCALE, PARAM_SCALE)


def _input(rng: RngState, key, shape) -> Tensor:
    keys = key if isinstance(key, tuple) else (key,)
    return Tensor(rng.derive(*keys).fill_uniform(shape, -1.0, 1.0), requires_grad=True)


def _projection_loss(rng: RngState, key):
    """A loss summing its outputs weighted by a fixed random projection, so gradients stay generic.

    Output i's weights are drawn from rng.derive(key, i) on the first call
    and reused by every later call.
    """
    weights = []

    def loss(*outputs) -> Tensor:
        total = None
        for i, out in enumerate(outputs):
            if i == len(weights):
                weights.append(Tensor(rng.derive(key, i).fill_uniform(out.shape, -1.0, 1.0)))
            term = (out * weights[i]).sum()
            total = term if total is None else total + term
        return total

    return loss


def _worst_trial(block: str, tolerance: float, seed: int, trials: int, key: str, case) -> BlockResult:
    """Check case(rng, trial) for every trial and keep the worst entry seen.

    case returns (loss_fn, tensors, entries, note); note is appended to the
    name of a worst entry found in that trial.
    """
    worst = BlockResult(block, 0.0, tolerance, "-")
    for trial in range(trials):
        loss_fn, tensors, entries, note = case(RngState(seed).derive("gradcheck", key, trial), trial)
        err, name = _check_entries(loss_fn, tensors, entries, tolerance)
        if err > worst.max_err:
            worst.max_err, worst.worst = err, name + note
    return worst


def check_fem(seed: int, trials: int) -> BlockResult:
    def case(rng, trial):
        mode = fusion.FEM_MODES[trial % len(fusion.FEM_MODES)]
        store = ParamStore()
        fem = fusion.build_fem(store, rng, "fem", c=4, mode=mode)
        _randomize(store, rng)
        fx = _input(rng, "fx", (4, 3, 3))
        fy = _input(rng, "fy", (4, 3, 3))
        tensors = dict(store.items()) | {"input.fx": fx, "input.fy": fy}
        project = _projection_loss(rng, "proj")
        return (lambda: project(*fusion.fem_forward(fx, fy, fem)), tensors, _all_entries(tensors),
                f" (mode={mode})")

    return _worst_trial("fem", DEFAULT_TOLERANCE, seed, trials, "fem", case)


def check_tem(seed: int, trials: int) -> BlockResult:
    def case(rng, trial):
        store = ParamStore()
        tem = fusion.build_tem(store, rng, "tem", c=4, n_adapters=2 if trial % 3 else 0)
        _randomize(store, rng)
        tx = _input(rng, "tx", (3, 4))
        ty = _input(rng, "ty", (3, 4))
        tensors = dict(store.items()) | {"input.tx": tx, "input.ty": ty}
        project = _projection_loss(rng, "proj")
        return lambda: project(*fusion.tem_forward(tx, ty, tem)), tensors, _all_entries(tensors), ""

    return _worst_trial("tem", DEFAULT_TOLERANCE, seed, trials, "tem", case)


def check_agf(seed: int, trials: int) -> BlockResult:
    heads_cycle = (1, 2, 4)

    def case(rng, trial):
        store = ParamStore()
        agf = fusion.build_agf(store, rng, "agf", c=4, heads=heads_cycle[trial % 3])
        _randomize(store, rng)
        # keep merge_a's ReLU open: where all its inputs are <= 0, no gradient
        # reaches the attention and a fault there goes unseen
        agf.merge_a_b.data += 1.0
        fx = _input(rng, "fx", (4, 2, 2))
        fy = _input(rng, "fy", (4, 2, 2))
        tensors = dict(store.items()) | {"input.fx": fx, "input.fy": fy}
        project = _projection_loss(rng, "proj")
        return lambda: project(fusion.agf_forward(fx, fy, agf)), tensors, _all_entries(tensors), ""

    return _worst_trial("agf", DEFAULT_TOLERANCE, seed, trials, "agf", case)


def _small_config() -> Config:
    return Config(
        backbone_base_width=8,
        head_width=8,
        head_classes=3,
        data_image_size=32,
    )


def check_head(seed: int, trials: int) -> BlockResult:
    cfg = _small_config()
    base = 8  # scale-1 spatial size for a 32x32 input
    shapes = [(c, base // 2**i, base // 2**i) for i, c in enumerate(cfg.widths())]

    def case(rng, trial):
        store = ParamStore()
        head = pipeline.build_head(store, rng, cfg)
        _randomize(store, rng)
        fused = [_input(rng, ("fused", i), shape) for i, shape in enumerate(shapes)]
        feats = backbone.MultiScaleFeatures(pairs=[], fused=fused)
        tensors = dict(store.items()) | {f"input.fused{i}": f for i, f in enumerate(fused)}
        project = _projection_loss(rng, "proj")
        pick = rng.derive("pick")
        names = sorted(tensors)
        entries: dict = {}
        for _ in range(HEAD_ENTRIES):
            name = names[pick.randint(len(names))]
            entries.setdefault(name, set()).add(pick.randint(tensors[name].size))
        return lambda: project(pipeline.seg_forward(feats, head)), tensors, entries, ""

    return _worst_trial("seg_head", DEFAULT_TOLERANCE, seed, trials, "head", case)


def check_end_to_end(seed: int, trials: int) -> BlockResult:
    """Composed loss through head + fusion blocks + backbone at 32x32."""
    cfg = _small_config()
    groups = ("x.", "y.", "fem", "tem", "agf", "head.")

    def case(rng, trial):
        model = pipeline.build_model(cfg, seed=seed * 1000 + trial)
        size = cfg.data_image_size
        ir = Tensor(rng.derive("ir").fill_uniform((3, size, size)), requires_grad=True)
        vis = Tensor(rng.derive("vis").fill_uniform((3, size, size)), requires_grad=True)
        mask = (rng.derive("mask").fill_uniform((size, size), 0, cfg.head_classes)).astype(np.int64)
        tensors = dict(model.store.items()) | {"input.ir": ir, "input.vis": vis}

        def loss_fn():
            _, logits = pipeline.model_forward(model, ir, vis)
            return pipeline.cross_entropy(logits, mask)

        pick = rng.derive("pick")
        entries: dict = {}
        for prefix in groups:
            names = sorted(n for n in tensors if n.startswith(prefix))
            name = names[pick.randint(len(names))]
            entries.setdefault(name, set()).add(pick.randint(tensors[name].size))
        entries.setdefault("input.ir", set()).add(pick.randint(ir.size))
        return loss_fn, tensors, entries, ""

    return _worst_trial("end_to_end", COMPOSED_TOLERANCE, seed, trials, "e2e", case)


def run_suite(seed: int = 0, trials: int = 20) -> list[BlockResult]:
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    return [
        check_fem(seed, trials),
        check_tem(seed, trials),
        check_agf(seed, trials),
        check_head(seed, trials),
        check_end_to_end(seed, trials),
    ]
