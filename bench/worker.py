"""One workload process of the benchmark; started by run.py, never by hand.

Phases (--phase):
  prepare  import the program once and write the workload's inputs
  setup    set up the workload, report the set-up time and exit
  run      set up, warm up, run timed operations in whole rounds until
           --seconds have passed and at least the workload's min_ops are
           done, check every output, report metrics

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ivgf  # noqa: E402
# every module a traced function lives in, so that Tracer.install finds them loaded
from ivgf import augment, backbone, fusion, gradcheck, io_formats, pipeline, tensor  # noqa: E402,F401
from ivgf.rng import RngState  # noqa: E402

import reference  # noqa: E402  (benchmark modules beside this file)
import tracing  # noqa: E402

if Path(ivgf.__file__).resolve().parent != (ROOT / "src" / "ivgf").resolve():
    sys.exit(f"imported ivgf from {ivgf.__file__}, not from {ROOT / 'src'}")

MIN_OPS = 40
TAIL_BEYOND = 10  # operations the tail percentile leaves above it, at least
EVAL_SCENES = 6
MISSING_MODES = ("none", "ir", "vis")
FD_STEPS = (1e-5, 1e-6)  # the smaller step when a ReLU kink lies within the larger
FD_TOLERANCE = 1e-4
FD_FLOOR = 1e-5  # below this gradient size the central difference is mostly roundoff
FD_CANDIDATES = 3  # largest-gradient entries tried per tensor and step
FD_TENSORS = 3  # tensors tried per parameter group
ORACLE_TOLERANCE = 1e-10
ADAMW_TOLERANCE = 1e-12
TINY_CONFIG = dict(backbone_base_width=8, head_width=8, head_classes=3, data_image_size=32)


class Workload:
    """Set-up, one operation per call, and the checks of one workload."""

    name = ""
    warmup_ops = 1
    ops_per_round = 1
    tail_percentile = 50

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.failures: list[str] = []

    @property
    def min_ops(self) -> int:
        """Timed operations a run makes at least, however long that takes."""
        return max(MIN_OPS, -(-TAIL_BEYOND * 100 // (100 - self.tail_percentile)))

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def prepare(self) -> None:
        """Write inputs to disk; runs in its own process before any set-up."""

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, k: int) -> None:
        raise NotImplementedError

    def verify_outputs(self) -> None:
        raise NotImplementedError

    def tape_model(self):
        """(model, ir, vis) whose forward pass gives the tape counts."""
        raise NotImplementedError

    def predict_peak_alloc_mb(self) -> float:
        return 0.0


# -- train ---------------------------------------------------------------------------


class Train(Workload):
    """toy.cfg, batch 2, 64 px, augmentation on; one op is one train_step."""

    name = "train"
    warmup_ops = 3
    tail_percentile = 90
    fd_groups = ("x.", "y.", "fem", "tem", "agf", "head.")

    def setup(self):
        self.cfg = io_formats.load_config(ROOT / "configs" / "toy.cfg")
        self.scenes = pipeline.make_dataset(
            self.seed, "train", self.cfg.data_train_scenes, self.cfg.data_image_size, self.cfg.head_classes
        )
        self.aug_cfg = pipeline.aug_config_from(self.cfg)
        self._start_training()
        self.losses: list[float] = []

    def _start_training(self):
        cfg = self.cfg
        self.model = pipeline.build_model(cfg, self.seed)
        self.optimizer = pipeline.AdamW(self.model.store, lr=cfg.train_lr, weight_decay=cfg.train_weight_decay)
        self.root_rng = RngState(self.seed)
        self.order_rng = self.root_rng.derive("data", "order")

    def _batch(self, step: int):
        batch = [self.scenes[self.order_rng.randint(len(self.scenes))] for _ in range(self.cfg.train_batch_size)]
        return batch, self.root_rng.derive("augment", step)

    def op(self, k):
        batch, aug_rng = self._batch(k)
        self.losses.append(pipeline.train_step(self.model, batch, self.optimizer, self.aug_cfg, aug_rng))

    def verify_outputs(self):
        losses = self.losses
        self.check(all(math.isfinite(x) for x in losses), "a training loss is not finite")
        last = losses[-10:]
        self.check(
            sum(last) / len(last) < losses[0],
            f"mean loss of the last {len(last)} steps {sum(last) / len(last):.4f} is not below the first {losses[0]:.4f}",
        )
        # Replay step 0 on a fresh model: same seed, same first batch.
        self._start_training()
        params = dict(self.model.store.items())
        before = {name: p.data.copy() for name, p in params.items()}
        captured = {}
        optimizer = self.optimizer

        def recording_step(grads):
            captured.update({name: np.array(g, copy=True) for name, g in grads.items()})
            return type(optimizer).step(optimizer, grads)

        optimizer.step = recording_step
        batch, aug_rng = self._batch(0)
        loss0 = pipeline.train_step(self.model, batch, optimizer, self.aug_cfg, aug_rng)
        del optimizer.step
        self.check(loss0 == losses[0], f"replayed first loss {loss0!r} != {losses[0]!r}")
        self.check(set(captured) == set(params), "AdamW.step did not receive one gradient per parameter")

        worst = 0.0
        for name, p in params.items():
            expected = reference.adamw_first_step(before[name], captured[name], self.cfg.train_lr,
                                                     self.cfg.train_weight_decay)
            scale = np.maximum(np.maximum(np.abs(before[name]), np.abs(expected)), self.cfg.train_lr)
            worst = max(worst, float(np.max(np.abs(p.data - expected) / scale)))
        self.check(worst <= ADAMW_TOLERANCE, f"AdamW update differs from the reference by {worst:.3e} (relative)")

        for name, p in params.items():
            p.data[...] = before[name]
        self._check_gradients(params, captured, batch, aug_rng, losses[0])

    def _check_gradients(self, params, grads, batch, aug_rng, loss0):
        """Central differences of the batch loss at one entry per parameter group.

        A central difference is only valid where the loss is smooth between
        its two evaluations. When a ReLU input changes sign there (seen by
        comparing the on/off pattern of every ReLU on the tape), the probe
        moves on: to the next largest entry of the tensor, then to a smaller
        step, then to another tensor of the group. Some ReLU inputs sit
        exactly on the kink at step 0 (zero biases over cutout cells), where
        no step is smooth.
        """
        def batch_loss():
            total, pattern = 0.0, []
            for slot, scene in enumerate(batch):
                ir, vis, _ = augment.cma_apply(scene.ir, scene.vis, self.aug_cfg, aug_rng.derive(slot))
                _, logits = pipeline.model_forward(self.model, ir, vis)
                loss = pipeline.cross_entropy(logits, scene.mask)
                pattern += [(n.data > 0).ravel() for n in tensor.trace(loss).nodes if n.op == "relu"]
                total += loss.item()
            return total / len(batch), np.concatenate(pattern)

        value, pattern = batch_loss()
        self.check(abs(value - loss0) <= 1e-12 * abs(loss0), f"batch loss {value!r} != first train loss {loss0!r}")

        def smooth_difference(name):
            g = grads[name].reshape(-1)
            flat = params[name].data.reshape(-1)
            for h in FD_STEPS:
                for i in np.argsort(-np.abs(g), kind="stable")[:FD_CANDIDATES]:  # most signal first
                    orig = flat[i]
                    flat[i] = orig + h
                    plus, pattern_plus = batch_loss()
                    flat[i] = orig - h
                    minus, pattern_minus = batch_loss()
                    flat[i] = orig
                    if np.array_equal(pattern_plus, pattern) and np.array_equal(pattern_minus, pattern):
                        return i, h, g[i], (plus - minus) / (2.0 * h)
            return None

        pick = np.random.default_rng([self.seed, 0xFD])
        for prefix in self.fd_groups:
            names = sorted(n for n in params if n.startswith(prefix))
            for name in pick.permutation(names)[:FD_TENSORS]:
                probe = smooth_difference(name)
                if probe is not None:
                    break
            else:
                self.check(False, f"no smooth entry found in {FD_TENSORS} tensors of group {prefix}")
                continue
            i, h, analytic, numeric = probe
            err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), FD_FLOOR)
            self.check(err <= FD_TOLERANCE, f"gradient of {name}[{i}]: tape {analytic:.6e}, central difference "
                                            f"(step {h:g}) {numeric:.6e}, relative error {err:.2e}")

    def tape_model(self):
        scene = self.scenes[0]
        return self.model, scene.ir, scene.vis


# -- eval ----------------------------------------------------------------------------


class Eval(Workload):
    """PNM scenes and a float32 checkpoint from disk; one op predicts one scene."""

    name = "eval"
    warmup_ops = len(MISSING_MODES)
    ops_per_round = EVAL_SCENES * len(MISSING_MODES)
    tail_percentile = 98

    @property
    def inputs(self) -> Path:
        return self.run_dir / "inputs"

    def prepare(self):
        cfg = io_formats.load_config(ROOT / "configs" / "toy.cfg")
        self.inputs.mkdir(parents=True, exist_ok=True)
        for i, (ir, vis, mask) in enumerate(reference.make_scenes(self.seed, EVAL_SCENES, cfg.data_image_size,
                                                            cfg.head_classes)):
            for tag, pixels in (("ir.ppm", ir), ("vis.ppm", vis), ("mask.pgm", mask)):
                (self.inputs / f"scene_{i}_{tag}").write_bytes(reference.pnm_bytes(pixels))
        saved = pipeline.build_model(cfg, self._checkpoint_seed())
        named = [(name, p.data) for name, p in saved.store.items()]
        (self.inputs / "model.ckpt").write_bytes(reference.checkpoint_bytes(named))

    def _checkpoint_seed(self) -> int:
        return self.seed + 1  # differs from the set-up model's seed, so a lost load shows

    def setup(self):
        self.cfg = io_formats.load_config(ROOT / "configs" / "toy.cfg")
        self.scenes = [
            (
                io_formats.read_pnm_file(self.inputs / f"scene_{i}_ir.ppm"),
                io_formats.read_pnm_file(self.inputs / f"scene_{i}_vis.ppm"),
                io_formats.read_pgm_labels(self.inputs / f"scene_{i}_mask.pgm"),
            )
            for i in range(EVAL_SCENES)
        ]
        self.model = pipeline.build_model(self.cfg, self.seed)
        self.model.store.load_arrays(io_formats.load_checkpoint(self.inputs / "model.ckpt").arrays())
        self.cm = pipeline.ConfusionMatrix(self.cfg.head_classes)
        self.predictions: dict = {}
        self.mismatched: list = []
        self.count: dict = {}

    def op(self, k):
        scene, mode = (k // len(MISSING_MODES)) % EVAL_SCENES, MISSING_MODES[k % len(MISSING_MODES)]
        ir, vis, mask = self.scenes[scene]
        pred = pipeline.predict(self.model, ir, vis, mode)
        self.cm.update(mask, pred)
        key = (scene, mode)
        first = self.predictions.setdefault(key, pred)
        if first is not pred and not np.array_equal(first, pred):
            self.mismatched.append(key)
        self.count[key] = self.count.get(key, 0) + 1

    def verify_outputs(self):
        classes = self.cfg.head_classes
        expected_scenes = reference.make_scenes(self.seed, EVAL_SCENES, self.cfg.data_image_size, classes)
        for i, ((ir, vis, mask), (ir8, vis8, mask8)) in enumerate(zip(self.scenes, expected_scenes)):
            self.check(np.array_equal(ir.data, ir8.transpose(2, 0, 1) / 255.0), f"scene {i}: ir image misread")
            self.check(np.array_equal(vis.data, vis8.transpose(2, 0, 1) / 255.0), f"scene {i}: vis image misread")
            self.check(np.array_equal(mask, mask8), f"scene {i}: label map misread")

        self.check(not self.mismatched, f"predictions changed between rounds for {self.mismatched[:3]}")
        counts = np.zeros((classes, classes), dtype=np.int64)
        for key, times in self.count.items():
            pred = self.predictions[key]
            self.check(pred.shape == expected_scenes[key[0]][2].shape, f"prediction {key} has shape {pred.shape}")
            counts += times * reference.confusion(expected_scenes[key[0]][2], pred, classes)
        self.check(np.array_equal(self.cm.counts, counts), "confusion matrix differs from the recount")
        overall, _ = pipeline.miou(self.cm)
        self.check(overall == reference.mean_iou(counts), f"mIoU {overall!r} != recomputed {reference.mean_iou(counts)!r}")

        saved = pipeline.build_model(self.cfg, self._checkpoint_seed())
        for name, p in self.model.store.items():
            rounded = saved.store[name].data.astype(np.float32).astype(np.float64)
            self.check(np.array_equal(p.data, rounded), f"loaded parameter {name} != float32-rounded saved value")
        del saved

        index = self.seed % EVAL_SCENES
        ir, vis, _ = self.scenes[index]
        feats, _ = pipeline.model_forward(self.model, ir, vis)
        for scale, ((fx, fy), fused) in enumerate(zip(feats.pairs, feats.fused)):
            oracle = reference.agf(fx.data, fy.data, self.model.encoder.agf[scale])
            err = float(np.max(np.abs(oracle - fused.data)))
            self.check(err <= ORACLE_TOLERANCE * max(1.0, float(np.max(np.abs(oracle)))),
                       f"scene {index} scale {scale + 1}: fused features differ from the loop oracle by {err:.3e}")
        for mode, pair in (("ir", (vis, vis)), ("vis", (ir, ir))):
            logits = pipeline.model_forward(self.model, ir, vis, mode)[1].data
            expected = pipeline.model_forward(self.model, *pair)[1].data
            self.check(np.array_equal(logits, expected)
                       and np.array_equal(pipeline.predict(self.model, ir, vis, mode), expected.argmax(axis=0)),
                       f"scene {index}: missing={mode} differs from predicting on the substituted pair")

    def tape_model(self):
        ir, vis, _ = self.scenes[0]
        return self.model, ir, vis

    def predict_peak_alloc_mb(self):
        import tracemalloc

        ir, vis, _ = self.scenes[0]
        tracemalloc.start()
        try:
            pipeline.predict(self.model, ir, vis, "none")
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


# -- verify --------------------------------------------------------------------------


class Verify(Workload):
    """gradcheck.run_suite at its tiny config, one trial; one op is one suite pass.

    Every op runs suite seed 0, the CLI's default, whatever --seed is: on
    other suite seeds the end_to_end block's central differences can
    straddle a ReLU kink and report a violation that is not one.
    """

    name = "verify"
    tail_percentile = 75
    suite_seed = 0
    blocks = {"fem": 1e-4, "tem": 1e-4, "agf": 1e-4, "seg_head": 1e-4, "end_to_end": 1e-3}

    def setup(self):
        pass  # the suite builds everything it needs inside each pass

    def op(self, k):
        results = gradcheck.run_suite(seed=self.suite_seed, trials=1)
        got = {r.block: r for r in results}
        self.check(len(results) == len(self.blocks) and set(got) == set(self.blocks), f"op {k}: blocks {sorted(got)}")
        for block, tolerance in self.blocks.items():
            r = got.get(block)
            if r is not None:
                self.check(r.tolerance == tolerance and r.max_err <= tolerance,
                           f"op {k}: {block} error {r.max_err:.3e} (tolerance {r.tolerance:g}) at {r.worst}")

    def verify_outputs(self):
        pass  # every suite pass is checked as it returns

    def tape_model(self):
        cfg = io_formats.Config(**TINY_CONFIG)
        model = pipeline.build_model(cfg, self.seed)
        shape = (3, cfg.data_image_size, cfg.data_image_size)
        rng = RngState(self.seed)
        return model, tensor.Tensor(rng.derive("ir").fill_uniform(shape)), tensor.Tensor(rng.derive("vis").fill_uniform(shape))


WORKLOADS = {w.name: w for w in (Train, Eval, Verify)}


# -- measurement ------------------------------------------------------------------------


def percentile(values, pct: float) -> float:
    """Nearest rank: the smallest value with at least pct% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def environment() -> dict:
    import platform

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, else the pinned value."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(workload: Workload, start: int, count: int, times: list, tracer, label: str) -> int:
    failed = 0
    for k in range(start, start + count):
        t = time.perf_counter()
        try:
            with span(tracer, label):
                workload.op(k)
        except Exception:  # an operation that raises counts as failed; the run goes on
            failed += 1
            traceback.print_exc()
        times.append(time.perf_counter() - t)
    return failed


def per_layer(workload: Workload, tracer: tracing.Tracer) -> dict:
    metrics = {}
    calls, self_s = tracer.summary("op")
    ops = calls["op"]
    for name in tracing.OP_FUNCTIONS:
        metrics[f"{name}.calls_per_op"] = calls.get(name, 0) / ops
        metrics[f"{name}.self_ms_per_op"] = 1000.0 * self_s.get(name, 0.0) / ops
    calls, self_s = tracer.summary("setup")
    setups = calls["setup"]
    for name in tracing.SETUP_FUNCTIONS:
        metrics[f"{name}.calls_per_setup"] = calls.get(name, 0) / setups
        metrics[f"{name}.self_ms_per_setup"] = 1000.0 * self_s.get(name, 0.0) / setups
    model, ir, vis = workload.tape_model()
    nodes = tensor.trace(pipeline.model_forward(model, ir, vis)[1]).nodes
    metrics["tensor.nodes_per_forward"] = len(nodes)
    for op in tracing.TAPE_OPS:
        metrics[f"tensor.nodes.{op}"] = sum(1 for node in nodes if node.op == op)
    metrics["pipeline.predict.peak_alloc_mb"] = workload.predict_peak_alloc_mb()
    metrics["params.tensors"] = len(model.store)
    metrics["params.values"] = int(sum(p.data.size for _, p in model.store.items()))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--phase", choices=("prepare", "setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when run.py started this process")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, Path(args.run_dir))
    if args.phase == "prepare":
        workload.prepare()
        print(json.dumps({"prepared": True}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    with span(tracer, "setup"):
        workload.setup()
    setup_s = time.monotonic() - args.t0
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    failed_warmup = run_ops(workload, 0, workload.warmup_ops, [], tracer, "warmup")
    times: list = []
    failed = 0
    k = workload.warmup_ops
    cpu0, wall0 = time.process_time(), time.perf_counter()
    while True:
        failed += run_ops(workload, k, workload.ops_per_round, times, tracer, "op")
        k += workload.ops_per_round
        if time.perf_counter() - wall0 >= args.seconds and len(times) >= workload.min_ops:
            break
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()  # the checks below are not traced

    workload.check(failed_warmup == 0, f"{failed_warmup} warm-up operations failed")
    try:
        workload.verify_outputs()
    except Exception as exc:
        traceback.print_exc()
        workload.check(False, f"output check raised {type(exc).__name__}: {exc}")

    ops = len(times)
    result = {"attempted": ops, "failed": failed, "setup_s": setup_s, "op_s_p50": statistics.median(times),
              "tail_percentile": workload.tail_percentile, "env": environment()}
    if tracer is None:
        result["metrics"] = {
            "op_s_p50": statistics.median(times),
            "op_s_tail": percentile(times, workload.tail_percentile),
            "ops_per_s": ops / wall,
            "cpu_s_per_op": cpu / ops,
            "peak_rss_mb": rss,
        }
    else:
        result["metrics"] = per_layer(workload, tracer)
        for fault in tracer.nesting_faults()[:3]:
            workload.check(False, f"trace: {fault}")
        _, self_s = tracer.summary("op")
        wrapped_s = sum(v for name, v in self_s.items() if name != "op")
        op_s = sum(times)  # timed apart from the spans, around each operation
        workload.check(wrapped_s <= op_s, f"wrapped self time {wrapped_s:.3f} s exceeds operation time {op_s:.3f} s")
        result["wrapped_self_share"] = wrapped_s / op_s
        trace_path = Path(args.run_dir) / "trace.jsonl"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    result.update(correct=not workload.failures, failures=workload.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
