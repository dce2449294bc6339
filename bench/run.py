"""Benchmark of ivgf: training, evaluation and gradient checking on one core.

    python3 bench/run.py --workload {train,eval,verify} --seed N --seconds S --trace {0,1}

Every workload process starts fresh with the BLAS thread count pinned to 1
before numpy loads. With --trace 0 the last line of standard output is a
JSON object holding the end-to-end metrics named in BENCHMARK.json; with
--trace 1 it holds the per-layer metrics of a run whose program functions
are wrapped in timing spans. See README.md beside this file.

This launcher imports neither numpy nor the program. It runs, one after
another: a prepare process (imports the program once and writes the
workload's inputs), SETUP_SAMPLES set-up-only processes, the workload
process itself, which also reports its own set-up time, and SETUP_SAMPLES
more set-up-only processes, so that the set-up samples of a run span its
whole length.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("train", "eval", "verify")
SETUP_SAMPLES = 3  # set-up-only processes before and after the workload process: setup_s is a median of 7
BUDGET_S = 170.0  # the whole run, every child process included
E2E_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child(phase: str, args, run_dir: Path, deadline: float) -> dict:
    """Run worker.py in a fresh process; return the JSON of its last line."""
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--phase", phase, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--run-dir", str(run_dir), "--t0", repr(t0),
    ]
    env = dict(os.environ, **PINNED_ENV)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{phase} process exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def declared_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return fail(f"--seed must be >= 0, got {args.seed}")
    if not 1 <= args.seconds <= 120:
        return fail(f"--seconds must lie in [1, 120], got {args.seconds}")
    for needed in ("src/ivgf/__init__.py", "configs/toy.cfg", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            return fail(f"{needed} not found under {ROOT}; run from a checkout of the repository")

    deadline = time.monotonic() + BUDGET_S
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        child("prepare", args, run_dir, deadline)
        def setup_samples():
            return [] if args.trace else [child("setup", args, run_dir, deadline)["setup_s"]
                                          for _ in range(SETUP_SAMPLES)]

        samples = setup_samples()
        result = child("run", args, run_dir, deadline)
        samples += setup_samples()
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(f"{args.workload}: {exc}")
    finally:
        shutil.rmtree(run_dir / "inputs", ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        samples.append(result["setup_s"])
        metrics["setup_s"] = statistics.median(samples)
        result["setup_samples_s"] = samples
    units = tracing.per_layer_units() if args.trace else E2E_UNITS
    if set(metrics) != set(units) or declared_units(args.trace) != units:
        return fail("the metrics measured differ from those BENCHMARK.json declares")

    env = result["env"]
    print(f"env: cores={env['cores']} usable={env['cores_usable']} blas_threads={env['blas_threads']} "
          f"numpy={env['numpy']} python={env['python']}")
    print(f"{args.workload}: {result['attempted']} ops, p{result['tail_percentile']} tail, "
          f"op_s_p50={result['op_s_p50']:.6f}" + (" (traced)" if args.trace else ""))
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
