"""Steadiness check of the benchmark itself.

    python3 bench/steady.py [--runs 10] [--first-seed 1]

Runs bench/run.py --runs times per workload in each of two sets, for every
workload of BENCHMARK.json and its run_seconds, with a new seed for every
run, interleaving the workloads so that a slow spell of the machine falls
on all of them. For each workload and end-to-end metric it prints the
median of each set, each set's spread (distance between the first and
third quartile as a share of the median) and the metric's bound from
BENCHMARK.json, and exits 1 unless

  * every spread, that of setup_s too, is within the bound,
  * the second set's median differs from the first's, either way, by no
    more than the bound,
  * the share of failed operations is the same in both sets,
  * every run reported correct outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output, exit code {proc.returncode}")
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set (at least 2)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2")
    workloads = [w["name"] for w in spec["workloads"]]

    results: dict = {(s, w): [] for s in range(SETS) for w in workloads}
    seed = args.first_seed
    for s in range(SETS):
        for _ in range(args.runs):
            for w in workloads:
                started = time.monotonic()
                out = run_once(w, seed, spec["run_seconds"])
                results[(s, w)].append(out)
                summary = " ".join(f"{k}={v['value']:.5g}" for k, v in out["metrics"].items())
                print(f"set {s} {w} seed {seed} ({time.monotonic() - started:.0f} s): correct={out['correct']} "
                      f"attempted={out['attempted']} failed={out['failed']} {summary}", flush=True)
                seed += 1

    ok = True
    print(f"\n{'workload':<8} {'metric':<13} " + " ".join(f"{'median' + str(s):>11} {'spread' + str(s):>8}"
                                                      for s in range(SETS)) + f" {'bound':>6}  status")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, status = [], []
            first = None
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[(s, w)]]
                med, spr = statistics.median(values), spread(values)
                cells.append(f"{med:>11.5g} {spr:>8.3f}")
                if spr > bound:
                    status.append(f"set {s} spread")
                if first is None:
                    first = med
                elif abs(med - first) > bound * first:
                    status.append(f"set {s} median")
            ok &= not status
            print(f"{w:<8} {name:<13} " + " ".join(cells) + f" {bound:>6.2f}  {'ok' if not status else ', '.join(status)}")
        shares = {sum(r["failed"] for r in results[(s, w)]) / sum(r["attempted"] for r in results[(s, w)])
                  for s in range(SETS)}
        correct = all(r["correct"] for s in range(SETS) for r in results[(s, w)])
        print(f"{w:<8} failed share {sorted(shares)}  correct={correct}")
        ok &= len(shares) == 1 and correct
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
