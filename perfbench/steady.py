#!/usr/bin/env python3
"""Steadiness self-check for the HydraDB benchmark.

    python3 perfbench/steady.py

Runs every workload in BENCHMARK.json ten times through perfbench/run.py,
with seeds 1..10, for BENCHMARK.json's run_seconds. For every end-to-end
metric it prints the median, the quartiles and the spread (Q3 - Q1) / median
next to the metric's regression bound; a spread above a third of the bound
is flagged, and a spread above the bound is marked OVER. Exits non-zero
when a run fails, answers wrongly, or any spread, setup_s's included,
exceeds its bound.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout + r.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit code {r.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            runs.append(run_once(workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        print(f"\n{workload}: {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
            ok = ok and spread <= bound
            print(f"{workload}: {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6} {verdict}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
