#!/usr/bin/env python3
"""Build and run the HydraDB benchmark on one workload.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the repository's ../src libraries) into
.bench_build/perfbench under the repository root, then runs one workload.
The binary's output is passed through; its last stdout line is the JSON
result. With --trace 1 the per-op and phase spans go to
.bench_build/traces/<workload>-<seed>.jsonl. Exits non-zero, without a
result line, when the build fails; exits non-zero when any answer is wrong.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        except OSError as e:
            sys.stderr.write(f"run.py: cannot run {cmd[0]}: {e}\n")
            return False
        if r.returncode != 0:
            sys.stderr.write(r.stdout + r.stderr)
            sys.stderr.write(f"run.py: build step failed: {' '.join(cmd)}\n")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S}s\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
