#!/usr/bin/env python3
"""Run a command and report its wall time and peak resident set size.

    python3 scripts/peak_rss.py ./build/bench/bench_fig12_scalability --clients

The command's own output passes through; the last line printed is
`wall_s=<seconds> peak_rss_mb=<MB>`, where the peak is the largest RSS any
waited-for child reached (getrusage RUSAGE_CHILDREN, ru_maxrss in KiB).
Exits with the command's exit code.
"""
import resource
import subprocess
import sys
import time


def main():
    if len(sys.argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    start = time.monotonic()
    code = subprocess.run(sys.argv[1:]).returncode
    wall = time.monotonic() - start
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"wall_s={wall:.1f} peak_rss_mb={peak_kib / 1024:.0f}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
