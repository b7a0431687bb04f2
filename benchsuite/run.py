#!/usr/bin/env python3
"""Build msq_bench from this checkout's sources and run one workload.

    python3 benchsuite/run.py --workload pairs --seed 1 --seconds 15 --trace 0

Run from the repository root.  The build goes to .bench_build/msq_bench
(configured once, then incremental).  Build output goes to stderr, so the
last stdout line is msq_bench's result object.  Each run also writes its
full results JSON to --results-dir (default .bench_build/results), which
is what compare.py reads; a traced run adds its Chrome-trace span file.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "msq_bench")
BINARY = os.path.join(BUILD, "msq_bench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def build():
    """Configure (first time) and build msq_bench; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", "-DMSQ_BUILD_TESTS=OFF"])
    steps.append(["cmake", "--build", BUILD, "--target", "msq_bench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(step)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pairs", "deep", "split", "steady"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--results-dir",
                        default=os.path.join(ROOT, ".bench_build", "results"))
    args = parser.parse_args()

    if not build():
        return 2
    os.makedirs(args.results_dir, exist_ok=True)
    stem = os.path.join(args.results_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", stem + ".json"]
    if args.trace == "1":
        cmd += ["--trace-out", stem + ".trace.json"]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: msq_bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
