#!/usr/bin/env python3
"""Tiny --json sweeps of the shared-sweep benches, each validated by
tools/check_bench_json.py, plus the failed-write case: a bench whose JSON
file cannot be written must exit non-zero.

Registered with ctest (bench/CMakeLists.txt) so a broken sweep or writer
fails the test suite, not only the CI smoke-bench job.

Usage: bench/json_smoke.py BENCH_BIN_DIR SCRATCH_DIR
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "tools" / "check_bench_json.py"
COMMON = ["--pairs", "400", "--max-procs", "2", "--json"]
# (bench, extra flags, JSON file, emits the stamped-loop latency keys)
RUNS = [
    ("fig3_dedicated", ["--real"], "BENCH_fig3.json", False),
    ("ablate_magazine", [], "BENCH_ablate_magazine.json", False),
    ("fig_sharded", ["--shards", "2"], "BENCH_fig_sharded.json", True),
    ("fig_stall", ["--stalls", "0,50"], "BENCH_stall.json", True),
]
LATENCY_KEYS = ("p99_ns", "p999_ns", "injected_stall_ns")


def run(cmd, cwd):
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bin_dir = Path(argv[0]).resolve()
    scratch = Path(argv[1]).resolve()
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    failures = []

    for bench, flags, name, stamped in RUNS:
        status, output = run([str(bin_dir / bench), *flags, *COMMON], scratch)
        if status != 0:
            failures.append(f"{bench} exited {status}:\n{output}")
            continue
        status, output = run([sys.executable, str(CHECKER), name], scratch)
        if status != 0:
            failures.append(f"{name} failed the schema check:\n{output}")
            continue
        doc = json.loads((scratch / name).read_text())
        for series in doc["series"]:
            for point in series["points"]:
                if {k in point for k in LATENCY_KEYS} != {stamped}:
                    failures.append(
                        f"{name} {series['algo']}: latency keys "
                        f"{'missing' if stamped else 'present'}")
                    break
        print(f"ok: {bench} -> {name}")

    # A directory where the JSON file should go: the write must fail loudly.
    blocked = scratch / "blocked"
    (blocked / "BENCH_fig_sharded.json").mkdir(parents=True)
    status, output = run(
        [str(bin_dir / "fig_sharded"), "--shards", "2", *COMMON], blocked)
    if status == 0:
        failures.append(f"fig_sharded exited 0 on a failed write:\n{output}")
    else:
        print(f"ok: failed --json write exits {status}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
