#!/usr/bin/env python3
"""Tiny --json sweeps of the shared-sweep benches, each validated by
tools/check_bench_json.py, plus the failed-write case: a bench whose JSON
file cannot be written must exit non-zero.

The magazine ablation is also checked for what it compares: its `msq`
baseline must be the paper's shared free list, so at every procs value
`msq+mag` takes under a tenth of `msq`'s shared free-list acquisitions
(pool_get).  A baseline that silently picked up MsQueue's default
magazines would fail here.

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
# (bench, extra flags, JSON file, emits the stamped-loop latency keys).
# Extra flags come after COMMON and override it: the ablation needs enough
# pairs that the magazines' per-thread first refills stay under a tenth of
# the baseline's one acquisition per pair.
RUNS = [
    ("fig3_dedicated", ["--real"], "BENCH_fig3.json", False),
    ("ablate_magazine", ["--pairs", "4000"], "BENCH_ablate_magazine.json",
     False),
    ("fig_sharded", ["--shards", "2"], "BENCH_fig_sharded.json", True),
    ("fig_stall", ["--stalls", "0,50"], "BENCH_stall.json", True),
]
LATENCY_KEYS = ("p99_ns", "p999_ns", "injected_stall_ns")


def run(cmd, cwd):
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def magazine_tripwire(doc):
    """Failures where msq+mag's pool_get is not under a tenth of msq's."""
    pool_get = {
        s["algo"]: {p["procs"]: p["counters"]["pool_get"]["total"]
                    for p in s["points"]}
        for s in doc["series"]
    }
    plain, mag = pool_get["msq"], pool_get["msq+mag"]
    if not any(plain.values()):
        print("note: counters are off in this build; magazine tripwire skipped")
        return []
    return [f"BENCH_ablate_magazine.json procs {procs}: msq+mag pool_get "
            f"{mag[procs]} is not under a tenth of msq's {plain[procs]}"
            for procs in plain if mag[procs] * 10 >= plain[procs]]


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
        status, output = run([str(bin_dir / bench), *COMMON, *flags], scratch)
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
        tripped = magazine_tripwire(doc) if bench == "ablate_magazine" else []
        if tripped:
            failures += tripped
            continue
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
