#!/usr/bin/env python3
"""The bench smoke: scaled-down runs of the --json benches, each file validated by
tools/check_bench_json.py (whose sweep rules include: latency keys present
on exactly the "real" series, elapsed >= net), plus what each bench exists
to show and the failed-write case.

Runs:
  * the shared-sweep benches: fig3 (--real --pin, so the segment-queue real
    series and the CPU-affinity path run end to end), fig4, fig5, the
    magazine ablation, fig_sharded and fig_stall;
  * fig_memory, scaled down: under the injected slow consumer the scq's
    peak stays within its fixed capacity while the pool-backed MS queue
    strands more nodes than the scq will ever hold, and msq_hp (plain
    heap) reports no allocation ceiling; plus `--families valois`, which
    must still select a single family and exit 0;
  * the open-loop scenario suite, scaled down: 4 presets x 4 families
    (msq, segq, wfq, ring), and the flash crowd must actually hit the
    ring's bound (burst100/ring shed > 0) -- a zero there means the
    open-loop pacing silently degraded to closed loop.

The magazine ablation is also checked for what it compares: its `msq`
baseline must be the paper's shared free list, so at every procs value
`msq+mag` takes under a tenth of `msq`'s shared free-list acquisitions
(pool_get).  A baseline that silently picked up MsQueue's default
magazines would fail here.

A bench whose JSON file cannot be written must exit non-zero, and so must
one given a malformed or zero count (`--pairs abc`, `--max-procs 0`) or an
unknown `--families` name (fig_stall, fig_memory, scenarios).

Registered with ctest as bench_json_smoke (bench/CMakeLists.txt).

Usage: bench/json_smoke.py BENCH_BIN_DIR SCRATCH_DIR
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "tools" / "check_bench_json.py"
COMMON = ["--pairs", "400", "--max-procs", "2", "--json"]


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


def burst_shed(doc):
    """Failures unless the burst100 flash crowd made the ring shed load."""
    burst = [s for s in doc["scenarios"]
             if s["scenario"] == "burst100" and s["algo"] == "ring"]
    if not burst:
        return ["BENCH_scenarios.json: burst100/ring missing from the run"]
    if burst[0]["shed"] <= 0:
        return [f"BENCH_scenarios.json: burst100/ring shed nothing, so no "
                f"backpressure: {burst[0]}"]
    print(f"burst100/ring shed {burst[0]['shed']} "
          f"(rate {burst[0]['shed_rate']:.4f}) -- backpressure engaged")
    return []


def memory_bound(doc):
    """Failures unless scq held its bound where msq stranded past it."""
    runs = {(r["algo"], r["scenario"]): r for r in doc["runs"]}
    scq, msq = runs[("scq", "stall")], runs[("msq", "stall")]
    failures = []
    if scq["peak_nodes"] > scq["capacity_nodes"]:
        failures.append(f"scq stall peak {scq['peak_nodes']} exceeded its "
                        f"bound {scq['capacity_nodes']}")
    if scq["ops"] == 0 or scq["enqueue_failures"] == 0:
        failures.append("scq stall run never hit backpressure")
    if msq["peak_nodes"] <= scq["capacity_nodes"]:
        failures.append(f"msq stall peak {msq['peak_nodes']} did not outgrow "
                        f"the scq bound {scq['capacity_nodes']}")
    failures += [f"msq_hp {scenario} is heap-allocated but reports "
                 f"capacity_nodes {r['capacity_nodes']}"
                 for (algo, scenario), r in runs.items()
                 if algo == "msq_hp" and r["capacity_nodes"] != 0]
    return [f"BENCH_memory.json: {f}" for f in failures]


# (bench, arguments, JSON file or None, check of the parsed JSON or None).
# Sweep flags come after COMMON and override it.  The sweeps run at the
# scale of the CI smoke job they replaced: up to 4 threads, so the pin
# wrap-around and fig_sharded's more-threads-than-shards points are run, and
# fig_stall with a 200us stall.  The ablation needs enough pairs that the
# magazines' per-thread first refills stay under a tenth of the baseline's
# one acquisition per pair.
SWEEP = ["--pairs", "2000", "--max-procs", "4"]
RUNS = [
    ("fig3_dedicated", [*COMMON, *SWEEP, "--real", "--pin"],
     "BENCH_fig3.json", None),
    ("fig4_multiprog2", [*COMMON, *SWEEP], "BENCH_fig4.json", None),
    ("fig5_multiprog3", [*COMMON, *SWEEP], "BENCH_fig5.json", None),
    ("ablate_magazine", [*COMMON, *SWEEP, "--pairs", "4000"],
     "BENCH_ablate_magazine.json", magazine_tripwire),
    ("fig_sharded", [*COMMON, *SWEEP, "--shards", "2"],
     "BENCH_fig_sharded.json", None),
    ("fig_stall", [*COMMON, "--pairs", "1000", "--stalls", "0,200"],
     "BENCH_stall.json", None),
    ("fig_memory", ["--pairs", "4000", "--capacity", "2000",
                    "--stall-us", "500", "--json"],
     "BENCH_memory.json", memory_bound),
    ("fig_memory", ["--families", "valois", "--pairs", "2000",
                    "--capacity", "500"], None, None),
    ("scenarios", ["--ops", "1200", "--presets",
                   "steady,ramp,burst100,hotskew",
                   "--families", "msq,segq,wfq,ring", "--json"],
     "BENCH_scenarios.json", burst_shed),
]

# Bad arguments, each of which must exit non-zero before running anything.
# A malformed --pairs once ran 0 pairs and wrote an all-zero file that the
# schema checker accepted.
REJECTED = [
    ("fig3_dedicated", ["--pairs", "abc", "--json"]),
    ("fig3_dedicated", ["--max-procs", "0", "--json"]),
    ("fig_stall", ["--families", "msq,nosuch"]),
    ("fig_memory", ["--families", "msq,nosuch"]),
    ("scenarios", ["--families", "msq,nosuch"]),
]


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bin_dir = Path(argv[0]).resolve()
    scratch = Path(argv[1]).resolve()
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    failures = []

    status, output = run([sys.executable, str(CHECKER), "--self-test"],
                         scratch)
    if status != 0:
        failures.append(f"checker self-test failed:\n{output}")

    for bench, args, name, check in RUNS:
        status, output = run([str(bin_dir / bench), *args], scratch)
        if status != 0:
            failures.append(f"{bench} {' '.join(args)} exited {status}:\n"
                            f"{output}")
            continue
        if name is None:
            print(f"ok: {bench} {' '.join(args)}")
            continue
        status, output = run([sys.executable, str(CHECKER), name], scratch)
        if status != 0:
            failures.append(f"{name} failed the schema check:\n{output}")
            continue
        doc = json.loads((scratch / name).read_text())
        tripped = check(doc) if check else []
        if tripped:
            failures += tripped
            continue
        print(f"ok: {bench} -> {name}")

    rejected = scratch / "rejected"
    rejected.mkdir()
    for bench, args in REJECTED:
        status, output = run([str(bin_dir / bench), *args], rejected)
        if status == 0:
            failures.append(f"{bench} {' '.join(args)} exited 0:\n{output}")
        else:
            print(f"ok: {bench} {' '.join(args)} exits {status}")

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
