#!/usr/bin/env python3
"""Compare two sets of msq_bench results against BENCHMARK.json's bounds.

    python3 benchsuite/compare.py BASE_DIR NEW_DIR [--same] [--benchmark FILE]
    python3 benchsuite/compare.py --self-test

Each directory holds the results JSONs run.py writes (one per untraced run;
traced runs and span files are skipped).  For every (workload, end-to-end
metric) the table shows each side's median and quartiles, the change of
NEW's median against BASE's, and a verdict:

    agree       the medians differ by no more than the metric's bound
    worse       NEW is worse than BASE by more than the bound
    better      NEW is better than BASE by more than the bound
    unresolved  outside the bound, but BASE's own spread (IQR / median) is
                wider than the bound and not every NEW run beats every BASE run

The gain column applies the rule a claimed gain must meet: at least ten
runs a side, paired by seed; NEW wins at least 9/10 of the pairs (ties
count for neither); and the medians differ by more than BASE's
interquartile range.  With fewer pairs, two sets from one commit can
"win" 5/5 by chance.

Exit status is 1 when a row reads worse or a run was incorrect, and with
--same (two sets from one commit) also when any row is not "agree".
"""

import argparse
import glob
import json
import os
import statistics
import sys

SCHEMA = "msq-suite-v1"
MIN_PAIRS = 10


def load_runs(directory):
    """{workload: [run, ...]} for the untraced results in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path, encoding="utf-8") as f:
            run = json.load(f)
        if run.get("schema") != SCHEMA or run.get("trace"):
            continue
        runs.setdefault(run["workload"], []).append(run)
    for group in runs.values():
        group.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_wins(base, new, higher_is_better):
    """NEW's wins over the seed-ordered pairs; ties count for neither."""
    wins = 0
    for b, n in zip(base, new):
        if (n > b) if higher_is_better else (n < b):
            wins += 1
    return wins, min(len(base), len(new))


def compare(base_runs, new_runs, spec):
    """One row per (workload, gated metric) present on both sides."""
    rows = []
    for workload in sorted(set(base_runs) & set(new_runs)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in base_runs[workload]
                    if name in r["metrics"]]
            new = [r["metrics"][name]["value"] for r in new_runs[workload]
                   if name in r["metrics"]]
            if not base or not new:
                continue
            higher = metric["better"] == "higher"
            b1, bmed, b3 = quartiles(base)
            n1, nmed, n3 = quartiles(new)
            change = (nmed - bmed) / bmed if bmed else 0.0
            worse_by = -change if higher else change
            spread = (b3 - b1) / bmed if bmed else 0.0
            wins, pairs = pair_wins(base, new, higher)
            gain = (pairs >= MIN_PAIRS and wins >= 0.9 * pairs
                    and abs(nmed - bmed) > b3 - b1)
            separated = (min(new) > max(base)) if higher else (max(new) < min(base))
            if abs(worse_by) <= metric["bound"]:
                verdict = "agree"
            elif spread > metric["bound"] and not separated:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse_by > 0 else "better"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": (b1, bmed, b3), "new": (n1, nmed, n3),
                "change": change, "bound": metric["bound"],
                "verdict": verdict, "wins": wins, "pairs": pairs, "gain": gain,
            })
    return rows


def incorrect_runs(runs):
    return [f"{r['workload']} seed {r['seed']}" for group in runs.values()
            for r in group if not r.get("correct") or r.get("failed")]


def print_rows(rows):
    print(f"{'workload':8} {'metric':22} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'change':>8} {'bound':>6} "
          f"{'wins':>6} {'gain':>5}  verdict")
    for r in rows:
        b = "/".join(f"{v:.4g}" for v in r["base"])
        n = "/".join(f"{v:.4g}" for v in r["new"])
        print(f"{r['workload']:8} {r['metric']:22} {b:>32} {n:>32} "
              f"{r['change']:+8.2%} {r['bound']:6.2f} "
              f"{r['wins']:>2}/{r['pairs']:<3} {'yes' if r['gain'] else 'no':>5}  "
              f"{r['verdict']}")


def exit_status(rows, bad_runs, same):
    if bad_runs:
        return 1
    if any(r["verdict"] == "worse" for r in rows):
        return 1
    if same and any(r["verdict"] != "agree" for r in rows):
        return 1
    return 0


def self_test():
    """Synthetic fixtures: every verdict and both sides of the pair rule."""
    spec = {"end_to_end": [
        {"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.10},
        {"name": "lat", "unit": "us", "better": "lower", "bound": 0.10},
    ]}

    def runs(tputs, lats):
        return {"pairs": [
            {"workload": "pairs", "seed": i, "correct": True, "failed": 0,
             "metrics": {"tput": {"value": t}, "lat": {"value": l}}}
            for i, (t, l) in enumerate(zip(tputs, lats))]}

    base = runs([100 + i for i in range(10)], [10.0 + 0.1 * i for i in range(10)])
    checks = []

    rows = compare(base, base, spec)
    checks.append(("identical sets agree",
                   [r["verdict"] for r in rows] == ["agree", "agree"]
                   and exit_status(rows, [], True) == 0))

    slower = runs([80 + i for i in range(10)], [13.0 + 0.1 * i for i in range(10)])
    rows = compare(base, slower, spec)
    checks.append(("20% worse reads worse and fails",
                   [r["verdict"] for r in rows] == ["worse", "worse"]
                   and exit_status(rows, [], False) == 1))

    faster = runs([130 + i for i in range(10)], [10.0 + 0.1 * i for i in range(10)])
    rows = compare(base, faster, spec)
    checks.append(("10/10 wins beyond the IQR is a gain",
                   rows[0]["verdict"] == "better" and rows[0]["gain"]
                   and exit_status(rows, [], False) == 0
                   and exit_status(rows, [], True) == 1))

    mixed = runs([130 + i if i < 8 else 90 for i in range(10)],
                 [10.0 + 0.1 * i for i in range(10)])
    rows = compare(base, mixed, spec)
    checks.append(("8/10 wins is not a gain",
                   rows[0]["wins"] == 8 and not rows[0]["gain"]))

    few = {"pairs": faster["pairs"][:5]}
    rows = compare({"pairs": base["pairs"][:5]}, few, spec)
    checks.append(("5/5 wins is too few pairs for a gain",
                   rows[0]["wins"] == 5 and not rows[0]["gain"]))

    small = runs([104 + i for i in range(10)], [10.0 + 0.1 * i for i in range(10)])
    rows = compare(base, small, spec)
    checks.append(("a shift inside the IQR is not a gain",
                   rows[0]["wins"] == 10 and not rows[0]["gain"]))

    noisy = runs([50, 150] * 5, [10.0] * 10)
    rows = compare(noisy, runs([40, 120] * 5, [10.0] * 10), spec)
    checks.append(("outside the bound within a wide spread is unresolved",
                   rows[0]["verdict"] == "unresolved"))

    broken = runs([100] * 3, [10.0] * 3)
    broken["pairs"][1]["correct"] = False
    checks.append(("an incorrect run fails the comparison",
                   exit_status([], incorrect_runs(broken), False) == 1))

    ok = True
    for label, passed in checks:
        print(f"compare self-test: {label}: {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--same", action="store_true",
                        help="both sets come from one commit: every row must agree")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return 0 if self_test() else 1
    if not args.base or not args.new:
        parser.error("BASE_DIR and NEW_DIR are required")
    with open(args.benchmark, encoding="utf-8") as f:
        spec = json.load(f)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    rows = compare(base_runs, new_runs, spec)
    if not rows:
        print("compare: no (workload, metric) present on both sides", file=sys.stderr)
        return 1
    print_rows(rows)
    bad = incorrect_runs(base_runs) + incorrect_runs(new_runs)
    for run in bad:
        print(f"compare: incorrect run: {run}")
    for side, runs in (("base", base_runs), ("new", new_runs)):
        for workload, group in sorted(runs.items()):
            walls = [r.get("wall_s", 0) for r in group]
            print(f"compare: {side} {workload}: {len(group)} runs, "
                  f"wall {min(walls):.1f}-{max(walls):.1f} s")
    return exit_status(rows, bad, args.same)


if __name__ == "__main__":
    sys.exit(main())
