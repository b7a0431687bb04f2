#!/usr/bin/env python3
"""Validate BENCH_*.json files produced by the benches (--json).

Three schemas share the counter tables and finiteness rules:

Schema "msq-bench-v1" (bench/fig_common.cpp:write_json, the one writer of
the shared processor sweep behind fig3/fig4/fig5, ablate_backoff,
ablate_magazine, fig_sharded and fig_stall):

    {
      "schema": "msq-bench-v1",
      "title": str, "pairs": int, "max_procs": int,
      "procs_per_processor": int, "seed": int, "backoff_max": num,
      "probes_enabled": bool,
      "series": [
        {"algo": str, "source": "sim"|"real",
         "points": [
           {"procs": int, "net_seconds_per_million_pairs": num,
            "elapsed_seconds_per_million_pairs": num,
            "throughput_pairs_per_sec": num, "ops": int,
            "empty_dequeues": int, "enqueue_failures": int,
            # "real" series (harness::run_workload) also emit, per point,
            # and "sim" series never do:
            # "p99_ns": int, "p999_ns": int, "injected_stall_ns": int
            "counters": {<name>: {"total": int, "per_op": num}, ...}}]}]
    }

Sweep cross-checks beyond shape: elapsed >= net per point (net subtracts
one processor's "other work" from elapsed); the latency keys are
non-negative and present on exactly the "real" series' points.

Schema "msq-scenarios-v1" (bench/scenarios.cpp:write_json) -- the open-loop
scenario extension: one object per (preset, queue family) run, carrying the
offered traffic, the shed accounting, coordinated-omission-safe sojourn
percentiles, and the machine-checkable SLO verdict:

    {
      "schema": "msq-scenarios-v1",
      "title": str, "ops": int, "rate_scale": num, "seed": int,
      "probes_enabled": bool,
      "scenarios": [
        {"scenario": str, "algo": str, "producers": int, "consumers": int,
         "capacity": int, "arrival_rate": num, "offered_load": int,
         "enqueued": int, "dequeued": int, "shed": int, "shed_retries": int,
         "shed_rate": num, "elapsed_seconds": num, "max_lag_ns": int,
         "sojourn_p50_ns": int, "sojourn_p99_ns": int,
         "sojourn_p999_ns": int, "sojourn_max_ns": int,
         "slo": {"p99_ns_max": int, "p999_ns_max": int,
                 "shed_rate_max": num, "p99_ok": bool, "p999_ok": bool,
                 "shed_ok": bool},
         "slo_verdict": "pass"|"fail",
         "counters": {<name>: {"total": int, "per_op": num}, ...}}]
    }

Scenario cross-checks beyond shape: shed_rate in [0, 1]; conservation
(enqueued + shed == offered_load, dequeued == enqueued -- the driver drains
before returning); slo_verdict consistent with the three clause booleans.

Schema "msq-memory-v1" (bench/fig_memory.cpp:write_json) -- the cross-queue
memory-footprint family: one object per (queue family, steady|stall) run,
carrying the allocation ceiling, the measured peak, and the bounded-memory
claim:

    {
      "schema": "msq-memory-v1",
      "title": str, "pairs": int, "occupancy": int, "capacity": int,
      "stall_us": int, "seed": int, "probes_enabled": bool,
      "runs": [
        {"algo": str, "scenario": "steady"|"stall", "capacity_nodes": int,
         "node_bytes": int, "peak_nodes": int, "peak_bytes": int,
         "bytes_per_element": num, "ops": int, "enqueue_failures": int,
         "memory_bounded": bool,
         "counters": {<name>: {"total": int, "per_op": num}, ...}}]
    }

Memory cross-checks beyond shape: peak_bytes == peak_nodes * node_bytes;
memory_bounded runs must honour their ceiling (peak_nodes <=
capacity_nodes) -- the SCQ's headline claim, machine-checked.

Checks exit non-zero with a per-file error listing on any violation
(bench/json_smoke.py, the bench_json_smoke ctest).  `--self-test` validates embedded good fixtures of BOTH
schemas and asserts that representative mutations are caught.

Usage: tools/check_bench_json.py [--self-test] [BENCH_fig3.json ...]
"""

import json
import math
import sys
import tempfile

COUNTER_NAMES = [
    "enqueue", "dequeue", "dequeue_empty", "cas_attempt", "cas_fail",
    "backoff_wait", "lock_acquire", "lock_spin", "pool_get", "pool_refuse",
    "explore_run", "explore_skip", "race_report", "pool_cas_retry",
    "seg_close", "mag_hit", "mag_refill", "mag_flush",
    "shard_hit", "shard_steal", "shard_rehome", "empty_rescan", "wf_help",
    "queue_full", "shed_retry", "shed", "scq_catchup", "scq_threshold_reset",
]

TOP_KEYS = {
    "schema": str, "title": str, "pairs": int, "max_procs": int,
    "procs_per_processor": int, "seed": int, "backoff_max": (int, float),
    "probes_enabled": bool, "series": list,
}

POINT_KEYS = {
    "procs": int,
    "net_seconds_per_million_pairs": (int, float),
    "elapsed_seconds_per_million_pairs": (int, float),
    "throughput_pairs_per_sec": (int, float),
    "ops": int,
    "empty_dequeues": int,
    "enqueue_failures": int,
    "counters": dict,
}

# Emitted on every point of a "real" series and on no "sim" point; they must
# be well-formed non-negative integers (nanoseconds).
LATENCY_POINT_KEYS = {
    "p99_ns": int,
    "p999_ns": int,
    "injected_stall_ns": int,
}

SCENARIO_TOP_KEYS = {
    "schema": str, "title": str, "ops": int, "rate_scale": (int, float),
    "seed": int, "probes_enabled": bool, "scenarios": list,
}

SCENARIO_KEYS = {
    "scenario": str, "algo": str, "producers": int, "consumers": int,
    "capacity": int, "arrival_rate": (int, float), "offered_load": int,
    "enqueued": int, "dequeued": int, "shed": int, "shed_retries": int,
    "shed_rate": (int, float), "elapsed_seconds": (int, float),
    "max_lag_ns": int, "sojourn_p50_ns": int, "sojourn_p99_ns": int,
    "sojourn_p999_ns": int, "sojourn_max_ns": int, "slo": dict,
    "slo_verdict": str, "counters": dict,
}

SLO_KEYS = {
    "p99_ns_max": int, "p999_ns_max": int, "shed_rate_max": (int, float),
    "p99_ok": bool, "p999_ok": bool, "shed_ok": bool,
}

MEMORY_TOP_KEYS = {
    "schema": str, "title": str, "pairs": int, "occupancy": int,
    "capacity": int, "stall_us": int, "seed": int, "probes_enabled": bool,
    "runs": list,
}

MEMORY_RUN_KEYS = {
    "algo": str, "scenario": str, "capacity_nodes": int, "node_bytes": int,
    "peak_nodes": int, "peak_bytes": int,
    "bytes_per_element": (int, float), "ops": int, "enqueue_failures": int,
    "memory_bounded": bool, "counters": dict,
}


def finite(x):
    return not (isinstance(x, float) and not math.isfinite(x))


def typed(value, type_):
    """isinstance with the bool/int trap closed both ways."""
    if type_ is bool:
        return isinstance(value, bool)
    return isinstance(value, type_) and not isinstance(value, bool)


def check_keys(obj, spec, where, err):
    for key, type_ in spec.items():
        if key not in obj:
            err(f"{where} missing {key!r}")
        elif not typed(obj[key], type_):
            err(f"{where} {key!r} has type {type(obj[key]).__name__}")
        elif not finite(obj[key]):
            err(f"{where} {key!r} is not finite")


def check_counters(counters, where, err):
    for name in COUNTER_NAMES:
        entry = counters.get(name)
        if not isinstance(entry, dict):
            err(f"{where} counters missing {name!r}")
            continue
        if not typed(entry.get("total"), int):
            err(f"{where} counters[{name!r}].total not an int")
        per_op = entry.get("per_op")
        if not typed(per_op, (int, float)) or not finite(per_op):
            err(f"{where} counters[{name!r}].per_op not finite")


def check_bench_doc(doc, err):
    """The msq-bench-v1 sweep shape (one series per algo, procs 1..max)."""
    ok_top = []
    check_keys(doc, TOP_KEYS, "top-level", lambda m: ok_top.append(m))
    if ok_top:
        for m in ok_top:
            err(m)
        return

    if not doc["series"]:
        err("empty series list")

    for s_idx, series in enumerate(doc["series"]):
        where = f"series[{s_idx}]"
        if not isinstance(series, dict):
            err(f"{where} is not an object")
            continue
        algo = series.get("algo")
        if not isinstance(algo, str) or not algo:
            err(f"{where} missing algo name")
        else:
            where = f"series[{s_idx}] ({algo}/{series.get('source')})"
        if series.get("source") not in ("sim", "real"):
            err(f"{where} source must be 'sim' or 'real'")
        points = series.get("points")
        if not isinstance(points, list) or not points:
            err(f"{where} has no points")
            continue
        if len(points) != doc["max_procs"]:
            err(f"{where} has {len(points)} points, expected max_procs="
                f"{doc['max_procs']}")

        prev_procs = 0
        for p_idx, point in enumerate(points):
            pwhere = f"{where} point[{p_idx}]"
            if not isinstance(point, dict):
                err(f"{pwhere} is not an object")
                continue
            check_keys(point, POINT_KEYS, pwhere, err)
            real = series.get("source") == "real"
            for key, type_ in LATENCY_POINT_KEYS.items():
                if (key in point) != real:
                    err(f"{pwhere} {key!r} must be "
                        f"{'present' if real else 'absent'} on a "
                        f"{series.get('source')} series")
                if key not in point:
                    continue
                value = point[key]
                if not typed(value, type_):
                    err(f"{pwhere} {key!r} has type {type(value).__name__}")
                elif value < 0:
                    err(f"{pwhere} {key!r} is negative")
            net = point.get("net_seconds_per_million_pairs")
            elapsed = point.get("elapsed_seconds_per_million_pairs")
            if all(typed(v, (int, float)) and finite(v)
                   for v in (net, elapsed)) and elapsed < net:
                err(f"{pwhere} elapsed {elapsed} < net {net}")
            procs = point.get("procs")
            if isinstance(procs, int):
                if procs <= prev_procs:
                    err(f"{pwhere} procs {procs} not increasing")
                prev_procs = procs
            counters = point.get("counters")
            if isinstance(counters, dict):
                check_counters(counters, pwhere, err)


def check_scenarios_doc(doc, err):
    """The msq-scenarios-v1 open-loop shape (one object per run)."""
    ok_top = []
    check_keys(doc, SCENARIO_TOP_KEYS, "top-level", lambda m: ok_top.append(m))
    if ok_top:
        for m in ok_top:
            err(m)
        return

    if not doc["scenarios"]:
        err("empty scenarios list")

    for s_idx, sc in enumerate(doc["scenarios"]):
        where = f"scenarios[{s_idx}]"
        if not isinstance(sc, dict):
            err(f"{where} is not an object")
            continue
        name = sc.get("scenario")
        algo = sc.get("algo")
        if isinstance(name, str) and isinstance(algo, str):
            where = f"scenarios[{s_idx}] ({name}/{algo})"
        check_keys(sc, SCENARIO_KEYS, where, err)

        rate = sc.get("shed_rate")
        if typed(rate, (int, float)) and finite(rate):
            if not 0.0 <= rate <= 1.0:
                err(f"{where} shed_rate {rate} outside [0, 1]")

        verdict = sc.get("slo_verdict")
        if isinstance(verdict, str) and verdict not in ("pass", "fail"):
            err(f"{where} slo_verdict must be 'pass' or 'fail', "
                f"got {verdict!r}")

        slo = sc.get("slo")
        if isinstance(slo, dict):
            check_keys(slo, SLO_KEYS, f"{where} slo", err)
            clauses = [slo.get(k) for k in ("p99_ok", "p999_ok", "shed_ok")]
            if all(isinstance(c, bool) for c in clauses) and \
                    verdict in ("pass", "fail"):
                expect = "pass" if all(clauses) else "fail"
                if verdict != expect:
                    err(f"{where} slo_verdict {verdict!r} inconsistent with "
                        f"clause booleans (expect {expect!r})")

        offered = sc.get("offered_load")
        enq = sc.get("enqueued")
        deq = sc.get("dequeued")
        shed = sc.get("shed")
        if all(typed(v, int) for v in (offered, enq, deq, shed)):
            if enq + shed != offered:
                err(f"{where} conservation: enqueued {enq} + shed {shed} "
                    f"!= offered_load {offered}")
            if deq != enq:
                err(f"{where} drain: dequeued {deq} != enqueued {enq}")

        counters = sc.get("counters")
        if isinstance(counters, dict):
            check_counters(counters, where, err)


def check_memory_doc(doc, err):
    """The msq-memory-v1 footprint shape (one object per family/scenario)."""
    ok_top = []
    check_keys(doc, MEMORY_TOP_KEYS, "top-level", lambda m: ok_top.append(m))
    if ok_top:
        for m in ok_top:
            err(m)
        return

    if not doc["runs"]:
        err("empty runs list")

    for r_idx, run in enumerate(doc["runs"]):
        where = f"runs[{r_idx}]"
        if not isinstance(run, dict):
            err(f"{where} is not an object")
            continue
        algo = run.get("algo")
        scenario = run.get("scenario")
        if isinstance(algo, str) and isinstance(scenario, str):
            where = f"runs[{r_idx}] ({algo}/{scenario})"
        check_keys(run, MEMORY_RUN_KEYS, where, err)

        if isinstance(scenario, str) and scenario not in ("steady", "stall"):
            err(f"{where} scenario must be 'steady' or 'stall', "
                f"got {scenario!r}")

        for key in ("capacity_nodes", "node_bytes", "peak_nodes",
                    "peak_bytes", "bytes_per_element"):
            value = run.get(key)
            if typed(value, (int, float)) and finite(value) and value < 0:
                err(f"{where} {key!r} is negative")

        nodes = run.get("peak_nodes")
        grain = run.get("node_bytes")
        peak = run.get("peak_bytes")
        if all(typed(v, int) for v in (nodes, grain, peak)):
            if peak != nodes * grain:
                err(f"{where} peak_bytes {peak} != peak_nodes {nodes} * "
                    f"node_bytes {grain}")

        ceiling = run.get("capacity_nodes")
        bounded = run.get("memory_bounded")
        if isinstance(bounded, bool) and bounded and \
                all(typed(v, int) for v in (nodes, ceiling)):
            if nodes > ceiling:
                err(f"{where} claims memory_bounded but peak_nodes {nodes} "
                    f"exceeds capacity_nodes {ceiling}")

        counters = run.get("counters")
        if isinstance(counters, dict):
            check_counters(counters, where, err)


def check_file(path):
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]
    schema = doc.get("schema")
    if schema == "msq-bench-v1":
        check_bench_doc(doc, err)
    elif schema == "msq-scenarios-v1":
        check_scenarios_doc(doc, err)
    elif schema == "msq-memory-v1":
        check_memory_doc(doc, err)
    else:
        err(f"unknown schema {schema!r}")
    return errors


# ---------------------------------------------------------------- self-test

def _counters_fixture():
    return {name: {"total": 0, "per_op": 0.0} for name in COUNTER_NAMES}


def _bench_fixture():
    def point(procs):
        return {
            "procs": procs, "net_seconds_per_million_pairs": 1.5,
            "elapsed_seconds_per_million_pairs": 13.5,
            "throughput_pairs_per_sec": 2e5, "ops": 4000,
            "empty_dequeues": 3, "enqueue_failures": 0,
            "p99_ns": 1200, "p999_ns": 52000, "injected_stall_ns": 0,
            "counters": _counters_fixture(),
        }
    return {
        "schema": "msq-bench-v1", "title": "fixture", "pairs": 2000,
        "max_procs": 2, "procs_per_processor": 1, "seed": 1,
        "backoff_max": 1024.0, "probes_enabled": True,
        "series": [{"algo": "msq", "source": "real",
                    "points": [point(1), point(2)]}],
    }


def _scenarios_fixture():
    return {
        "schema": "msq-scenarios-v1", "title": "fixture", "ops": 1200,
        "rate_scale": 1.0, "seed": 1, "probes_enabled": True,
        "scenarios": [{
            "scenario": "burst100", "algo": "ring", "producers": 2,
            "consumers": 1, "capacity": 32, "arrival_rate": 16350.0,
            "offered_load": 1200, "enqueued": 1193, "dequeued": 1193,
            "shed": 7, "shed_retries": 14, "shed_rate": 7 / 1200,
            "elapsed_seconds": 0.081, "max_lag_ns": 18033500,
            "sojourn_p50_ns": 4980700, "sojourn_p99_ns": 18382200,
            "sojourn_p999_ns": 18382200, "sojourn_max_ns": 18382200,
            "slo": {"p99_ns_max": 250000000, "p999_ns_max": 600000000,
                    "shed_rate_max": 0.6, "p99_ok": True, "p999_ok": True,
                    "shed_ok": True},
            "slo_verdict": "pass",
            "counters": _counters_fixture(),
        }],
    }


def _memory_fixture():
    def run(algo, scenario, bounded, ceiling, peak):
        return {
            "algo": algo, "scenario": scenario, "capacity_nodes": ceiling,
            "node_bytes": 40, "peak_nodes": peak, "peak_bytes": peak * 40,
            "bytes_per_element": peak * 40 / 12, "ops": 9000,
            "enqueue_failures": 0 if scenario == "steady" else 120,
            "memory_bounded": bounded,
            "counters": _counters_fixture(),
        }
    return {
        "schema": "msq-memory-v1", "title": "fixture", "pairs": 4000,
        "occupancy": 12, "capacity": 2000, "stall_us": 500, "seed": 1,
        "probes_enabled": True,
        "runs": [run("scq", "steady", True, 16, 16),
                 run("scq", "stall", True, 16, 16),
                 run("msq", "stall", False, 2001, 2001)],
    }


def _check_doc(doc):
    """Validate an in-memory doc through the real file path."""
    with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
        json.dump(doc, f)
        f.flush()
        return check_file(f.name)


def self_test():
    import copy

    failures = []

    def expect_clean(name, doc):
        errors = _check_doc(doc)
        if errors:
            failures.append(f"{name}: expected clean, got {errors[:2]}")

    def expect_errors(name, doc, needle):
        errors = _check_doc(doc)
        if not any(needle in e for e in errors):
            failures.append(
                f"{name}: expected an error mentioning {needle!r}, "
                f"got {errors[:2] or 'no errors'}")

    expect_clean("bench/good", _bench_fixture())
    expect_clean("scenarios/good", _scenarios_fixture())
    expect_clean("memory/good", _memory_fixture())

    doc = _bench_fixture()
    del doc["series"][0]["points"][1]["counters"]["shed"]
    expect_errors("bench/missing-new-counter", doc, "shed")

    doc = _bench_fixture()
    doc["series"][0]["points"][1]["procs"] = 1
    expect_errors("bench/non-increasing", doc, "not increasing")

    doc = _bench_fixture()
    doc["series"][0]["points"][0]["p999_ns"] = -1
    expect_errors("bench/negative-p999", doc, "negative")

    doc = _bench_fixture()
    del doc["series"][0]["points"][0]["elapsed_seconds_per_million_pairs"]
    expect_errors("bench/missing-elapsed", doc, "elapsed_seconds_per_million")

    doc = _bench_fixture()
    doc["series"][0]["points"][1]["elapsed_seconds_per_million_pairs"] = 1.0
    expect_errors("bench/elapsed-below-net", doc, "< net")

    doc = _bench_fixture()
    del doc["series"][0]["points"][1]["injected_stall_ns"]
    expect_errors("bench/real-without-latency", doc, "must be present")

    doc = _bench_fixture()
    doc["series"][0]["source"] = "sim"
    expect_errors("bench/sim-with-latency", doc, "must be absent")

    doc = _scenarios_fixture()
    del doc["scenarios"][0]["arrival_rate"]
    expect_errors("scenarios/missing-arrival-rate", doc, "arrival_rate")

    doc = _scenarios_fixture()
    doc["scenarios"][0]["offered_load"] = "many"
    expect_errors("scenarios/offered-load-type", doc, "offered_load")

    doc = _scenarios_fixture()
    doc["scenarios"][0]["shed_rate"] = 1.7
    expect_errors("scenarios/shed-rate-range", doc, "outside [0, 1]")

    doc = _scenarios_fixture()
    doc["scenarios"][0]["slo_verdict"] = "maybe"
    expect_errors("scenarios/verdict-enum", doc, "slo_verdict")

    doc = _scenarios_fixture()
    doc["scenarios"][0]["slo"]["shed_ok"] = False
    expect_errors("scenarios/verdict-consistency", doc, "inconsistent")

    doc = _scenarios_fixture()
    doc["scenarios"][0]["enqueued"] = 1100
    expect_errors("scenarios/conservation", doc, "conservation")

    doc = _scenarios_fixture()
    del doc["scenarios"][0]["counters"]["queue_full"]
    expect_errors("scenarios/missing-counter", doc, "queue_full")

    doc = copy.deepcopy(_scenarios_fixture())
    doc["schema"] = "msq-scenarios-v9"
    expect_errors("scenarios/unknown-schema", doc, "unknown schema")

    doc = _memory_fixture()
    del doc["runs"][0]["peak_nodes"]
    expect_errors("memory/missing-peak", doc, "peak_nodes")

    doc = _memory_fixture()
    doc["runs"][1]["scenario"] = "slow"
    expect_errors("memory/scenario-enum", doc, "scenario must be")

    doc = _memory_fixture()
    doc["runs"][2]["peak_bytes"] = 7
    expect_errors("memory/bytes-mismatch", doc, "!= peak_nodes")

    doc = _memory_fixture()
    doc["runs"][1]["peak_nodes"] = 17
    doc["runs"][1]["peak_bytes"] = 17 * 40
    expect_errors("memory/bound-violated", doc, "exceeds capacity_nodes")

    doc = _memory_fixture()
    del doc["runs"][0]["counters"]["scq_threshold_reset"]
    expect_errors("memory/missing-scq-counter", doc, "scq_threshold_reset")

    for f in failures:
        print(f"self-test failure: {f}", file=sys.stderr)
    if not failures:
        print("self-test ok: all three schemas validated, "
              "all mutations caught")
    return 1 if failures else 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_errors = []
    for path in argv[1:]:
        all_errors += check_file(path)
    for e in all_errors:
        print(f"error: {e}", file=sys.stderr)
    if not all_errors:
        print(f"ok: {len(argv) - 1} file(s) conform to msq-bench-v1 / "
              "msq-scenarios-v1 / msq-memory-v1")
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
