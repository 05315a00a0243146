#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and reports one run.

    python3 perfbench/run.py --workload paper_scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload point_rw --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload paper_join --seed 1 --seconds 30 --repeat 10
    python3 perfbench/run.py --selftest

Run it from the repository root. The first call configures and builds
perfbench (and the engine libraries from ../src) under .bench_build/;
later calls rebuild incrementally.

--trace 0 runs the workload once and prints every end-to-end metric of
BENCHMARK.json. --trace 1 runs it twice, each for half of --seconds: once
untraced (for trace.overhead_ratio) and once with the engine's
per-statement trace records joined to the benchmark's own spans; it prints
the per-layer metrics, the per-query-name table, and writes the spans to
.bench_build/runs/. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.

--repeat N runs the workload N times back to back with seeds seed..seed+N-1
and prints each end-to-end metric's median, quartiles and quartile spread
next to its bound. --selftest checks that the answer checker counts a
deliberately wrong expected answer as a failure on every workload.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_build" / "runs"
WORKLOADS = ("paper_scan", "paper_join", "point_rw")
# One driver process must end well inside the 180 s a run may take.
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError(f"build failed; see {log}:\n" +
                                 log.read_text()[-2000:])


def spans_file(workload, seed):
    return RUNS / f"{workload}-{seed}-traced.spans.jsonl"


def run_driver(workload, seed, seconds, traced=False, wrong_answer=False):
    """Runs perfbench once and returns its raw report."""
    RUNS.mkdir(parents=True, exist_ok=True)
    raw_path = RUNS / f"{workload}-{seed}-{'traced' if traced else 'plain'}.json"
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--out", str(raw_path)]
    if traced:
        cmd += ["--trace-out", str(spans_file(workload, seed))]
    if wrong_answer:
        cmd.append("--wrong-answer")
    raw_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"perfbench exited with {proc.returncode}")
    return json.loads(raw_path.read_text())


def percentile(values, p):
    """Nearest-rank percentile of raw samples."""
    if not values:
        raise BenchError("no samples for a percentile")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def end_to_end(raw):
    timed = raw["timed"]
    lat = raw["latency_ns"]
    if timed["completed"] == 0:
        raise BenchError("no request completed in the timed phase")
    ms = 1e-6
    return {
        "setup_s": (statistics.median(raw["setup_ns"]) * 1e-9, "s"),
        "throughput_qps": (timed["completed"] / (timed["wall_ns"] * 1e-9), "1/s"),
        "latency_p50_ms": (percentile(lat["read"], 0.50) * ms, "ms"),
        "latency_p90_ms": (percentile(lat["read"], 0.90) * ms, "ms"),
        "insert_p50_ms": (percentile(lat["insert"], 0.50) * ms, "ms"),
        "insert_p90_ms": (percentile(lat["insert"], 0.90) * ms, "ms"),
        "delete_p50_ms": (percentile(lat["delete"], 0.50) * ms, "ms"),
        "delete_p90_ms": (percentile(lat["delete"], 0.90) * ms, "ms"),
        "cpu_ms_per_op": (timed["cpu_ns"] * ms / timed["completed"], "ms"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024, "MB"),
    }


def safe_div(a, b):
    return a / b if b else 0.0


# The statement counters the per-layer metrics read.
STAT_KEYS = ("parse_ns", "plan_ns", "exec_ns", "rows_scanned", "docs_scanned",
             "structural_join_emitted", "xquery_evals", "batch_rows",
             "index_entries_probed", "index_docs_returned", "pool_tasks")


def load_trace(path):
    """Streams a spans file into one record per request and one per build.

    A request record holds its tags, its duration, and the duration and
    counters of its core.execute span; core.parse/plan/exec repeat the
    execute span's phase timings and are skipped. perfbench writes parents
    before children.
    """
    requests = {}
    builds = {}
    setup_of_load = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            kind = s["span"]
            if kind == "request":
                requests[s["id"]] = {
                    "phase": s["phase"], "op": s["op"], "lang": s["lang"],
                    "query": s["query"], "bytes": s["bytes"],
                    "rows": s["rows"], "dur_ns": s["end_ns"] - s["start_ns"]}
            elif kind == "core.execute":
                r = requests[s["parent"]]
                r["execute_ns"] = s["dur_ns"]
                r.update((k, s["stats"][k]) for k in STAT_KEYS)
            elif kind == "setup":
                builds[s["id"]] = {"index_ns": 0}
            elif kind == "storage.load":
                setup_of_load[s["id"]] = s["parent"]
            elif kind == "index.build":
                builds[s["parent"]]["index_ns"] += s["end_ns"] - s["start_ns"]
            elif kind in ("xml.parse", "storage.insert_row"):
                builds[setup_of_load[s["parent"]]][kind] = s
    return list(requests.values()), list(builds.values())


def per_layer(traced, untraced, requests, builds):
    """Per-layer metrics from the traced run's spans and counters.

    Per-op sums cover the workload's own requests (reference pass, timed
    phase, post-phase checks), so the cold compiles of the reference pass
    count; hellos and the write probes of the read-only workloads do not.
    """
    ops = [r for r in requests if r["phase"] in ("reference", "timed", "check")]
    n = len(ops)
    if n == 0:
        raise BenchError("the traced run holds no requests")

    def total(rs, key):
        return sum(r[key] for r in rs)

    xq = [r for r in ops if r["lang"] == "xquery"]
    sel = [r for r in ops if r["lang"] == "sql" and r["op"] == "read"]
    probed = [r for r in ops if r["index_docs_returned"] > 0]
    inserts = [r for r in requests if r["op"] == "insert"]
    deletes = [r for r in requests if r["op"] == "delete"]

    t = traced["timed"]
    qps_traced = t["completed"] / (t["wall_ns"] * 1e-9)
    u = untraced["timed"]
    qps_untraced = u["completed"] / (u["wall_ns"] * 1e-9)
    ms = 1e-6
    return {
        "server.frame_ms_per_op": (sum(
            r["dur_ns"] - r["execute_ns"] for r in ops) * ms / n, "ms"),
        "server.bytes_out_per_op": (total(ops, "bytes") / n, "B"),
        "core.parse_ms_per_op": (total(ops, "parse_ns") * ms / n, "ms"),
        "core.plan_ms_per_op": (total(ops, "plan_ns") * ms / n, "ms"),
        "core.plan_cache_hit_ratio": (safe_div(
            t["cache_hits"], t["cache_hits"] + t["cache_misses"]), "1"),
        "xquery.exec_ms_per_op": (total(xq, "exec_ns") * ms / n, "ms"),
        "xquery.rows_scanned_per_op": (total(xq, "rows_scanned") / n, "count"),
        "xquery.structural_join_emitted_per_op": (
            total(xq, "structural_join_emitted") / n, "count"),
        "sql.exec_ms_per_op": (total(sel, "exec_ns") * ms / n, "ms"),
        "sql.rows_scanned_per_op": (total(sel, "rows_scanned") / n, "count"),
        "sql.xquery_evals_per_op": (total(sel, "xquery_evals") / n, "count"),
        "sql.join_yield": (safe_div(total(sel, "rows"),
                                    total(sel, "rows_scanned")), "1"),
        "sql.batch_row_ratio": (safe_div(total(sel, "batch_rows"),
                                         total(sel, "rows_scanned")), "1"),
        "index.entries_probed_per_op": (
            total(ops, "index_entries_probed") / n, "count"),
        "index.useful_ratio": (safe_div(total(probed, "rows"),
                                        total(probed, "index_docs_returned")),
                               "1"),
        "index.build_s": (statistics.median(
            b["index_ns"] for b in builds) * 1e-9, "s"),
        "storage.load_s": (statistics.median(
            b["storage.insert_row"]["dur_ns"] for b in builds) * 1e-9, "s"),
        "storage.insert_exec_ms": (statistics.median(
            r["exec_ns"] for r in inserts) * ms, "ms"),
        "storage.delete_exec_ms": (statistics.median(
            r["exec_ns"] for r in deletes) * ms, "ms"),
        "storage.delete_rows_scanned_per_op": (
            safe_div(total(deletes, "rows_scanned"), len(deletes)), "count"),
        "xml.parse_ms_per_doc": (statistics.median(
            b["xml.parse"]["dur_ns"] / b["xml.parse"]["count"]
            for b in builds) * ms, "ms"),
        "common.pool_tasks_per_op": (total(ops, "pool_tasks") / n, "count"),
        "common.cpu_per_wall": (t["cpu_ns"] / t["wall_ns"], "1"),
        "trace.overhead_ratio": (qps_untraced / qps_traced - 1, "1"),
    }, ops


def declared(kind):
    """Names and units of one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"], m.get("bound")) for m in spec[kind]]


def result_line(correct, attempted, failed, metrics, kind):
    out = {}
    for name, unit, _ in declared(kind):
        value, have_unit = metrics[name]
        if have_unit != unit:
            raise BenchError(f"{name}: unit {have_unit}, BENCHMARK.json says {unit}")
        out[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": out})


def print_run_record(raw):
    run = raw["run"]
    print("run: " + " ".join(f"{k}={run[k]}" for k in (
        "workload", "seed", "seconds", "traced", "nproc", "compiler",
        "build_type", "pool_threads", "connections", "orders", "customers",
        "products", "rounds", "probe_pairs")))
    lat = raw["latency_ns"]
    print(f"samples: read={len(lat['read'])} insert={len(lat['insert'])} "
          f"delete={len(lat['delete'])} setup_builds={len(raw['setup_ns'])}")


def print_failures(raws):
    for raw in raws:
        for err in raw["errors"]:
            print(f"failure: {err}")


def report_e2e(args):
    raw = run_driver(args.workload, args.seed, args.seconds)
    metrics = end_to_end(raw)
    print_run_record(raw)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {safe_div(raw['failed'], raw['attempted']):.6g} 1 "
          f"({raw['failed']}/{raw['attempted']})")
    print_failures([raw])
    print(result_line(raw["failed"] == 0, raw["attempted"], raw["failed"],
                      metrics, "end_to_end"))


def report_traced(args):
    half = max(1, args.seconds // 2)
    untraced = run_driver(args.workload, args.seed, half)
    traced = run_driver(args.workload, args.seed, half, traced=True)
    requests, builds = load_trace(spans_file(args.workload, args.seed))
    metrics, ops = per_layer(traced, untraced, requests, builds)
    print_run_record(traced)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    timed = [r for r in ops if r["phase"] == "timed"]
    reads = [r for r in timed if r["op"] == "read"]
    scanned = sum(1 for r in reads if r["docs_scanned"] > 0)
    rows = sum(r["rows_scanned"] for r in reads)
    print(f"timed reads: {len(reads)}, with docs_scanned > 0: {scanned}, "
          f"rows_scanned per read: {safe_div(rows, len(reads)):.6g}")
    if args.workload != "point_rw":
        print("per-query (timed phase): query count request_p50_ms "
              "core.exec_p50_ms")
        names = []
        for r in timed:
            if r["query"] not in names:
                names.append(r["query"])
        for q in names:
            rs = [r for r in timed if r["query"] == q]
            req = statistics.median(r["dur_ns"] * 1e-6 for r in rs)
            ex = statistics.median(r["exec_ns"] * 1e-6 for r in rs)
            print(f"  {q:5s} {len(rs):5d} {req:10.3f} {ex:10.3f}")
    print(f"spans: {spans_file(args.workload, args.seed)}")
    print_failures([untraced, traced])
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    print(result_line(failed == 0, attempted, failed, metrics, "per_layer"))


def report_repeat(args):
    values = {}
    failed = attempted = 0
    for i in range(args.repeat):
        raw = run_driver(args.workload, args.seed + i, args.seconds)
        failed += raw["failed"]
        attempted += raw["attempted"]
        for name, (value, unit) in end_to_end(raw).items():
            values.setdefault(name, []).append(value)
        print(f"run {i + 1}/{args.repeat} seed={args.seed + i} " + " ".join(
            f"{name}={vals[-1]:.4g}" for name, vals in values.items()),
            flush=True)
    bounds = {name: bound for name, _, bound in declared("end_to_end")}
    print("metric median q1 q3 spread bound")
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (
            vals[0], vals[0], vals[0])
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- wide"
        print(f"{name} {med:.6g} {q1:.6g} {q3:.6g} {spread:.4f} {bound}{flag}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "attempted": attempted, "failed": failed,
                      "metrics": summary}))


def selftest():
    names = [n for n, _, _ in declared("end_to_end") + declared("per_layer")]
    if len(names) != len(set(names)):
        raise BenchError("BENCHMARK.json repeats a metric name")
    ok = True
    for workload in WORKLOADS:
        clean = run_driver(workload, 7, 2)
        wrong = run_driver(workload, 7, 2, wrong_answer=True)
        good = clean["failed"] == 0 and wrong["failed"] > 0
        ok &= good
        print(f"{workload}: clean run failed={clean['failed']}, "
              f"wrong expected answer failed={wrong['failed']} "
              f"{'ok' if good else 'FAIL'}")
    if not ok:
        raise BenchError("the answer checker missed a wrong answer")
    print("selftest ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        build()
        if args.selftest:
            selftest()
        elif args.repeat > 0:
            report_repeat(args)
        elif args.trace:
            report_traced(args)
        else:
            report_e2e(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
