#!/usr/bin/env python3
"""hostbench: hpmvm's end-to-end host-time benchmark.

Builds an optimised, assert-free copy of the simulator from ../src (owned by
the benchmark, under .bench_build/hostbench), runs one workload repeatedly
for a fixed host-time budget, checks every simulated output, and prints the
metrics. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 hostbench/run.py [--workload paper-batch|fleet-traffic|
                              fleet-policy|all] [--seed 42] [--seconds 20]
                             [--trace 0|1]

Workloads (each a closed loop over a fixed amount of simulated work):
  paper-batch    Figure 5: db, compress, pseudojbb at 1x and 4x min heap,
                 base vs coalloc, scale 30 (12 cells, serial).
  fleet-traffic  fleet_step: 16 arbiter-free servermix tenants, 512
                 requests each at 200,000 virtual req/s, scale 60.
  fleet-policy   fleet_scaling's s16/policy cell: 16 tenants sharing one
                 PMU through the arbiter, policy engine, 6144 requests each.

Every repetition runs in its own child process (hostbench_runner), so a
trapped or killed repetition is recorded as failed cells instead of ending
the benchmark; each child's peak resident memory is read from wait4().

Checks. At seed 42 every row with a pin must equal its row in
bench/baselines/ (read in place: BENCH_fig5.json, BENCH_fleet_step.json,
BENCH_fleet.json). At every seed each repetition must reproduce the first
one exactly, and a traced repetition must reproduce the untraced one.
A failed check marks the cell failed and the command exits 1.

--trace 0 reports the end-to-end metrics (host time measured with tracing
off). --trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus trace_overhead_pct.

Exit codes: 0 all checks passed; 1 a check failed (the result line is still
printed); 2 the benchmark could not run (bad arguments, missing sources or
pins, failed build, or a build with assertions or sanitizers).
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hostbench")
RUNNER = os.path.join(BUILD_DIR, "hostbench_runner")
TMP_DIR = os.path.join(ROOT, ".bench_build", "hostbench-runs")
BASELINES = os.path.join(ROOT, "bench", "baselines")

WORKLOADS = ["paper-batch", "fleet-traffic", "fleet-policy"]
PINNED_SEED = 42
# Pinned baseline of each workload; its rows are matched by label.
PIN_FILES = {
    "paper-batch": "BENCH_fig5.json",
    "fleet-traffic": "BENCH_fleet_step.json",
    "fleet-policy": "BENCH_fleet.json",
}
# At least two untraced repetitions, so the repetition check always runs.
MIN_REPS = 2
# The measuring phase never runs past this (the whole command has 180 s).
HARD_LIMIT_S = 150.0
# Host-timed metrics the traced run adds to the rows; everything else in
# a row is simulated and must not change under tracing.
HOST_TIMED_PREFIXES = ("pipeline.stage.", "monitor.self_overhead")
# The sample-pipeline stages the SelfProfiler times (the core layer).
STAGES = ("drain", "resolve", "attribute", "dispatch")


def fail_setup(msg):
    print("hostbench: error: " + msg, file=sys.stderr)
    sys.exit(2)


# --------------------------------------------------------------------------
# Build and host identity


def build_runner():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_setup("no simulator sources at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS="]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail_setup("configuring the benchmark build failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs,
           "--target", "hostbench_runner"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail_setup("building hostbench_runner failed")
    out = subprocess.run([RUNNER, "--info"], capture_output=True, text=True)
    if out.returncode != 0:
        fail_setup("hostbench_runner --info failed")
    info = json.loads(out.stdout)
    if (info["assertions"] or info["sanitizer"]
            or info["build_type"] != "Release"
            or "-fsanitize" in info["cxx_flags"]):
        fail_setup("refusing to time a %s build (flags '%s', assertions %s)"
                   % (info["build_type"], info["cxx_flags"],
                      info["assertions"]))
    return info


def source_digest():
    """sha256 over the simulator and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "hostbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_context(info):
    return {
        "nproc": os.cpu_count(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "cxx_flags": info["cxx_flags"].strip(),
        "commit": commit_id(),
        "source_digest": source_digest(),
    }


# --------------------------------------------------------------------------
# Children


def run_child(workload, seed, traced, deadline, index):
    """Runs one repetition; returns (record or None, peak RSS MB, status)."""
    os.makedirs(TMP_DIR, exist_ok=True)
    out_path = os.path.join(TMP_DIR, "%s-%d.json" % (workload, index))
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--out", out_path]
    if traced:
        cmd.append("--traced")
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline and not killed:
            proc.kill()
            killed = True
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0
    if killed:
        return None, rss_mb, "killed at the time limit"
    if proc.returncode != 0:
        return None, rss_mb, "exited with %d" % proc.returncode
    try:
        with open(out_path) as f:
            record = json.load(f)
    except (OSError, ValueError) as e:
        return None, rss_mb, "unreadable output (%s)" % e
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)
    return record, rss_mb, "ok"


def expected_cells(workload):
    return 12 if workload == "paper-batch" else 16


def is_aggregate(row):
    return row["label"].endswith("fleet")


def strip_host_timed(row):
    row = dict(row)
    metrics = {}
    for kind, values in row["metrics"].items():
        metrics[kind] = {k: v for k, v in values.items()
                         if not k.startswith(HOST_TIMED_PREFIXES)}
    row["metrics"] = metrics
    return row


class Checker:
    """Pinned-baseline and repetition checks, counted per cell."""

    def __init__(self, workload, seed):
        self.pins = {}
        if seed == PINNED_SEED:
            path = os.path.join(BASELINES, PIN_FILES[workload])
            if not os.path.isfile(path):
                fail_setup("missing pinned baseline %s" % path)
            with open(path) as f:
                self.pins = {r["label"]: r for r in json.load(f)["runs"]}
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.pinned_rows = 0
        self.problems = []

    def check(self, workload, record, status):
        cells = expected_cells(workload)
        self.attempted += cells
        if record is None:
            self.failed += cells
            self.problems.append("repetition %s: all %d cells failed"
                                 % (status, cells))
            return
        rows = [strip_host_timed(r) for r in record["rows"]["runs"]]
        bad = set()
        for row in rows:
            pin = self.pins.get(row["label"])
            if pin is not None:
                self.pinned_rows += 1
                if pin != row:
                    bad.add(row["label"])
                    self.problems.append("%s differs from its pin"
                                         % row["label"])
        if self.reference is None:
            self.reference = rows
        elif [r["label"] for r in rows] != [r["label"] for r in
                                            self.reference]:
            bad.update(r["label"] for r in rows)
            self.problems.append("repetition produced other cells")
        else:
            for row, ref in zip(rows, self.reference):
                if row != ref:
                    bad.add(row["label"])
                    self.problems.append(
                        "%s differs from the first repetition%s"
                        % (row["label"],
                           " (traced)" if record["traced"] else ""))
        cell_labels = {r["label"] for r in rows if not is_aggregate(r)}
        failed = len(bad & cell_labels)
        if bad and not failed:
            failed = 1  # Only the fleet aggregate row differs.
        self.failed += min(failed, cells)


# --------------------------------------------------------------------------
# Metrics


def cells(record):
    return [r for r in record["rows"]["runs"] if not is_aggregate(r)]


def total(record, field):
    return sum(r[field] for r in cells(record))


def metric_sum(record, kind, name, field=None):
    out = 0
    for r in cells(record):
        v = r["metrics"][kind].get(name)
        if v is not None:
            out += v[field] if field else v
    return out


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def host_s(record):
    return (record["run_ns"] + record["result_ns"]) / 1e9


def simulated_metrics(workload, record):
    """Deterministic simulated outputs of one repetition."""
    rows = cells(record)
    accesses = total(record, "accesses")
    out = {
        "sim_l1_per_kacc": (1e3 * total(record, "l1_misses") / accesses,
                            "1/kacc"),
        "sim_makespan_ms": (record["virtual_ms"], "virtual_ms"),
    }
    monitored = [r for r in rows if r["samples_taken"] or
                 r["monitor_overhead_cycles"]]
    if monitored:
        out["sim_monitor_overhead_pct"] = (
            100.0 * sum(r["monitor_overhead_cycles"] for r in monitored) /
            sum(r["total_cycles"] for r in monitored), "%")
    if workload == "paper-batch":
        by_label = {r["label"]: r for r in rows}
        speedups, l1_ratios = [], []
        for label, base in by_label.items():
            if not label.endswith("/base"):
                continue
            co = by_label[label[:-len("base")] + "coalloc"]
            speedups.append(base["total_cycles"] / co["total_cycles"])
            l1_ratios.append(co["l1_misses"] / base["l1_misses"])
        out["sim_speedup"] = (geomean(speedups), "ratio")
        out["sim_l1_miss_cut_pct"] = (100.0 * (1.0 - geomean(l1_ratios)),
                                      "%")
    return out


def end_to_end(workload, records, rss, checker):
    host = statistics.median(host_s(r) for r in records)
    setups = [ns / 1e9 for r in records for ns in r["setup_ns"]]
    first = records[0]
    m = {
        "host_s": (host, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "sim_minst_per_s": (total(first, "machine_insts_executed") / host /
                            1e6, "Minst/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "failed_frac": (checker.failed / checker.attempted, "ratio"),
    }
    if first["requests"]:
        m["requests_per_s"] = (first["requests"] / host, "1/s")
    m.update(simulated_metrics(workload, first))
    return m


def per_layer(untraced, traced):
    """Per-layer metrics of the traced repetitions (times are medians)."""
    def med(f):
        return statistics.median(f(r) for r in traced)

    def stage_ns(r, stage):
        return metric_sum(r, "histograms", "pipeline.stage.%s_ns" % stage,
                          "sum")

    def layer_ns(r):
        lay = r["layers"]
        return (lay["alloc_ns"] + lay["collect_ns"] + lay["event_ns"] +
                sum(stage_ns(r, s) for s in STAGES))

    t = traced[0]
    lay = t["layers"]
    core = {s: med(lambda r, s=s: stage_ns(r, s)) for s in STAGES}
    gc_collect = med(lambda r: r["layers"]["collect_ns"])
    # The unattributed remainder: run() minus every timed layer below it.
    vm_self = med(lambda r: r["run_ns"] - layer_ns(r))
    minst = total(t, "machine_insts_executed")
    accesses = total(t, "accesses")
    promoted = metric_sum(t, "gauges", "gc.bytes_promoted")
    processed = lay["samples_processed"]
    overhead = 100.0 * (statistics.median(host_s(r) for r in traced) /
                        statistics.median(host_s(r) for r in untraced) - 1.0)
    ns = "ns"
    return {
        "harness.setup_ns": (statistics.median(
            ns_ for r in traced for ns_ in r["setup_ns"]), ns),
        "harness.run_ns": (med(lambda r: r["run_ns"]), ns),
        "harness.result_ns": (med(lambda r: r["result_ns"]), ns),
        "harness.requests": (t["requests"], "count"),
        "vm.self_ns": (vm_self, ns),
        "vm.machine_insts": (minst, "count"),
        "vm.invocations": (lay["invocations"], "count"),
        "vm.objects_allocated": (total(t, "objects_allocated"), "count"),
        "vm.ns_per_minst": (vm_self / minst, "ns/inst"),
        "memsim.accesses": (accesses, "count"),
        "memsim.l1_misses": (total(t, "l1_misses"), "count"),
        "memsim.l2_misses": (total(t, "l2_misses"), "count"),
        "memsim.tlb_misses": (total(t, "tlb_misses"), "count"),
        "memsim.ns_per_access": (vm_self / accesses, "ns/access"),
        "gc.allocs": (lay["allocs"], "count"),
        "gc.alloc_ns": (med(lambda r: r["layers"]["alloc_ns"]), ns),
        "gc.collect_ns": (gc_collect, ns),
        "gc.collections": (total(t, "minor_collections") +
                           total(t, "major_collections"), "count"),
        "gc.bytes_promoted": (promoted, "bytes"),
        "gc.ns_per_promoted_byte": (gc_collect / promoted if promoted
                                    else 0.0, "ns/byte"),
        "gc.write_barriers": (lay["write_barriers"], "count"),
        "gc.coalloc_pairs": (total(t, "coallocated_pairs"), "count"),
        "hpm.events": (lay["events"], "count"),
        "hpm.event_ns": (med(lambda r: r["layers"]["event_ns"]), ns),
        "hpm.samples": (total(t, "samples_taken"), "count"),
        "hpm.pmu_rotations": (t["pmu_rotations"], "count"),
        "hpm.granted_share": (t["granted_share"], "ratio"),
        "core.drain_ns": (core["drain"], ns),
        "core.resolve_ns": (core["resolve"], ns),
        "core.attribute_ns": (core["attribute"], ns),
        "core.dispatch_ns": (core["dispatch"], ns),
        "core.samples_processed": (processed, "count"),
        "core.attributed_frac": (lay["samples_attributed"] / processed
                                 if processed else 0.0, "ratio"),
        "core.applies": (lay["applies"], "count"),
        "core.accept_frac": (lay["accepts"] / lay["applies"]
                             if lay["applies"] else 0.0, "ratio"),
        "core.reverts": (lay["reverts"], "count"),
        "trace_overhead_pct": (overhead, "%"),
    }


# --------------------------------------------------------------------------
# Driver


def load_declared():
    """The metric names BENCHMARK.json declares, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_workload(workload, seed, seconds, trace):
    checker = Checker(workload, seed)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    untraced, traced, rss = [], [], []
    index = 0
    # Closed loop: a repetition starts only after the previous one ended,
    # and none starts that would end past the budget once the minimum ran.
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            record, rss_mb, status = run_child(workload, seed, is_traced,
                                               deadline, index)
            index += 1
            checker.check(workload, record, status)
            if record is None:
                return checker, untraced, traced, rss
            (traced if is_traced else untraced).append(record)
            if not is_traced:
                rss.append(rss_mb)
        elapsed = time.monotonic() - start
        per_round = elapsed / max(1, index if not trace else index // 2)
        enough = (len(untraced) >= (1 if trace else MIN_REPS)
                  and (not trace or traced))
        if enough and elapsed + per_round > seconds:
            break
        if elapsed + per_round > HARD_LIMIT_S:
            break
    return checker, untraced, traced, rss


def fmt(value):
    return ("%.6g" % value) if isinstance(value, float) else str(value)


def report(workload, seed, trace, checker, untraced, traced, metrics,
           context):
    print("== hostbench %s: seed %d, trace %d, %d untraced + %d traced "
          "repetitions" % (workload, seed, trace, len(untraced), len(traced)))
    print("   context " + json.dumps(context, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("   %-28s %16s %s" % (name, fmt(value), unit))
    pinned = ("%d pinned rows compared" % checker.pinned_rows
              if seed == PINNED_SEED else "pins skipped (seed %d)" % seed)
    print("   checks: %s; %d/%d cells failed" % (pinned, checker.failed,
                                                 checker.attempted))
    for p in checker.problems[:20]:
        print("   FAILED: " + p)


def measure(workload, seed, seconds, trace, context, declared):
    checker, untraced, traced, rss = run_workload(workload, seed, seconds,
                                                  trace)
    metrics = {}
    if untraced and (traced or not trace):
        metrics = (per_layer(untraced, traced) if trace else
                   end_to_end(workload, untraced, rss, checker))
    report(workload, seed, trace, checker, untraced, traced, metrics,
           context)
    correct = checker.failed == 0 and bool(metrics)
    if declared is not None:
        wanted = declared[1] if trace else declared[0]
        metrics = {k: metrics[k] for k in wanted if k in metrics}
        if correct and len(metrics) != len(wanted):
            correct = False
            print("   FAILED: missing metrics %s"
                  % sorted(set(wanted) - set(metrics)))
    return {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail_setup("--seconds wants >= 1 and --seed >= 0")

    context = host_context(build_runner())
    declared = load_declared()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: measure(w, args.seed, args.seconds, args.trace, context,
                          declared)
               for w in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
