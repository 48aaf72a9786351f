#!/usr/bin/env python3
"""End-to-end benchmark of the PRISM simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace 0|1 [--scale small|tiny]

Builds perfbench/driver.cc against the repository's src/ (Release,
into .bench_build/), then runs one workload's sweep in a fresh driver
process, again and again until --seconds have passed (at least once).
Each sweep is closed-loop: one simulation at a time.

--trace 0 prints the end-to-end metrics, each the median over the
sweeps.  --trace 1 runs the sweep untraced and then traced, in turn,
and prints the per-layer metrics; the traced run attaches the
boundary-split RefSink and writes its spans as Chrome-trace JSON to
.bench_build/perfbench-out/.  Every simulation is checked (report
schema, reference counts, KV completions, identical simulated results
across the run's sweeps and between traced and untraced runs); the
last line of stdout is one JSON object with the metrics and the check
outcome, and the exit code is 1 if any simulation failed.

perfbench/README.md describes the workloads, the metrics and what they
should move.
"""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")

WORKLOADS = ("splash-fig7", "kv-zipf-1024", "kv-update-8x4")
# Wall-clock cap on starting another sweep, so a run ends well inside
# the three minutes a run may take.
BUDGET_S = 120.0
SWEEP_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


def load_script(name):
    """Import scripts/<name>.py from the checkout (the report rules)."""
    path = os.path.join(ROOT, "scripts", name + ".py")
    if not os.path.isfile(path):
        raise BenchError(f"missing {path}")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def build():
    """Configure (once) and build the driver; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no prism sources under {ROOT}/src")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, env=env).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench_driver")


def shard_count():
    """Event-loop shards for the sharded workload: 4, or fewer on a
    smaller host, but at least 2 (results are identical at 2 and 4;
    1 would be the sequential scheduler, a different schedule)."""
    return max(2, min(4, len(os.sched_getaffinity(0))))


def source_digest():
    """sha256 over the library sources and the benchmark's files."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith((".cc", ".hh", ".py", ".txt")):
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def provenance(args, shards, doc):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none (not a git checkout)"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": doc["compiler"],
        "build_type": doc["build_type"],
        "git_commit": commit,
        "source_sha256": source_digest(),
        "workload": args.workload,
        "scale": args.scale,
        "shards": shards,
        "seed": args.seed,
    }


def run_sweep(driver, workload, seed, scale, shards, traced, out):
    """Run one sweep in a fresh process; return (doc, peak RSS in MB),
    or (None, 0) if the driver failed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PRISM_")}
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--scale", scale, "--shards", str(shards),
           "--trace", "1" if traced else "0", "--out", out]
    if os.path.exists(out):
        os.remove(out)
    p = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                         env=env, cwd=ROOT)
    deadline = time.monotonic() + SWEEP_TIMEOUT_S
    while True:
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            p.kill()
            pid, status, ru = os.wait4(p.pid, 0)
            print(f"perfbench: {workload} sweep timed out",
                  file=sys.stderr)
            return None, 0
        time.sleep(0.02)
    if os.waitstatus_to_exitcode(status) != 0:
        print(f"perfbench: driver exited with status "
              f"{os.waitstatus_to_exitcode(status)}", file=sys.stderr)
        return None, 0
    with open(out) as f:
        doc = json.load(f)
    return doc, ru.ru_maxrss / 1024.0


# --- Checks -------------------------------------------------------------

def check_sims(doc, validate):
    """Per-simulation output checks; return (sim index, failure) pairs."""
    failures = []
    for i, s in enumerate(doc["sims"]):
        where = f"{doc['workload']} sim {i} ({s['app']}/{s['policy']})"
        r = s["report"]
        try:
            validate.check_run_report(r, where)
        except SystemExit:
            failures.append((i, f"{where}: report fails "
                                "validate_report.py"))
            continue
        refs = sum(v for n in r["nodes"] for k, v in n["counters"].items()
                   if k.startswith("proc.")
                   and k.endswith((".loads", ".stores")))
        if r["metrics"]["references"] != refs:
            failures.append((i, f"{where}: metrics.references "
                                f"{r['metrics']['references']} != "
                                f"per-proc loads+stores {refs}"))
        if doc["kv_requests"]:
            done = sum(h["count"] for h in r["histograms"]
                       if h["component"] == "workload"
                       and h["name"].startswith("kv."))
            if done < doc["kv_requests"]:
                failures.append((i, f"{where}: KV completed {done} of "
                                    f"{doc['kv_requests']} requests"))
    return failures


def canonical(doc, strip):
    """Each simulation's simulated results under the strip_report.py
    rule, as canonical JSON strings."""
    return [json.dumps({"app": s["app"], "policy": s["policy"],
                        "report": strip.strip(s["report"])},
                       sort_keys=True, separators=(",", ":"))
            for s in doc["sims"]]


def compare(reference, other, what):
    """(sim index, failure) pairs for every simulation whose canonical
    results in @other differ from @reference."""
    if len(reference) != len(other):
        return [(i, f"{what}: {len(other)} simulations, expected "
                    f"{len(reference)}") for i in range(len(other))]
    return [(i, f"{what}: simulation {i} results differ from the "
                f"run's first sweep")
            for i, (a, b) in enumerate(zip(reference, other)) if a != b]


def digest(canon):
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


# --- Metrics ------------------------------------------------------------

def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def ratio(a, b):
    return a / b if b else 0.0


def latency_hists(doc):
    """(read, update) latency histograms: KV requests, arrival to
    completion, on the KV workloads; remote read misses and upgrades
    on splash-fig7, which issues no requests."""
    h = doc["histograms"]
    if doc["kv_requests"]:
        return h["workload.kv.read.latency"], h["workload.kv.update.latency"]
    return h["ctrl.latency.read2+3"], h["ctrl.latency.upgrade"]


def end_to_end(doc, rss_mb):
    sims = doc["sims"]
    read, update = latency_hists(doc)
    return {
        "setup_s": sum(s["setup_s"] for s in sims),
        "wall_s": doc["wall_s"],
        "sim_refs_per_s": geomean(
            [s["report"]["metrics"]["references"] / s["run_s"]
             for s in sims]),
        "peak_rss_mb": rss_mb,
        "sim_exec_cycles": geomean(
            [s["report"]["metrics"]["execCycles"] for s in sims]),
        "read_p50_cycles": read["p50"],
        "read_p99_cycles": read["p99"],
        "update_p99_cycles": update["p99"],
    }


def node_sum(doc, name):
    return sum(n["counters"].get(name, 0)
               for s in doc["sims"] for n in s["report"]["nodes"])


def proc_sum(doc, leaf):
    return sum(v for s in doc["sims"] for n in s["report"]["nodes"]
               for k, v in n["counters"].items()
               if k.startswith("proc.") and k.endswith("." + leaf))


def gauge_max(doc, name):
    return max(n["gauges"].get(name, 0)
               for s in doc["sims"] for n in s["report"]["nodes"])


def machine_sum(doc, name):
    return sum(s["report"]["machineCounters"].get(name, 0)
               for s in doc["sims"])


def per_layer(doc, untraced_wall_s):
    """Per-layer metrics of one traced sweep.  Counts are summed over
    the simulations; quantiles come from the merged histograms;
    footprints are maxima over nodes.  On the sharded workload the
    boundary split is not measured and Machine::run is counted whole
    as event loop."""
    sims = doc["sims"]
    h = doc["histograms"]
    refs = proc_sum(doc, "loads") + proc_sum(doc, "stores")
    events = sum(s["events"] for s in sims)
    run_s = sum(s["run_s"] for s in sims)
    split = all("fastpath_s" in s for s in sims)
    misses = node_sum(doc, "ctrl.remoteMisses")
    upgrades = node_sum(doc, "ctrl.upgrades")
    local_hits = node_sum(doc, "ctrl.localMemHits")
    faults = node_sum(doc, "kernel.faults")
    client_outs = node_sum(doc, "kernel.clientPageOuts")
    home_outs = node_sum(doc, "kernel.homePageOuts")
    messages = machine_sum(doc, "net.messages")
    return {
        "sim.events": events,
        "sim.events_per_ref": ratio(events, refs),
        "host.run_s": run_s,
        "host.ns_per_event": ratio(run_s * 1e9, events),
        "proc.refs": refs,
        "proc.miss_path_ratio": ratio(
            proc_sum(doc, "l2Misses") + proc_sum(doc, "upgradesLocal"),
            refs),
        "proc.tlb_refills": proc_sum(doc, "tlbRefills"),
        "proc.page_faults": proc_sum(doc, "pageFaults"),
        "host.fastpath_s": (sum(s["fastpath_s"] for s in sims)
                            if split else 0.0),
        "host.eventloop_s": (sum(s["eventloop_s"] for s in sims)
                             if split else run_s),
        "ctrl.remote_misses": misses,
        "ctrl.home_requests": node_sum(doc, "ctrl.homeRequests"),
        "ctrl.upgrades": upgrades,
        "ctrl.invals_sent": node_sum(doc, "ctrl.invalsSent"),
        "ctrl.writebacks_sent": node_sum(doc, "ctrl.writebacksSent"),
        "ctrl.page_cache_hit_ratio": ratio(local_hits,
                                           local_hits + misses),
        "ctrl.retries": node_sum(doc, "ctrl.retries"),
        "ctrl.nacks_sent": node_sum(doc, "ctrl.nacksSent"),
        "ctrl.retry_ratio": ratio(node_sum(doc, "ctrl.retries"),
                                  misses + upgrades),
        "ctrl.read2_p50_cycles": h["ctrl.latency.read2"]["p50"],
        "ctrl.read2_p99_cycles": h["ctrl.latency.read2"]["p99"],
        "ctrl.read3_p99_cycles": h["ctrl.latency.read3"]["p99"],
        "ctrl.upgrade_p99_cycles": h["ctrl.latency.upgrade"]["p99"],
        "footprint.dir_bytes": gauge_max(doc, "footprint.dirBytes"),
        "footprint.pit_entries": gauge_max(doc, "footprint.pitEntries"),
        "footprint.tag_bytes": gauge_max(doc, "footprint.tagBytes"),
        "net.messages": messages,
        "net.traffic_cycles": machine_sum(doc, "net.trafficProxy"),
        "net.msgs_per_miss": ratio(messages, misses),
        "net.control_p99_cycles": h["net.latency.control"]["p99"],
        "net.data_p99_cycles": h["net.latency.data"]["p99"],
        "kernel.faults": faults,
        "kernel.client_page_outs": client_outs,
        "kernel.home_page_outs": home_outs,
        "kernel.pageouts_per_fault": ratio(client_outs + home_outs,
                                           faults),
        "kernel.conversions": (node_sum(doc, "kernel.conversionsToLaNuma")
                               + node_sum(doc,
                                          "kernel.conversionsToScoma")),
        "kernel.pagein_p99_cycles": h["kernel.latency.pageIn"]["p99"],
        "kernel.pageout_p99_cycles": h["kernel.latency.pageOut"]["p99"],
        "kernel.frames_peak": max(s["report"]["metrics"]["framesAllocated"]
                                  for s in sims),
        "kernel.avg_utilization": statistics.fmean(
            s["report"]["metrics"]["avgUtilization"] for s in sims),
        "host.build_s": sum(s["build_s"] for s in sims),
        "host.workload_setup_s": sum(s["workload_setup_s"] for s in sims),
        "host.report_s": sum(s["report_s"] for s in sims),
        "kv.read_count": h.get("workload.kv.read.latency",
                               {"count": 0})["count"],
        "kv.update_count": h.get("workload.kv.update.latency",
                                 {"count": 0})["count"],
        "host.trace_overhead": doc["wall_s"] / untraced_wall_s - 1.0,
    }


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def median_metrics(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# --- Main ---------------------------------------------------------------

def run(args):
    """Run the benchmark; return (result object or None, output lines)."""
    validate = load_script("validate_report")
    strip = load_script("strip_report")
    driver = build()
    shards = shard_count() if args.workload == "kv-zipf-1024" else 1
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    modes = ("untraced", "traced") if args.trace else ("untraced",)

    failed = {}       # (sweep, mode, sim index) -> first failure
    attempted = 0
    reference = None  # canonical results of the run's first sweep
    docs = {}         # mode -> the latest sweep's driver output
    e2e_rows, layer_rows, lines = [], [], []
    start = time.monotonic()
    sweep = 0
    while True:
        sweep += 1
        t = time.monotonic()
        for mode in modes:
            doc, rss = run_sweep(driver, args.workload, args.seed,
                                 args.scale, shards, mode == "traced",
                                 f"{stem}-{mode}.json")
            if doc is None:
                return None, lines + [
                    f"{args.workload}: the driver failed; every "
                    f"simulation of sweep {sweep} is lost"]
            attempted += len(doc["sims"])
            canon = canonical(doc, strip)
            if reference is None:
                reference = canon
            found = check_sims(doc, validate) + compare(
                reference, canon, f"sweep {sweep} {mode}")
            for i, why in found:
                failed.setdefault((sweep, mode, i), why)
            docs[mode] = doc
            if mode == "traced":
                layer_rows.append(per_layer(doc,
                                            docs["untraced"]["wall_s"]))
            else:
                e2e_rows.append(end_to_end(doc, rss))
            lines.append(f"sweep {sweep} {mode}: wall "
                         f"{doc['wall_s']:.3f} s, peak RSS {rss:.1f} MB")
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds or \
                elapsed + (time.monotonic() - t) > BUDGET_S:
            break

    prov = provenance(args, shards, docs["untraced"])
    e2e_specs, layer_specs = load_metric_specs()
    read, update = latency_hists(docs["untraced"])
    lines = ["provenance " + json.dumps(prov, sort_keys=True)] + lines + [
        f"runs {attempted}",
        f"runs_failed {len(failed)}",
        f"sim_digest {digest(reference)}",
        f"latency samples: read {read['count']}, update {update['count']}",
    ]
    metrics = median_metrics(e2e_rows)
    lines += [f"{m['name']} {metrics[m['name']]:.10g} {m['unit']}"
              for m in e2e_specs]
    specs = e2e_specs
    if args.trace:
        metrics = median_metrics(layer_rows)
        lines += [f"{m['name']} {metrics[m['name']]:.10g} {m['unit']}"
                  for m in layer_specs]
        specs = layer_specs
        trace_path = stem + ".trace.json"
        with open(trace_path, "w") as f:
            json.dump({"traceEvents": docs["traced"]["traceEvents"],
                       "otherData": prov}, f)
        lines.append(f"spans {trace_path}")
    lines += list(failed.values())

    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in specs},
    }
    return result, lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("small", "tiny"), default="small")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be in [0, 2^63)")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        result, lines = run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
