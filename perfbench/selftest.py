#!/usr/bin/env python3
"""Self-test of the benchmark harness, at tiny scale (about a minute).

Usage (from the repository root):

    python3 perfbench/selftest.py

Checks that
  * every workload prints every metric BENCHMARK.json names, with its
    unit, with tracing off and on, and passes its output checks;
  * the traced-vs-untraced comparison flags a perturbed copy of a
    report, and ignores what the strip_report.py rule drops;
  * host.fastpath_s + host.eventloop_s matches host.run_s;
  * the span file parses as Chrome-trace JSON, with the four step
    spans of every simulation sharing its id;
  * the sharded workload's simulated results are the same at 2 and 4
    shards, so sim_digest does not depend on the host's core count.
Exits non-zero at the first failed check.
"""

import copy
import json
import math
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

STEPS = ("Machine::Machine", "Workload::setup", "Machine::run",
         "Machine::report")


def check(cond, what):
    if not cond:
        print(f"selftest: FAIL: {what}")
        sys.exit(1)
    print(f"selftest: ok: {what}")


def bench(workload, trace):
    args = run.parse_args(["--workload", workload, "--seed", "0",
                           "--seconds", "0", "--trace", str(trace),
                           "--scale", "tiny"])
    result, lines = run.run(args)
    check(result is not None and result["correct"]
          and result["failed"] == 0 and result["attempted"] > 0,
          f"{workload} trace {trace}: every simulation passes its checks")
    return result, lines


def check_metrics(workload, trace, result, lines):
    e2e, layer = run.load_metric_specs()
    specs = layer if trace else e2e
    got = result["metrics"]
    check(set(got) == {m["name"] for m in specs}
          and all(got[m["name"]]["unit"] == m["unit"]
                  and isinstance(got[m["name"]]["value"], (int, float))
                  for m in specs),
          f"{workload} trace {trace}: every named metric with its unit")
    printed = {line.split()[0] for line in lines}
    check(all(m["name"] in printed for m in e2e + (layer if trace else []))
          and {"runs", "runs_failed", "sim_digest"} <= printed,
          f"{workload} trace {trace}: metrics, runs and sim_digest printed")
    if not trace:
        check(all(got[m["name"]]["value"] > 0 for m in e2e),
              f"{workload}: no end-to-end metric is 0")


def check_split(workload, result):
    m = {k: v["value"] for k, v in result["metrics"].items()}
    check(math.isclose(m["host.fastpath_s"] + m["host.eventloop_s"],
                       m["host.run_s"], rel_tol=1e-9),
          f"{workload}: host.fastpath_s + host.eventloop_s == host.run_s")


def check_spans(workload, lines):
    path = [line.split(None, 1)[1] for line in lines
            if line.startswith("spans ")][0]
    with open(path) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    check(isinstance(events, list) and events
          and all(e["ph"] == "X" and e["dur"] >= 0
                  and {"name", "ts", "pid", "tid", "args"} <= e.keys()
                  for e in events)
          and "cpu" in trace["otherData"],
          f"{workload}: span file is Chrome-trace JSON with provenance")
    sims = {}
    for e in events:
        if e["cat"] == "sweep":
            sims.setdefault(e["args"]["sim"], set()).add(e["name"])
    check(sims and all(set(STEPS) <= names for names in sims.values()),
          f"{workload}: each simulation's step spans share its id")


def check_compare(workload):
    strip = run.load_script("strip_report")
    with open(f"{run.OUT_DIR}/{workload}-seed0-untraced.json") as f:
        doc = json.load(f)
    canon = run.canonical(doc, strip)
    check(run.compare(canon, canon, "same") == [],
          f"{workload}: identical reports compare equal")
    cosmetic = copy.deepcopy(doc)
    cosmetic["sims"][0]["report"]["generatedAt"] = "1970-01-01T00:00:00Z"
    check(run.compare(canon, run.canonical(cosmetic, strip), "cosmetic")
          == [], f"{workload}: a field the strip rule drops is ignored")
    perturbed = copy.deepcopy(doc)
    i = len(doc["sims"]) - 1
    perturbed["sims"][i]["report"]["metrics"]["execCycles"] += 1
    found = run.compare(canon, run.canonical(perturbed, strip), "perturbed")
    check([j for j, _ in found] == [i],
          f"{workload}: a perturbed report copy fails the comparison")


def check_shards():
    driver = run.build()
    digests = []
    for shards in (2, 4):
        out = f"{run.OUT_DIR}/kv-zipf-1024-shards{shards}.json"
        doc, _ = run.run_sweep(driver, "kv-zipf-1024", 0, "tiny", shards,
                               False, out)
        check(doc is not None and doc["shards"] == shards,
              f"kv-zipf-1024 runs on {shards} shards")
        digests.append(run.digest(run.canonical(
            doc, run.load_script("strip_report"))))
    check(digests[0] == digests[1],
          "kv-zipf-1024: same simulated results at 2 and 4 shards")


def main():
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result, lines = bench(workload, trace)
            check_metrics(workload, trace, result, lines)
            if trace:
                if workload != "kv-zipf-1024":
                    check_split(workload, result)
                check_spans(workload, lines)
        check_compare(workload)
    check_shards()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
