#!/usr/bin/env python3
"""Compares two sets of bench_fcma results, metric by metric.

    python3 bench_fcma/compare.py run --parent DIR --change DIR \\
        [--runs 10] [--seed 1] [--workload W ...] [--trace 0|1] --out PREFIX
    python3 bench_fcma/compare.py report PARENT.jsonl CHANGE.jsonl

`run` runs bench_fcma/run.py in two checkouts, pair by pair: pair i uses
seed (--seed + i) on both sides and alternates which side goes first.  It
appends one JSON line per run ({"workload", "seed", "trace", "result"}) to
PREFIX.parent.jsonl and PREFIX.change.jsonl, then prints the report.

`report` prints, for every metric and workload, each side's median and
quartiles, the fraction of pairs (same workload and seed) the change wins,
and a verdict against the bound BENCHMARK.json fixes for the metric:

  gain         the change wins at least 9 of 10 pairs and the medians differ
               by more than the parent's interquartile range;
  regression   the change's median is worse by more than the bound, and by
               more than the parent's interquartile range;
  unresolved   the parent's own spread is wider than the bound, or the gap
               exceeds the bound but lies within that spread;
  within       the change's median is no worse than the bound allows.

Per-layer metrics have no bound; they get a gain verdict or none.  The exit
code is 1 when any end-to-end metric regresses or a run was not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound, wins, pairs):
    """The verdict for one metric of one workload (see the module doc)."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    iqr = p3 - p1
    gap = cm - pm if better == "higher" else pm - cm  # > 0: change better
    if pairs and wins >= 0.9 * pairs and gap > iqr:
        return "gain"
    if bound is None:
        return ""
    worse = -gap / abs(pm) if pm else 0.0
    if pm and iqr / abs(pm) > bound:
        return "unresolved"
    if worse > bound:
        return "regression" if -gap > iqr else "unresolved"
    return "within"


def report(spec, parent_runs, change_runs):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    status = 0
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        bad = [r for r in runs if not r["result"].get("correct")]
        attempted = sum(r["result"].get("attempted", 0) for r in runs)
        failed = sum(r["result"].get("failed", 0) for r in runs)
        print(f"{side}: {len(runs)} runs, {len(bad)} not correct, "
              f"{failed} of {attempted} operations failed")
        status |= 1 if bad else 0
    print(f"{'workload':20} {'metric':28} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'wins':>7}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        p_runs = {(r["seed"], r["trace"]): r for r in parent_runs
                  if r["workload"] == w}
        c_runs = {(r["seed"], r["trace"]): r for r in change_runs
                  if r["workload"] == w}
        if not p_runs or not c_runs:
            continue
        names = sorted({m for r in list(p_runs.values()) +
                        list(c_runs.values())
                        for m in r["result"].get("metrics", {})},
                       key=lambda m: (m not in bounds, m))
        for m in names:
            meta = bounds.get(m) or layers.get(m)
            if meta is None:
                continue
            pv = [r["result"]["metrics"][m]["value"] for r in p_runs.values()
                  if m in r["result"].get("metrics", {})]
            cv = [r["result"]["metrics"][m]["value"] for r in c_runs.values()
                  if m in r["result"].get("metrics", {})]
            if not pv or not cv:
                continue
            sign = 1 if meta["better"] == "higher" else -1
            wins = pairs = 0
            for key, pr in p_runs.items():
                cr = c_runs.get(key)
                if cr is None or m not in cr["result"].get("metrics", {}):
                    continue
                pairs += 1
                diff = (cr["result"]["metrics"][m]["value"] -
                        pr["result"]["metrics"][m]["value"]) * sign
                wins += 1 if diff > 0 else 0
            v = verdict(pv, cv, meta["better"], meta.get("bound"), wins,
                        pairs)
            status |= 1 if v == "regression" else 0
            pq = "/".join(f"{x:.4g}" for x in quartiles(pv))
            cq = "/".join(f"{x:.4g}" for x in quartiles(cv))
            print(f"{w:20} {m:28} {pq:>30} {cq:>30} "
                  f"{wins:>3}/{pairs:<3}  {v}")
    return status


def run_side(checkout, workload, seed, trace, out):
    proc = subprocess.run(
        [sys.executable, "bench_fcma/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    with open(out, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "trace": trace, "result": result}) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--workload", action="append")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    p = sub.add_parser("report")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.command == "report":
        return report(spec, load(args.parent), load(args.change))

    parent_out = args.out + ".parent.jsonl"
    change_out = args.out + ".change.jsonl"
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for i in range(args.runs):
        seed = args.seed + i
        sides = [(args.parent, parent_out), (args.change, change_out)]
        if i % 2 == 1:
            sides.reverse()
        for w in workloads:
            for checkout, out in sides:
                run_side(checkout, w, seed, args.trace, out)
        print(f"pair {i + 1}/{args.runs} done", file=sys.stderr, flush=True)
    return report(spec, load(parent_out), load(change_out))


if __name__ == "__main__":
    sys.exit(main())
