#!/usr/bin/env python3
"""Compare two bench_smoke sidecars and fail on perf regressions.

Usage: bench_diff.py OLD.json NEW.json [--max-regress FRACTION]

Reads two BENCH_pr*.json files (fcma.bench_smoke.v3 or later; the per-PR
sidecars committed at the repo root) and compares the named spans below.
A span regresses when it moves in the bad direction by more than
--max-regress (default 0.10 = 10%) AND by more than the span's absolute
noise floor — wall-clock smoke numbers are small, so a floor keeps
millisecond jitter from failing the gate.  A span missing from the OLD
sidecar is skipped (schema grew since that PR); a span present in the old
sidecar but missing from the NEW one fails loudly by name — losing a
measurement is a regression of the harness, not noise.

Exit status: 0 = no regression, 1 = at least one, 2 = usage/parse error.
"""

import json
import sys

# (dot.path, direction, absolute noise floor).  Direction "down" means
# smaller is better (latencies); "up" means larger is better (throughput).
SPANS = [
    ("benches.table5_matmul_gflops.wall_s", "down", 0.08),
    ("benches.table5_matmul_gflops.gflops.opt_corr_gemm", "up", 2.0),
    ("benches.table5_matmul_gflops.gflops.opt_svm_syrk", "up", 2.0),
    ("benches.table7_stage_merging.wall_s", "down", 0.08),
    ("benches.table8_svm.wall_s", "down", 0.08),
    ("benches.fig9_single_node_speedup.wall_s", "down", 0.08),
    ("benches.fig9_single_node_speedup.small_grain_wall_s", "down", 0.08),
    ("benches.fig9_single_node_speedup.p95_task_correlation_s", "down",
     0.005),
    ("benches.fig9_single_node_speedup.p95_task_svm_s", "down", 0.005),
    ("benches.cluster_smoke.wall_s", "down", 0.08),
    ("benches.cluster_smoke_faulted.wall_s", "down", 0.08),
    ("benches.cluster_smoke_faulted.recovery_wall_s", "down", 0.10),
]


def lookup(doc, path):
    node = doc
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    max_regress = 0.10
    it = iter(argv[1:])
    for a in it:
        if a == "--max-regress":
            try:
                max_regress = float(next(it))
            except (StopIteration, ValueError):
                print("bench_diff: --max-regress needs a number",
                      file=sys.stderr)
                return 2
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    docs = []
    for path in args:
        try:
            with open(path, encoding="utf-8") as f:
                docs.append(json.load(f))
        except (OSError, ValueError) as e:
            print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
            return 2
    old, new = docs

    failures = []
    lost = []
    compared = 0
    for path, direction, floor in SPANS:
        ov, nv = lookup(old, path), lookup(new, path)
        if ov is None:
            continue  # span postdates the old sidecar's schema
        if nv is None:
            lost.append(path)
            print(f"  {path}: {ov:g} -> MISSING  << LOST SPAN")
            continue
        compared += 1
        delta = nv - ov
        worse = delta if direction == "down" else -delta
        rel = worse / abs(ov) if ov else 0.0
        flag = ""
        if worse > floor and rel > max_regress:
            failures.append((path, ov, nv, rel))
            flag = "  << REGRESSION"
        print(f"  {path}: {ov:g} -> {nv:g} ({rel:+.1%}){flag}")
    if compared == 0 and not lost:
        print("bench_diff: no comparable spans between the two sidecars",
              file=sys.stderr)
        return 2
    if lost:
        for path in lost:
            print(f"bench_diff: span '{path}' exists in {args[0]} but is "
                  f"missing from {args[1]} — the new sidecar stopped "
                  "measuring it", file=sys.stderr)
        return 1
    if failures:
        print(f"bench_diff: {len(failures)} span(s) regressed more than "
              f"{max_regress:.0%} ({args[0]} -> {args[1]})",
              file=sys.stderr)
        return 1
    print(f"bench_diff: {compared} spans within {max_regress:.0%} "
          f"({args[0]} -> {args[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
