#!/usr/bin/env python3
"""Render the committed BENCH_pr*.json sidecars into BENCH_TRAJECTORY.md.

Usage: bench_trajectory.py [repo-root] [output.md]

Every PR that touches performance commits a BENCH_pr<N>.json sidecar at the
repo root (written by tools/bench_smoke.sh).  bench_diff.py gates one PR
against its predecessor; this script looks at the whole stack: it loads
every sidecar, sorts by PR number, and writes a markdown table of the
headline numbers per PR plus a sparkline per metric so drift across many
PRs is visible at a glance.  A metric missing from an old sidecar (its
schema postdates that PR) renders as an em-dash, never as an error.

Exit status 0 on success, 2 when no sidecars are found or one fails to
parse (a committed sidecar must always be valid JSON).
"""

import glob
import json
import os
import re
import sys

# (column label, dotted path into the sidecar, printf format, direction).
# Direction is documentation for the reader ("down" = smaller is better)
# and picks the arrow rendered in the header.
METRICS = [
    ("fig9 wall s", "benches.fig9_single_node_speedup.wall_s",
     "%.3f", "down"),
    ("gemm GF", "benches.table5_matmul_gflops.gflops.opt_corr_gemm",
     "%.0f", "up"),
    ("syrk GF", "benches.table5_matmul_gflops.gflops.opt_svm_syrk",
     "%.0f", "up"),
    ("small-grain s",
     "benches.fig9_single_node_speedup.small_grain_wall_s", "%.3f", "down"),
    ("recovery s", "benches.cluster_smoke_faulted.recovery_wall_s",
     "%.3f", "down"),
    ("oocore slow x", "benches.oocore.streamed_slowdown", "%.1f", "down"),
    ("trace ovh %", "benches.tracing_overhead.overhead_pct", "%.1f", "down"),
]

SPARK = "▁▂▃▄▅▆▇█"


def lookup(doc, path):
    node = doc
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def sparkline(values):
    """Map the metric's non-None values onto eight block heights."""
    present = [v for v in values if v is not None]
    if not present:
        return ""
    lo, hi = min(present), max(present)
    out = []
    for v in values:
        if v is None:
            out.append(" ")
        elif hi == lo:
            out.append(SPARK[3])
        else:
            idx = int((v - lo) / (hi - lo) * (len(SPARK) - 1))
            out.append(SPARK[idx])
    return "".join(out)


def load_sidecars(root):
    sidecars = []
    for path in glob.glob(os.path.join(root, "BENCH_pr*.json")):
        m = re.search(r"BENCH_pr(\d+)\.json$", path)
        if not m:
            continue
        with open(path, encoding="utf-8") as f:
            sidecars.append((int(m.group(1)), os.path.basename(path),
                             json.load(f)))
    sidecars.sort()
    return sidecars


def render(sidecars):
    lines = [
        "# Bench trajectory",
        "",
        "Headline numbers from every committed `BENCH_pr*.json` sidecar",
        "(written by `tools/bench_smoke.sh`, gated pairwise by",
        "`tools/bench_diff.py`, regenerated by `tools/bench_trajectory.py`).",
        "All runs use scaled-down smoke problem sizes on the build machine,",
        "so compare trends, not absolute hardware numbers.  An em-dash means",
        "the sidecar predates that metric's schema.",
        "",
    ]
    header = ["PR", "schema", "ISA"]
    for label, _, _, direction in METRICS:
        arrow = "↓" if direction == "down" else "↑"
        header.append("%s %s" % (label, arrow))
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    series = {path: [] for _, path, _, _ in METRICS}
    for pr, _, doc in sidecars:
        row = ["pr%d" % pr, str(doc.get("schema", "?")),
               str(doc.get("simd_isa", "?"))]
        for _, path, fmt, _ in METRICS:
            value = lookup(doc, path)
            series[path].append(value)
            row.append(fmt % value if value is not None else "—")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append("Trend per metric, oldest PR on the left:")
    lines.append("")
    lines.append("| metric | trend |")
    lines.append("|---|---|")
    for label, path, _, _ in METRICS:
        lines.append("| %s | `%s` |" % (label, sparkline(series[path])))
    lines.append("")
    return "\n".join(lines)


def main(argv):
    tools_dir = os.path.dirname(os.path.abspath(argv[0]))
    root = argv[1] if len(argv) > 1 else os.path.dirname(tools_dir)
    out = argv[2] if len(argv) > 2 else os.path.join(root,
                                                     "BENCH_TRAJECTORY.md")
    try:
        sidecars = load_sidecars(root)
    except (OSError, ValueError) as err:
        print("bench_trajectory: cannot load sidecars: %s" % err,
              file=sys.stderr)
        return 2
    if not sidecars:
        print("bench_trajectory: no BENCH_pr*.json sidecars in %s" % root,
              file=sys.stderr)
        return 2
    text = render(sidecars)
    with open(out, "w", encoding="utf-8") as f:
        f.write(text)
    print("bench_trajectory: %d sidecars -> %s" % (len(sidecars), out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
