#!/bin/sh
# Scaled-down smoke run of the paper benches: Table 5 (matmul GFLOPS),
# Table 7 (stage merging), Table 8 (SVM solvers), Fig 9 (single-node
# speedup), and the cluster task-farm smoke in clean, fault-injected
# (worker crash + recovery) and master-failover (standby takeover)
# variants.  Each bench runs at a fraction of its default problem size so
# the whole sweep finishes in seconds, and the results land in one JSON
# file: per-bench wall-clock, the Table 5 per-kernel GFLOPS, p95 span
# latencies of the pipeline stages, the cluster load-imbalance ratio, the
# recovery/failover costs, and the cost of always-on streaming tracing
# (interleaved untraced vs streamed pipeline pairs; the upper end of a 95%
# confidence interval on the median ratio must be at or below 3%).
#
# Usage: bench_smoke.sh <bench-dir> [output.json] [--pr N]
#
# The output defaults to BENCH_pr${BENCH_PR:-9}.json — the per-PR sidecar
# committed at the repo root so tools/bench_diff.py can gate later PRs
# against it.  Pass --pr N (or set BENCH_PR) instead of hardcoding a name.
set -eu

BENCH_DIR="$1"
shift
PR="${BENCH_PR:-9}"
OUT=""
while [ $# -gt 0 ]; do
  case "$1" in
    --pr)
      PR="$2"
      shift 2
      ;;
    *)
      OUT="$1"
      shift
      ;;
  esac
done
[ -n "$OUT" ] || OUT="BENCH_pr${PR}.json"
TOOLS_DIR=$(dirname "$0")
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Milliseconds since the epoch (GNU date nanoseconds, truncated).
now_ms() {
  date +%s%N | cut -c1-13
}

# run_bench <name> <binary> [args...]: runs the bench, stores stdout in
# $WORK/<name>.txt and its wall-clock milliseconds in $WORK/<name>.ms.
run_bench() {
  name="$1"
  shift
  start=$(now_ms)
  "$@" > "$WORK/$name.txt"
  end=$(now_ms)
  echo $((end - start)) > "$WORK/$name.ms"
  echo "  $name: $((end - start)) ms"
}

wall_s() {
  awk '{printf "%.3f", $1 / 1000.0}' "$WORK/$1.ms"
}

echo "bench smoke sweep (scaled-down problem sizes)"
run_bench table5_matmul_gflops "$BENCH_DIR/bench_table5_matmul_gflops" \
  --voxels 2048 --syrk-voxels 512 --epochs 2
run_bench table7_stage_merging "$BENCH_DIR/bench_table7_stage_merging" \
  --voxels 512 --subjects 4 --task 16
run_bench table8_svm "$BENCH_DIR/bench_table8_svm" \
  --voxels 256 --subjects 6 --task 4
run_bench fig9_single_node_speedup \
  "$BENCH_DIR/bench_fig9_single_node_speedup" \
  --voxels 1024 --subjects 4 --calib-task 6
run_bench cluster_smoke "$BENCH_DIR/bench_cluster_smoke" \
  --voxels 256 --subjects 4 --workers 3 --task 16
# The metrics sidecar is overwritten per invocation: snapshot the clean
# run's before the fault-injected variant (worker 2 crashes after one
# task; a short lease keeps detection fast) replaces it.
cp "$BENCH_DIR/bench_cluster_smoke.metrics.json" \
  "$WORK/cluster_clean_metrics.json"
run_bench cluster_smoke_faulted "$BENCH_DIR/bench_cluster_smoke" \
  --voxels 256 --subjects 4 --workers 3 --task 16 \
  --lease-timeout 0.5 --fault-kill-rank 2 --fault-kill-after 1
cp "$BENCH_DIR/bench_cluster_smoke.metrics.json" \
  "$WORK/cluster_faulted_metrics.json"
# Master-failover variant: the primary dies after 3 dispatched batches and
# the standby takes over mid-fold (the replicated-control-plane cost).
run_bench cluster_smoke_failover "$BENCH_DIR/bench_cluster_smoke" \
  --voxels 256 --subjects 4 --workers 2 --task 16 \
  --lease-timeout 0.5 --fault-kill-master-after 3
cp "$BENCH_DIR/bench_cluster_smoke.metrics.json" \
  "$WORK/cluster_failover_metrics.json"

# Out-of-core proof: streamed analysis of a shard store larger than the
# memory budget, and a streamed offline study, must each stay under budget
# (VmHWM, asserted inside the bench) and match the resident run
# bit-for-bit; the sidecar records the cost.
run_bench oocore "$BENCH_DIR/bench_oocore" --task 64
cp "$BENCH_DIR/bench_oocore.metrics.json" "$WORK/oocore_metrics.json"

# Tracing overhead: the serial pipeline sweep with tracing fully off vs
# streaming every span to tlstream segments, run as task-interleaved A/B
# pairs inside one process (see bench_trace_overhead.cpp for why process-level
# timing cannot resolve a small delta on shared hardware).  The
# continuous-profiling contract is that always-on streaming costs <= 3%:
# the bench adds pairs (9 up to 31) until a 95% confidence interval on the
# median per-pair ratio clears the bound, and the gate passes only when
# the interval's upper end is at or below 3%.
run_bench trace_overhead "$BENCH_DIR/bench_trace_overhead" \
  --voxels 256 --reps 9
OVH_LINE=$(grep '^trace_overhead ' "$WORK/trace_overhead.txt")
OVH_PCT=$(echo "$OVH_LINE" \
  | sed -n 's/.* pct=\(-\{0,1\}[0-9.]*\).*/\1/p')
OVH_CI_LO=$(echo "$OVH_LINE" \
  | sed -n 's/.* ci_lo=\(-\{0,1\}[0-9.]*\).*/\1/p')
OVH_CI_HI=$(echo "$OVH_LINE" \
  | sed -n 's/.* ci_hi=\(-\{0,1\}[0-9.]*\).*/\1/p')
OVH_PAIRS=$(echo "$OVH_LINE" | sed -n 's/.* pairs=\([0-9]*\).*/\1/p')
OVH_OFF_S=$(echo "$OVH_LINE" \
  | sed -n 's/.*baseline_s=\([0-9.]*\).*/\1/p')
OVH_ON_S=$(echo "$OVH_LINE" \
  | sed -n 's/.*streaming_s=\([0-9.]*\).*/\1/p')
OVH_EVENTS=$(echo "$OVH_LINE" | sed -n 's/.*events=\([0-9]*\).*/\1/p')
test -n "$OVH_PCT" && test -n "$OVH_OFF_S" && test -n "$OVH_ON_S"
test -n "$OVH_CI_LO" && test -n "$OVH_CI_HI" && test -n "$OVH_PAIRS"
# The streamed legs must have been real ones: zero drops, spans on disk.
echo "$OVH_LINE" | grep -q 'dropped=0'
test "$OVH_EVENTS" -gt 0
echo "  tracing overhead: ${OVH_PCT}%, 95% CI [${OVH_CI_LO}%, ${OVH_CI_HI}%]" \
  "over ${OVH_PAIRS} pairs (${OVH_EVENTS} events streamed)"
# The bench decides against its 3% budget (kBudgetRatio) on the unrounded
# interval; verdict=pass means the upper end is at or below 3%.
echo "$OVH_LINE" | grep -q ' verdict=pass ' || {
  echo "bench smoke: tracing overhead 95% CI [${OVH_CI_LO}%, ${OVH_CI_HI}%]" \
    "over ${OVH_PAIRS} pairs does not clear the 3% budget" >&2
  exit 1
}

# Every table must have produced its metrics sidecar with the dispatched
# ISA recorded.
ISA=$(sed -n 's/.*"simd\/isa": "\([a-z0-9]*\)".*/\1/p' \
  "$BENCH_DIR/bench_table5_matmul_gflops.metrics.json" | head -n 1)
test -n "$ISA"

# Table 5 GFLOPS per kernel, keyed impl x function.  Table rows look like:
#   | our blocking        | correlation matrix | 86        | 248    | ...
t5_gflops() {
  grep -F "| $1" "$WORK/table5_matmul_gflops.txt" \
    | grep -F "$2" \
    | awk -F'|' '{gsub(/ /, "", $5); print $5}'
}
OPT_CORR=$(t5_gflops "our blocking" "correlation matrix")
OPT_SYRK=$(t5_gflops "our blocking" "SVM kernel matrix")
BASE_CORR=$(t5_gflops "baseline" "correlation matrix")
BASE_SYRK=$(t5_gflops "baseline" "SVM kernel matrix")
test -n "$OPT_CORR" && test -n "$OPT_SYRK"
test -n "$BASE_CORR" && test -n "$BASE_SYRK"

# Fig 9 must report a speedup > 1x for both datasets.
grep -qE "face-scene.*\|[^|]*x" "$WORK/fig9_single_node_speedup.txt"
grep -qE "attention" "$WORK/fig9_single_node_speedup.txt"

# Scheduler dispatch counters and the small-grain sweep wall-clock, from
# the Fig 9 metrics sidecar.  The counters are always seeded, but fall back
# to 0 so a missing sidecar key degrades instead of breaking the sweep.
FIG9_METRICS="$BENCH_DIR/bench_fig9_single_node_speedup.metrics.json"
sidecar_num() {
  v=$(sed -n "s/.*\"$1\": \([0-9.eE+-]*\).*/\1/p" "$FIG9_METRICS" \
    | head -n 1)
  echo "${v:-0}"
}
SCHED_STEALS=$(sidecar_num "sched\\/steals")
SCHED_LOCAL=$(sidecar_num "sched\\/local_hits")
SMALL_GRAIN_S=$(sidecar_num "bench\\/fig9\\/small_grain_wall_s")

# p95 span latencies of the pipeline stages, from the Fig 9 sidecar.  Each
# span serializes on one line, so select the label's line and pull p95_s.
span_p95() {
  v=$(grep -F "\"$1\": {" "$FIG9_METRICS" \
    | sed -n 's/.*"p95_s": \([0-9.eE+-]*\).*/\1/p' | head -n 1)
  echo "${v:-0}"
}
P95_CORR=$(span_p95 "task/correlation")
P95_SVM=$(span_p95 "task/svm")

# Cluster load-balance gauges from the clean task-farm smoke sidecar, the
# recovery counters from the fault-injected one, and the control-plane
# counters from the master-failover one.
CLUSTER_METRICS="$WORK/cluster_clean_metrics.json"
FAULTED_METRICS="$WORK/cluster_faulted_metrics.json"
FAILOVER_METRICS="$WORK/cluster_failover_metrics.json"
cluster_num() {
  v=$(sed -n "s/.*\"$2\": \([0-9.eE+-]*\).*/\1/p" "$1" | head -n 1)
  echo "${v:-0}"
}
IMBALANCE=$(cluster_num "$CLUSTER_METRICS" "cluster\\/imbalance_ratio")
MAX_BUSY=$(cluster_num "$CLUSTER_METRICS" "cluster\\/max_worker_busy_s")
MEAN_BUSY=$(cluster_num "$CLUSTER_METRICS" "cluster\\/mean_worker_busy_s")
DIED=$(cluster_num "$FAULTED_METRICS" "cluster\\/workers_died")
REASSIGNED=$(cluster_num "$FAULTED_METRICS" "cluster\\/reassignments")
RETRIES=$(cluster_num "$FAULTED_METRICS" "cluster\\/retries")
HB_MISSES=$(cluster_num "$FAULTED_METRICS" "cluster\\/heartbeat_misses")
RECOVERY_S=$(cluster_num "$FAULTED_METRICS" "cluster\\/recovery_wall_s")
FAILOVERS=$(cluster_num "$FAILOVER_METRICS" "cluster\\/failovers")
FAILOVER_WALL_S=$(cluster_num "$FAILOVER_METRICS" \
  "cluster\\/recovery_wall_s")
# The injected crash must actually have been detected and recovered from,
# and the injected master death must have promoted the standby.
test "$DIED" = "1"
test "$FAILOVERS" = "1"

# Out-of-core gauges from the bench_oocore sidecar; the budget and identity
# assertions already ran inside the bench, re-check the published verdicts.
OOCORE_METRICS="$WORK/oocore_metrics.json"
OOC_BUDGET_MB=$(cluster_num "$OOCORE_METRICS" "oocore\\/budget_mb")
OOC_RSS_MB=$(cluster_num "$OOCORE_METRICS" "oocore\\/streamed_peak_rss_mb")
OOC_SLOWDOWN=$(cluster_num "$OOCORE_METRICS" "oocore\\/streamed_slowdown")
OOC_WITHIN=$(cluster_num "$OOCORE_METRICS" "oocore\\/within_budget")
OOC_IDENTICAL=$(cluster_num "$OOCORE_METRICS" "oocore\\/reports_identical")
OOC_TASK_LOADS=$(cluster_num "$OOCORE_METRICS" "oocore\\/task_shard_loads")
OOC_TASK_BLOCKS=$(cluster_num "$OOCORE_METRICS" "oocore\\/task_blocks")
OOC_SUBJECTS=$(cluster_num "$OOCORE_METRICS" "oocore\\/subjects")
OOC_OFF_BUDGET_MB=$(cluster_num "$OOCORE_METRICS" "oocore\\/offline_budget_mb")
OOC_OFF_RSS_MB=$(cluster_num "$OOCORE_METRICS" "oocore\\/offline_peak_rss_mb")
OOC_OFF_WITHIN=$(cluster_num "$OOCORE_METRICS" \
  "oocore\\/offline_within_budget")
OOC_OFF_IDENTICAL=$(cluster_num "$OOCORE_METRICS" "oocore\\/offline_identical")
test "$OOC_WITHIN" = "1"
test "$OOC_IDENTICAL" = "1"
# The streamed offline protocol (plan-sized tasks, one at a time) must stay
# under its own budget and match its resident run.
test "$OOC_OFF_WITHIN" = "1"
test "$OOC_OFF_IDENTICAL" = "1"
# The column sweep maps each subject's shard once per block and once for
# the task's own rows: no streamed task may make more shard loads than
# subjects x (blocks + 1).
awk -v loads="$OOC_TASK_LOADS" -v blocks="$OOC_TASK_BLOCKS" \
    -v subjects="$OOC_SUBJECTS" 'BEGIN {
  bound = subjects * (blocks + 1)
  if (loads > 0 && loads <= bound) exit 0
  printf "bench smoke: a streamed task made %d shard loads (bound %d)\n", \
    loads, bound > "/dev/stderr"
  exit 1
}'

# Every sidecar this sweep consumed must pass the schema check, and the
# streams two of them were rendered from must validate against their
# views (skipped where python3 is unavailable).  No sidecar may have
# dropped a span event.
for sidecar in "$FIG9_METRICS" "$CLUSTER_METRICS" "$FAULTED_METRICS" \
    "$FAILOVER_METRICS" "$OOCORE_METRICS"; do
  grep -q '"dropped_events": 0$' "$sidecar"
done
if command -v python3 >/dev/null 2>&1; then
  python3 "$TOOLS_DIR/trace_check.py" "$FIG9_METRICS" "$CLUSTER_METRICS" \
    "$FAULTED_METRICS" "$FAILOVER_METRICS" "$OOCORE_METRICS" \
    "$BENCH_DIR/bench_fig9_single_node_speedup.stream" \
    "$BENCH_DIR/bench_cluster_smoke.stream"
else
  echo "bench smoke: python3 not found, skipping trace_check.py" >&2
fi

cat > "$OUT" <<EOF
{
  "schema": "fcma.bench_smoke.v9",
  "simd_isa": "$ISA",
  "benches": {
    "table5_matmul_gflops": {
      "wall_s": $(wall_s table5_matmul_gflops),
      "gflops": {
        "opt_corr_gemm": $OPT_CORR,
        "opt_svm_syrk": $OPT_SYRK,
        "baseline_corr_gemm": $BASE_CORR,
        "baseline_svm_syrk": $BASE_SYRK
      }
    },
    "table7_stage_merging": {"wall_s": $(wall_s table7_stage_merging)},
    "table8_svm": {"wall_s": $(wall_s table8_svm)},
    "fig9_single_node_speedup": {
      "wall_s": $(wall_s fig9_single_node_speedup),
      "small_grain_wall_s": $SMALL_GRAIN_S,
      "sched_steals": $SCHED_STEALS,
      "sched_local_hits": $SCHED_LOCAL,
      "p95_task_correlation_s": $P95_CORR,
      "p95_task_svm_s": $P95_SVM
    },
    "cluster_smoke": {
      "wall_s": $(wall_s cluster_smoke),
      "imbalance_ratio": $IMBALANCE,
      "max_worker_busy_s": $MAX_BUSY,
      "mean_worker_busy_s": $MEAN_BUSY
    },
    "cluster_smoke_faulted": {
      "wall_s": $(wall_s cluster_smoke_faulted),
      "workers_died": $DIED,
      "tasks_reassigned": $REASSIGNED,
      "retries": $RETRIES,
      "heartbeat_misses": $HB_MISSES,
      "recovery_wall_s": $RECOVERY_S
    },
    "cluster_smoke_failover": {
      "wall_s": $(wall_s cluster_smoke_failover),
      "failovers": $FAILOVERS,
      "recovery_wall_s": $FAILOVER_WALL_S
    },
    "oocore": {
      "wall_s": $(wall_s oocore),
      "budget_mb": $OOC_BUDGET_MB,
      "streamed_peak_rss_mb": $OOC_RSS_MB,
      "streamed_slowdown": $OOC_SLOWDOWN,
      "within_budget": $OOC_WITHIN,
      "reports_identical": $OOC_IDENTICAL,
      "task_shard_loads": $OOC_TASK_LOADS,
      "task_blocks": $OOC_TASK_BLOCKS,
      "subjects": $OOC_SUBJECTS,
      "offline_budget_mb": $OOC_OFF_BUDGET_MB,
      "offline_peak_rss_mb": $OOC_OFF_RSS_MB,
      "offline_within_budget": $OOC_OFF_WITHIN,
      "offline_identical": $OOC_OFF_IDENTICAL
    },
    "tracing_overhead": {
      "baseline_wall_s": $OVH_OFF_S,
      "streaming_wall_s": $OVH_ON_S,
      "overhead_pct": $OVH_PCT,
      "overhead_ci95_pct": [$OVH_CI_LO, $OVH_CI_HI],
      "overhead_budget_pct": 3.0,
      "streamed_events": $OVH_EVENTS,
      "estimator": "median of per-pair streamed/untraced wall ratios, each pair one task-interleaved sweep; pass when its distribution-free 95% CI upper end is <= 3%",
      "pairs": $OVH_PAIRS
    }
  }
}
EOF
echo "bench smoke results written to $OUT (isa: $ISA)"

# Regenerate the cross-PR trajectory table from the committed sidecars so
# BENCH_TRAJECTORY.md never drifts from the data (skipped without python3).
REPO_ROOT=$(cd "$TOOLS_DIR/.." && pwd)
if command -v python3 >/dev/null 2>&1; then
  python3 "$TOOLS_DIR/bench_trajectory.py" "$REPO_ROOT"
else
  echo "bench smoke: python3 not found, skipping bench_trajectory.py" >&2
fi
