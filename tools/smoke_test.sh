#!/bin/sh
# End-to-end smoke test of the fcma CLI: generate -> info -> preprocess ->
# analyze -> offline -> report, asserting each artifact exists and the
# reports carry the expected sections.  When python3 is available, the
# trace/timeline artifacts are additionally schema-checked by
# tools/trace_check.py.
#
# Usage: smoke_test.sh <fcma-binary> [tools-dir]
set -eu
FCMA="$1"
TOOLS_DIR="${2:-$(dirname "$0")}"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

# Schema validation needs a python3; degrade to a warning where the
# interpreter is absent so the CLI checks still run.
if command -v python3 >/dev/null 2>&1; then
  trace_check() { python3 "$TOOLS_DIR/trace_check.py" "$@"; }
else
  echo "smoke: python3 not found, skipping trace_check.py validation" >&2
  trace_check() { :; }
fi

"$FCMA" generate --out study --grid 10,10,8 --subjects 4 \
    --epochs-per-subject 12 --informative 16 --blobs 2
test -f study.fcmb && test -f study.epochs && test -f study.fcmm

"$FCMA" info --in study | grep -q "subjects:    4"

"$FCMA" preprocess --in study --out clean --detrend 1 --fwhm 1.2
test -f clean.fcmb && test -f clean.fcmm

"$FCMA" analyze --in clean --report analysis.txt --top-k 6
grep -q "top voxels" analysis.txt
grep -q "ROI clusters" analysis.txt

# Tracing: --trace-stream writes the event stream plus two views rendered
# from it at exit — the span/counter summary trace.json, with all three
# pipeline stages, latency percentiles, roofline attribution, and the
# pool helpers' busy intervals, and the Chrome-trace view (one named lane
# per helper thread; the caller is lane 0).
"$FCMA" analyze --in clean --report traced.txt --top-k 6 --threads 4 \
    --trace-stream tl_stream
test -f tl_stream/trace.json && test -f tl_stream/timeline.json
grep -q '"fcma.trace.v2"' tl_stream/trace.json
grep -q '"task/correlation"' tl_stream/trace.json
grep -q '"task/normalization"' tl_stream/trace.json
grep -q 'svm' tl_stream/trace.json
grep -q 'sched/' tl_stream/trace.json
grep -q '"p95_s"' tl_stream/trace.json
grep -q '"roofline"' tl_stream/trace.json
grep -q 'task/correlation/gemm_nt' tl_stream/trace.json
grep -q '"fcma.timeline.v1"' tl_stream/timeline.json
grep -q 'sched/worker1' tl_stream/timeline.json
trace_check tl_stream
# Every view comes only from the stream: the old flags are gone.
for gone in --trace-timeline --trace; do
  if "$FCMA" analyze --in clean --report gone.txt "$gone" x 2>/dev/null; then
    echo "expected $gone to be rejected as an unknown flag" >&2
    exit 1
  fi
done

# The report subcommand renders the stream into tables.
"$FCMA" report --stream-in tl_stream > report.txt
grep -q 'fcma.tlstream.v1' report.txt
grep -q 'task/correlation' report.txt
grep -q 'p95' report.txt
grep -q 'roofline' report.txt
grep -q 'meta simd/isa' report.txt
if "$FCMA" report --trace-in tl_stream/trace.json 2>/dev/null; then
  echo "expected report --trace-in to be rejected as an unknown flag" >&2
  exit 1
fi

# A trace view that disagrees with its stream fails validation.
if command -v python3 >/dev/null 2>&1; then
  cp -r tl_stream tl_mutated
  awk '!done && sub(/"count": /, "\"count\": 1") { done = 1 } { print }' \
      tl_stream/trace.json > tl_mutated/trace.json
  if trace_check tl_mutated 2>/dev/null; then
    echo "expected trace_check to reject an edited trace.json count" >&2
    exit 1
  fi
fi

# Abnormal exit still flushes the trace: a failing run must exit non-zero
# yet leave valid (if sparse) trace artifacts behind.
if "$FCMA" analyze --in /nonexistent --trace-stream err_stream \
    2>/dev/null; then
  echo "expected failure for a missing analyze input" >&2
  exit 1
fi
test -f err_stream/trace.json && test -f err_stream/stream.done
test -f err_stream/timeline.json
grep -q '"fcma.trace.v2"' err_stream/trace.json
trace_check err_stream/trace.json err_stream/timeline.json

# --threads 1 runs the same analysis on the calling thread alone and must
# produce an identical report (the pool only moves indices between lanes).
"$FCMA" analyze --in clean --report serial.txt --top-k 6 --threads 1
cmp traced.txt serial.txt
# The scheduler switch is gone from both commands, so its old serial form
# must be rejected as an unknown flag.
gone=sched
for cmd in analyze offline; do
  if "$FCMA" "$cmd" --in clean --report gone.txt "--$gone" serial \
      2>/dev/null; then
    echo "expected $cmd to reject --$gone as an unknown flag" >&2
    exit 1
  fi
done
# Numeric flags parse strictly: a malformed value is an error, not a 0.
if "$FCMA" analyze --in clean --report bad_topk.txt --top-k abc \
    2>/dev/null; then
  echo "expected failure for a non-numeric --top-k" >&2
  exit 1
fi

# Negative or zero counts are clean errors (exit 1), not an uncaught
# exception that aborts the process on a signal.
expect_exit_1() {
  status=0
  "$FCMA" "$@" --in clean --report bad_count.txt 2>/dev/null || status=$?
  if [ "$status" -ne 1 ]; then
    echo "expected exit 1 for '$*', got $status" >&2
    exit 1
  fi
}
expect_exit_1 analyze --threads -1
expect_exit_1 offline --threads -1
# A byte size no size_t can hold is rejected, not converted.
expect_exit_1 analyze --memory-budget inf
expect_exit_1 analyze --memory-budget 1e30G

# Forced-ISA dispatch: every variant runs on any host (portable vector
# code), reports itself in the trace metadata, and — because dispatch never
# changes answers — produces an identical report.
for isa in scalar avx2 avx512; do
  FCMA_FORCE_ISA=$isa "$FCMA" analyze --in clean --report "isa_$isa.txt" \
      --top-k 6 --trace-stream "isa_$isa"
  grep -q "\"simd/isa\": \"$isa\"" "isa_$isa/trace.json"
done
cmp isa_scalar.txt isa_avx2.txt
cmp isa_scalar.txt isa_avx512.txt

"$FCMA" offline --in clean --report offline.txt --top-k 12 --threads 2 \
    --voxels-per-task 100
grep -q "per-fold results" offline.txt
grep -q "mean held-out accuracy" offline.txt
# Streaming the timeline never changes answers either.
"$FCMA" offline --in clean --report offline_traced.txt --top-k 12 \
    --threads 2 --voxels-per-task 100 --trace-stream offline_stream
cmp offline.txt offline_traced.txt
trace_check offline_stream

# Out-of-core data plane: shard the dataset (subject-sharded fcma.shards.v1
# store), then run analyze/offline streamed under a memory budget from both
# backends.  Streaming only changes *where* panels live, never their bytes,
# so every report must be byte-identical to the resident run; the streamed
# trace must carry the full io/* counter set (enforced by trace_check.py).
"$FCMA" shard --in clean --out sharded | grep -q "shards"
test -f sharded.shards && test -f sharded.epochs
"$FCMA" info --in sharded | grep -q "(sharded)"
"$FCMA" analyze --in sharded --report sharded_resident.txt --top-k 6
cmp traced.txt sharded_resident.txt
"$FCMA" analyze --in clean --report budgeted.txt --top-k 6 \
    --memory-budget 16M
cmp traced.txt budgeted.txt
"$FCMA" analyze --in sharded --report streamed.txt --top-k 6 \
    --memory-budget 16M --trace-stream streamed
cmp traced.txt streamed.txt
grep -q 'io/shard_loads' streamed/trace.json
grep -q 'io/bytes_mapped' streamed/trace.json
trace_check streamed
"$FCMA" offline --in sharded --report offline_streamed.txt --top-k 12 \
    --threads 2 --voxels-per-task 100 --memory-budget 16M
cmp offline.txt offline_streamed.txt
# Multi-panel bit-identity: 1100 voxels give three 384-column correlation
# panels, the last a ragged 332 wide, which the pooled stages 1-2 spread
# across threads.  Serial, pooled and pooled-streamed-under-eviction runs
# must render the same report byte for byte.
"$FCMA" generate --out wide --voxels 1100 --subjects 4 \
    --epochs-per-subject 12 --informative 32 > /dev/null
"$FCMA" analyze --in wide --report wide_serial.txt --top-k 6 --threads 1
"$FCMA" analyze --in wide --report wide_pooled.txt --top-k 6 --threads 4
"$FCMA" analyze --in wide --report wide_streamed.txt --top-k 6 --threads 3 \
    --memory-budget 2M
cmp wide_serial.txt wide_pooled.txt
cmp wide_serial.txt wide_streamed.txt
# A budget too small for even one subject's panels fails loudly.
if "$FCMA" analyze --in sharded --report tiny.txt --memory-budget 64K \
    2>/dev/null; then
  echo "expected failure for an impossible memory budget" >&2
  exit 1
fi

# Cluster driver: a clean 3-worker run, then a crash-injected run (worker 2
# killed after its first task, short lease so detection is fast).  The
# recovery protocol is bit-deterministic, so the two reports must be
# byte-identical; recovery counters land in the trace and are
# schema-checked (including the zero-valued ones on the clean run).
"$FCMA" cluster --in clean --report cluster_clean.txt --workers 3 \
    --voxels-per-task 40 --top-k 6 --trace-stream cluster_clean \
    > cluster_clean.log
grep -q "top voxels" cluster_clean.txt
grep -q 'deaths=0' cluster_clean.log
grep -qx 'control plane: resurrections=0' cluster_clean.log
grep -q 'cluster/tasks_dispatched' cluster_clean/trace.json
grep -q 'cluster/retries' cluster_clean/trace.json
grep -q 'cluster/reassignments' cluster_clean/trace.json
grep -q 'cluster/resurrections' cluster_clean/trace.json
trace_check cluster_clean

# Streamed farm: all worker ranks lease panels from one budgeted shard-
# backed source; any worker count must render the resident report verbatim.
"$FCMA" cluster --in sharded --report cluster_streamed.txt --workers 3 \
    --voxels-per-task 40 --top-k 6 --memory-budget 16M
cmp cluster_clean.txt cluster_streamed.txt
"$FCMA" cluster --in sharded --report cluster_streamed2.txt --workers 2 \
    --voxels-per-task 40 --top-k 6 --memory-budget 16M
cmp cluster_clean.txt cluster_streamed2.txt
# At the default grain every farm is sized by the one rule
# (core::open_epoch_run): resident, the workers split the in-flight cap;
# budgeted, each worker is planned over its share of the budget.  Both
# render the single-node analyze report verbatim.
"$FCMA" cluster --in clean --report cluster_default.txt --workers 3 --top-k 6
cmp analysis.txt cluster_default.txt
"$FCMA" cluster --in sharded --report cluster_budgeted.txt --workers 3 \
    --top-k 6 --memory-budget 48M
cmp analysis.txt cluster_budgeted.txt

"$FCMA" cluster --in clean --report cluster_faulted.txt --workers 3 \
    --voxels-per-task 40 --top-k 6 --lease-timeout 0.5 \
    --fault-kill-rank 2 --fault-kill-after 1 \
    --trace-stream cluster_faulted > cluster_faulted.log
grep -q 'deaths=1' cluster_faulted.log
cmp cluster_clean.txt cluster_faulted.txt
trace_check cluster_faulted

# Speculative re-dispatch and master replication are not part of the farm
# (master loss is recovered by --checkpoint/--resume below): their flags
# are unknown.
for removed in "--speculate 1" "--standby 1" "--fault-kill-master-after 1"; do
  # $removed is unquoted on purpose: the flag and its value are two words.
  if "$FCMA" cluster --in clean $removed 2> removed_flag.err; then
    echo "expected failure for the removed ${removed%% *} flag" >&2
    exit 1
  fi
  grep -q "unknown flag: ${removed%% *}" removed_flag.err
done

# Checkpoint during the run, then resume from the snapshot: the resumed run
# reports its head start and renders the same report again.  This is the
# farm's master-loss path.
"$FCMA" cluster --in clean --report cluster_ckpt.txt --workers 3 \
    --voxels-per-task 40 --top-k 6 --checkpoint board.ckpt \
    --checkpoint-every 2 > cluster_ckpt.log
test -f board.ckpt
grep -q 'checkpoint written' cluster_ckpt.log
"$FCMA" cluster --in clean --report cluster_resumed.txt --workers 3 \
    --voxels-per-task 40 --top-k 6 --resume board.ckpt \
    > cluster_resume.log
grep -q 'resuming from' cluster_resume.log
cmp cluster_clean.txt cluster_resumed.txt
if "$FCMA" cluster --in clean --resume /nonexistent 2>/dev/null; then
  echo "expected failure for a missing resume checkpoint" >&2
  exit 1
fi
# A crafted checkpoint whose run starts at 2^32 - 1 (it would wrap a uint32
# range check and write far outside the scoreboard) is a clean error: exit
# status 1, not a crash.
voxels=$(sed -n 's/.*"total_voxels": \([0-9]*\).*/\1/p' board.ckpt)
printf '{"schema": "fcma.ckpt.v1", "total_voxels": %s, "scored": 2, ' \
    "$voxels" > wrapped.ckpt
printf '"runs": [{"first": 4294967295, "accuracy": [0.5, 0.5]}]}\n' \
    >> wrapped.ckpt
status=0
"$FCMA" cluster --in clean --report cluster_wrapped.txt \
    --resume wrapped.ckpt 2>/dev/null || status=$?
if [ "$status" -ne 1 ]; then
  echo "expected exit 1 for a wrapped checkpoint run, got $status" >&2
  exit 1
fi

# Distributed trace correlation + continuous profiling: a streaming cluster
# run with a deliberately tiny event ring (FCMA_TL_RING=32) must spill every
# ring overflow to fcma.tlstream.v1 segments instead of dropping, survive a
# worker kill, and still merge into one finalized
# cross-rank timeline — zero dropped events, every span stamped with the
# run's trace id, no orphan parent references (all enforced by
# trace_check.py's stream mode).
env FCMA_TL_RING=32 "$FCMA" cluster --in clean --report cluster_stream.txt \
    --workers 3 --voxels-per-task 40 --top-k 6 --lease-timeout 0.5 \
    --fault-kill-rank 2 --fault-kill-after 1 \
    --trace-stream stream_dir > cluster_stream.log
grep -q 'deaths=1' cluster_stream.log
cmp cluster_clean.txt cluster_stream.txt
test -f stream_dir/stream.done
grep -q '"dropped": 0' stream_dir/stream.done
trace_check stream_dir

# The merged report stitches all ranks into one causal timeline: per-class
# percentiles (worker ranks folded into one class), critical-path
# attribution including the kill's recovery window, and the run's trace id.
"$FCMA" report --stream-in stream_dir > stream_report.txt
grep -q 'finalized: yes' stream_report.txt
grep -q '0 dropped' stream_report.txt
grep -q 'cluster/worker/task' stream_report.txt
grep -q 'cluster/comm/assign' stream_report.txt
grep -q 'critical-path attribution' stream_report.txt
grep -q 'recovery' stream_report.txt
grep -q 'cluster balance' stream_report.txt

# Declarative SLOs: an impossible rule must be reported VIOLATED and turn
# the exit code non-zero; a generous rule passes the same stream.
if "$FCMA" report --stream-in stream_dir \
    --slo 'cluster/worker/task:p99<1ns' > slo_report.txt; then
  echo "expected a violated SLO to exit non-zero" >&2
  exit 1
fi
grep -q 'VIOLATED' slo_report.txt
grep -q 'slo/violations 1' slo_report.txt
"$FCMA" report --stream-in stream_dir \
    --slo 'cluster/worker/task:p99<100s' > slo_ok.txt
grep -q 'slo/violations 0' slo_ok.txt
# An infinite limit could never be violated: it is a bad rule, exit 1.
status=0
"$FCMA" report --stream-in stream_dir --slo 'task:p99<infs' \
    > /dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
  echo "expected exit 1 for an infinite SLO limit, got $status" >&2
  exit 1
fi
# A zero poll interval would re-read the stream in a busy loop.
if "$FCMA" report --stream-in stream_dir --follow --poll 0 \
    2>/dev/null >/dev/null; then
  echo "expected --poll 0 to be rejected" >&2
  exit 1
fi

# Live SLO surface: --follow tails the stream of a *running* job and only
# reports once the stream finalizes; the violation still exits non-zero.
mkdir stream_live
env FCMA_TL_RING=32 "$FCMA" cluster --in clean --report cluster_live.txt \
    --workers 3 --voxels-per-task 40 --top-k 6 --trace-stream stream_live \
    > cluster_live.log &
CLUSTER_PID=$!
if "$FCMA" report --stream-in stream_live --follow --follow-timeout 60 \
    --slo 'cluster/worker/task:p99<1ns' > follow_report.txt; then
  echo "expected the followed stream's violated SLO to exit non-zero" >&2
  exit 1
fi
wait "$CLUSTER_PID"
grep -q 'follow:' follow_report.txt
grep -q 'finalized: yes' follow_report.txt
grep -q 'slo/violations 1' follow_report.txt
cmp cluster_clean.txt cluster_live.txt

# A corrupted segment must fail validation loudly, not parse quietly.
if command -v python3 >/dev/null 2>&1; then
  cp -r stream_dir stream_corrupt
  corrupt_seg=$(ls stream_corrupt/lane*.tls | head -n 1)
  printf 'this is not an event line\n' >> "$corrupt_seg"
  if trace_check stream_corrupt 2>/dev/null; then
    echo "expected trace_check to reject a corrupt segment" >&2
    exit 1
  fi
fi

# Bench sidecar drift gate: the per-PR BENCH_pr*.json files committed at
# the repo root were produced on one machine in one sitting, so comparing
# the two most recent is deterministic — tools/bench_diff.py fails on >10%
# regressions in the named spans.
REPO_ROOT=$(cd "$TOOLS_DIR/.." && pwd)
if command -v python3 >/dev/null 2>&1; then
  sidecars=$(ls "$REPO_ROOT"/BENCH_pr*.json 2>/dev/null \
    | sort -t r -k 2 -n || true)
  count=$(printf '%s\n' "$sidecars" | grep -c 'BENCH' || true)
  if [ "$count" -ge 2 ]; then
    prev=$(printf '%s\n' "$sidecars" | tail -n 2 | head -n 1)
    curr=$(printf '%s\n' "$sidecars" | tail -n 1)
    python3 "$TOOLS_DIR/bench_diff.py" "$prev" "$curr"
  else
    echo "smoke: fewer than two BENCH_pr*.json sidecars, skipping bench_diff" >&2
  fi
fi

# Error paths exit non-zero with a message.
if "$FCMA" info --in /nonexistent 2>/dev/null; then
  echo "expected failure for a missing dataset" >&2
  exit 1
fi
if "$FCMA" bogus-command 2>/dev/null; then
  echo "expected failure for an unknown command" >&2
  exit 1
fi
echo "cli smoke test passed"
