// Fault-tolerant master-worker FCMA driver over the in-process communicator.
//
// Runs the real distribution protocol of paper §3.1.1 with real threads:
// rank 0 (master) partitions the brain into voxel-range tasks and streams
// them to the workers in *batches*; a worker runs the three-stage pipeline
// task by task, returning one accuracies message per task, and sends a
// work request when its local queue drops to one task so the next batch
// overlaps the tail of the current one (the paper's dynamic load-balancing
// protocol, where idle coprocessors pull work).  A batch is a quarter of a
// worker's even share of the tasks, so every worker refills ~4 times and
// the tail stays balanced.
//
// Unlike the paper's farm, this driver survives faults (PR 5).  Every
// dispatched batch carries an id and is tracked as a master-side *lease*;
// workers heartbeat at each task start, and a worker whose lease outlives
// its last sign of life is declared dead and its unacknowledged tasks are
// requeued to the survivors.  Delivery is at-least-once — lost messages are
// recovered by worker idle-retries (capped backoff) and lease expiry, and
// redelivered results are deduplicated by the scoreboard's idempotent
// per-voxel slots, which is what keeps every recovery path bit-identical
// to the fault-free run.  Corrupted payloads are caught by the per-message
// checksum (kTaskNack / ignored result).  The scoreboard can be
// checkpointed periodically and a later run resumed from the sidecar,
// skipping completed voxel ranges.
//
// The control plane itself is replicated (PR 6): a standby rank mirrors the
// scoreboard through kStateDelta messages piggybacked on the result flow
// (one delta per newly-recorded result, pings while idle), declares the
// master dead after lease_timeout_s of silence, announces the takeover to
// every worker, and resumes the same master loop from the replicated state
// — the failover analogue of checkpoint/resume, with in-flight duplicates
// absorbed by the idempotent scoreboard.  A worker declared dead that
// speaks again is readmitted after its stale leases are purged.  Fault
// injection for all of the above lives in fault.hpp; the virtual-time
// simulator (sim.hpp) answers the timing questions at 96-node scale,
// including recovery and failover overhead.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/comm.hpp"
#include "cluster/fault.hpp"
#include "fcma/pipeline.hpp"
#include "fcma/scoreboard.hpp"
#include "fmri/dataset.hpp"

namespace fcma::cluster {

/// Options of one distributed analysis run.
struct DriverOptions {
  std::size_t workers = 2;
  std::size_t voxels_per_task = 0;  ///< 0 = one task per worker
  core::PipelineConfig pipeline;

  // --- fault tolerance ---------------------------------------------------
  /// A worker with an outstanding lease and no sign of life (heartbeat,
  /// result, request) for this long is declared dead; its unacknowledged
  /// tasks are requeued to the survivors.  Must exceed the longest single
  /// task — workers heartbeat at task start, not mid-task.
  double lease_timeout_s = 10.0;
  /// Idle-worker poll interval: an idle worker retransmits its work request
  /// after this long without traffic, with doubling backoff capped at 8x
  /// (recovers dropped assignments well before any lease expires).  Also
  /// bounds the master's lease-sweep latency.
  double worker_poll_s = 0.05;
  /// A task requeued more than this many times aborts the run — the
  /// at-least-once loop must not spin forever when every delivery fails.
  std::size_t max_task_retries = 8;
  /// Fault injection (inactive by default).  Message faults wrap the
  /// communicator in a FaultyComm; kill_rank/kill_after_tasks crash a
  /// worker thread mid-run; kill_master_after_batches crashes the primary
  /// master (standby takeover); stall_rank plants a straggler that
  /// stalls until declared dead (the resurrection path).
  FaultPlan faults;

  // --- replicated control plane -------------------------------------------
  /// Mirror the master's state (scoreboard deltas piggybacked on result
  /// traffic, pings while idle) to a standby rank that promotes itself on
  /// master silence longer than lease_timeout_s: it announces the takeover,
  /// rebuilds the pending queue from the replicated scoreboard, and
  /// re-primes the workers mid-fold.  The idempotent scoreboard absorbs any
  /// work the old master had in flight, so failover is bit-identical.
  bool standby = true;

  // --- checkpoint / resume ----------------------------------------------
  /// When non-empty, the master writes the scoreboard here (fcma.ckpt.v1,
  /// atomic tmp+rename): every `checkpoint_every` task results if that is
  /// non-zero, and always once at completion.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;
  /// Resume from a previously checkpointed scoreboard (loaded via
  /// checkpoint.hpp): tasks whose voxels are already scored are not
  /// dispatched.  Must match total_voxels.  Not owned.
  const core::Scoreboard* resume = nullptr;
};

/// Statistics of a driver run.
struct DriverStats {
  std::size_t tasks_dispatched = 0;
  std::size_t batches = 0;        ///< kTaskAssign messages sent
  std::size_t work_requests = 0;  ///< kWorkRequest messages received
  std::size_t messages = 0;       ///< every protocol message, both ways
  /// Wall-clock seconds each worker rank spent inside the pipeline (index
  /// 0 = rank 1).  The straggler report: a healthy dynamic farm keeps
  /// max/mean near 1, a stuck rank shows up as a long bar.
  std::vector<double> worker_busy_s;

  // --- recovery ----------------------------------------------------------
  std::size_t workers_died = 0;      ///< ranks declared dead (lease expiry)
  std::size_t tasks_requeued = 0;    ///< tasks returned to the pending queue
  std::size_t retries = 0;           ///< batch re-dispatches after loss/nack
  std::size_t heartbeat_misses = 0;  ///< lease-expiry detections
  std::size_t corrupt_payloads = 0;  ///< checksum failures (master + nacks)
  std::size_t checkpoints_written = 0;

  // --- control plane ------------------------------------------------------
  std::size_t failovers = 0;  ///< standby promotions (master silence)
  /// Declared-dead workers readmitted after late traffic (their stale
  /// leases are purged on the way back in).
  std::size_t resurrections = 0;
  /// Wall-clock from the first death detection to completion — the real
  /// protocol's analogue of the simulator's recovery_overhead_s.
  double recovery_wall_s = 0.0;

  [[nodiscard]] double max_worker_busy_s() const {
    double m = 0.0;
    for (const double b : worker_busy_s) m = b > m ? b : m;
    return m;
  }
  [[nodiscard]] double mean_worker_busy_s() const {
    if (worker_busy_s.empty()) return 0.0;
    double sum = 0.0;
    for (const double b : worker_busy_s) sum += b;
    return sum / static_cast<double>(worker_busy_s.size());
  }
  /// Load imbalance as max/mean busy time (1 = perfectly balanced; 0 when
  /// nothing ran).
  [[nodiscard]] double imbalance_ratio() const {
    const double mean = mean_worker_busy_s();
    return mean > 0.0 ? max_worker_busy_s() / mean : 0.0;
  }
};

/// Runs the task farm over `epochs`, scoring every voxel of the brain.
/// Returns the populated scoreboard.  The result is a pure function of
/// (epochs, total_voxels, pipeline, voxels_per_task): the worker count only
/// moves tasks between ranks, the scoreboard stores per-voxel
/// slots, and every recovery path recomputes identical values — so any
/// configuration, faulted or not, is bit-identical to the single-node run
/// over the same tasks.  Throws fcma::Error if every worker dies (the
/// message names lease_timeout_s, which must exceed the longest task) or a
/// task exhausts max_task_retries.
///
/// The EpochSource form is primary: all worker ranks lease panels from the
/// shared source (both backends are thread-safe), so a streamed source
/// bounds the farm's panel residency the same way it bounds a single-node
/// run.  The NormalizedEpochs overload wraps ResidentEpochs.
[[nodiscard]] core::Scoreboard run_cluster_analysis(
    core::EpochSource& epochs, std::size_t total_voxels,
    const DriverOptions& options, DriverStats* stats = nullptr);
[[nodiscard]] core::Scoreboard run_cluster_analysis(
    const fmri::NormalizedEpochs& epochs, std::size_t total_voxels,
    const DriverOptions& options, DriverStats* stats = nullptr);

}  // namespace fcma::cluster
