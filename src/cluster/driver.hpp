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
// checksum (kTaskNack / ignored result).  A worker declared dead that
// speaks again is readmitted after its stale leases are purged.
//
// The master is rank 0 and is not replicated.  Losing it is recovered by
// checkpoint/resume: a run with checkpoint_path and checkpoint_every N
// durably writes the scoreboard every N results (fcma.ckpt.v1, fsynced
// tmp + rename), and a later run given that scoreboard as `resume`
// dispatches only the tasks with unscored voxels.  Every rank is a thread
// of one process, so a checkpoint on disk is the only master state that
// survives a real crash.  Fault injection lives in fault.hpp; the
// virtual-time simulator (sim.hpp) answers the timing questions at
// 96-node scale, including recovery overhead.
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
  /// Task grain; a worker runs each task whole (core::run_task), so it
  /// must fit one lane's in-flight share: core::open_epoch_run(…, workers)
  /// sizes it.  0 throws fcma::Error.
  std::size_t voxels_per_task = 0;
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
  /// worker thread mid-run; stall_rank plants a straggler that stalls
  /// until declared dead (the resurrection path).  There is no master
  /// fault: master loss is recovered by checkpoint_every + resume.
  FaultPlan faults;

  /// Ignored: the master is not replicated.  bench_fcma still assigns this
  /// field; ROADMAP item 2 deletes the stub.
  bool standby = true;

  // --- checkpoint / resume ----------------------------------------------
  /// When non-empty, the master writes the scoreboard here (fcma.ckpt.v1;
  /// tmp file fsynced, renamed, then the directory fsynced): every
  /// `checkpoint_every` task results if that is non-zero, and always once
  /// at completion.
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
