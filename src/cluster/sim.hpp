// Virtual-time simulation of the FCMA master-worker task farm.
//
// The paper's scaling results (Tables 3/4, Fig 8) are a property of the
// task-farm structure: one master distributing voxel-range tasks to W
// coprocessor nodes over a 10GE network.  This simulator executes the same
// scheduling policy (first-free worker gets the next task) in virtual time:
//
//   * data distribution: a pipelined broadcast of the dataset;
//   * per task: an assignment message, the node's compute time, and a
//     result message; the master serializes its sends/receives (it is a
//     single NIC + single control loop);
//   * folds (outer cross-validation iterations) are barriers: all of a
//     fold's tasks finish before the next fold starts, as in the offline
//     protocol.
//
// Near-linear speedup, the quantization loss when tasks-per-worker is
// small, and the communication floor that caps online-analysis scaling all
// emerge from this model rather than being curve-fit.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace fcma::cluster {

/// Point-to-point network model (per-link).
struct NetworkModel {
  double latency_s = 50e-6;            ///< one-way message latency
  double bandwidth_bytes_per_s = 1.1e9;  ///< ~10GE payload bandwidth

  /// Transfer time of one message of `bytes`.
  [[nodiscard]] double transfer_s(double bytes) const {
    return latency_s + bytes / bandwidth_bytes_per_s;
  }
};

/// Static description of one simulated run.
struct FarmConfig {
  std::size_t workers = 1;
  NetworkModel net;
  double broadcast_bytes = 0.0;    ///< dataset distributed before round 1
  double assign_bytes = 64.0;      ///< task-assignment message size
  double result_bytes = 1024.0;    ///< per-task result message size
  double task_overhead_s = 1e-3;   ///< per-task node-side setup cost
  /// Tasks streamed per assignment message (the driver's batch dispatch +
  /// work-request protocol).  1 = the classic one-task-per-round farm; a
  /// larger batch amortizes the master's per-assignment serialization, the
  /// lever that lifts the communication floor on short-task folds.  Applies
  /// to the homogeneous model; the fault-injected overload stays per-task.
  std::size_t tasks_per_request = 1;
  /// Serial master-side work at the end of every fold: collecting and
  /// ranking voxel scores, training/testing the fold's final classifier.
  /// This floor is what keeps short-fold datasets from scaling ideally
  /// (the paper's face-scene vs attention asymmetry in Fig 8).
  double fold_overhead_s = 0.0;
  /// How long the master takes to notice a dead worker and re-dispatch its
  /// task (heartbeat/timeout interval); used by the fault-injected overload.
  double failure_detect_s = 5.0;
};

/// Outcome of a simulated run.
struct FarmOutcome {
  double makespan_s = 0.0;       ///< broadcast + all folds
  double compute_s = 0.0;        ///< total node-seconds of useful compute
  /// Node-seconds of useful compute per worker, across every fold — the
  /// simulated counterpart of DriverStats::worker_busy_s (straggler /
  /// load-imbalance attribution at 96-node scale).
  std::vector<double> worker_busy_s;

  /// Mean fraction of the makespan each worker spent computing.
  [[nodiscard]] double efficiency(std::size_t workers) const {
    return makespan_s <= 0.0
               ? 0.0
               : compute_s / (makespan_s * static_cast<double>(workers));
  }
  [[nodiscard]] double max_worker_busy_s() const {
    double m = 0.0;
    for (const double b : worker_busy_s) m = b > m ? b : m;
    return m;
  }
  [[nodiscard]] double mean_worker_busy_s() const {
    if (worker_busy_s.empty()) return 0.0;
    return compute_s / static_cast<double>(worker_busy_s.size());
  }
  /// Load imbalance as max/mean busy time (1 = perfectly balanced).
  [[nodiscard]] double imbalance_ratio() const {
    const double mean = mean_worker_busy_s();
    return mean > 0.0 ? max_worker_busy_s() / mean : 0.0;
  }
};

/// Simulates `folds` sequential rounds, each dispatching every task in
/// `fold_task_seconds` (the per-task compute times of one fold) across the
/// workers.  Identical folds are the offline protocol's outer loop.
[[nodiscard]] FarmOutcome simulate_task_farm(
    const FarmConfig& config, std::span<const double> fold_task_seconds,
    std::size_t folds);

/// Per-node behaviour for heterogeneous / fault-injected simulations.
struct WorkerProfile {
  double speed = 1.0;      ///< task time divisor (0.5 = half-speed node)
  /// Wall-clock time at which this node dies (it finishes nothing at or
  /// after this instant); infinity = never.
  double fails_at = std::numeric_limits<double>::infinity();
};

/// Extended outcome with fault accounting.
struct FarmOutcomeEx {
  FarmOutcome base;
  std::size_t tasks_reassigned = 0;  ///< tasks lost to dead nodes and redone
  std::size_t workers_lost = 0;
  /// Virtual seconds burned by failures: for each death, the detection
  /// interval (failure_detect_s) plus the partial compute the dying node
  /// threw away.  The model-side mirror of DriverStats::recovery_wall_s,
  /// so recovery overhead can be budgeted at 96-node scale before paying
  /// for a real run.
  double recovery_overhead_s = 0.0;
};

/// Heterogeneous / faulty cluster: like simulate_task_farm but each worker
/// has its own speed and (optional) failure time.  A task in flight on a
/// dying node is re-dispatched after config.failure_detect_s; throws
/// fcma::Error if every node dies before the work completes.
[[nodiscard]] FarmOutcomeEx simulate_task_farm(
    const FarmConfig& config, std::span<const double> fold_task_seconds,
    std::size_t folds, std::span<const WorkerProfile> workers);

}  // namespace fcma::cluster
