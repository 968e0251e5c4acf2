#include "cluster/sim.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/error.hpp"

namespace fcma::cluster {

namespace {

/// Pipelined-tree broadcast estimate: the payload streams at link bandwidth
/// once, plus a latency term per tree level.
double broadcast_s(const NetworkModel& net, double bytes,
                   std::size_t workers) {
  if (bytes <= 0.0 || workers == 0) return 0.0;
  const double levels = std::ceil(std::log2(static_cast<double>(workers) + 1));
  return bytes / net.bandwidth_bytes_per_s + levels * net.latency_s;
}

}  // namespace

FarmOutcome simulate_task_farm(const FarmConfig& config,
                               std::span<const double> fold_task_seconds,
                               std::size_t folds) {
  FCMA_CHECK(config.workers >= 1, "need at least one worker");
  FCMA_CHECK(!fold_task_seconds.empty(), "need at least one task");
  FCMA_CHECK(config.tasks_per_request >= 1,
             "tasks_per_request must be at least 1");

  FarmOutcome outcome;
  outcome.worker_busy_s.assign(config.workers, 0.0);
  double clock = broadcast_s(config.net, config.broadcast_bytes,
                             config.workers);

  const double assign_s = config.net.transfer_s(config.assign_bytes);
  const double result_s = config.net.transfer_s(config.result_bytes);
  const std::size_t tasks = fold_task_seconds.size();
  const std::size_t batch = config.tasks_per_request;

  for (std::size_t fold = 0; fold < folds; ++fold) {
    // Worker availability: min-heap of (time the worker can accept a new
    // batch, worker id) — it has returned its previous batch's last result
    // by then.  The id attributes busy time for the imbalance report.
    using Slot = std::pair<double, std::size_t>;
    std::priority_queue<Slot, std::vector<Slot>, std::greater<>> free_at;
    for (std::size_t w = 0; w < config.workers; ++w) free_at.push({clock, w});
    // The master's NIC/control loop is a serial resource.  Sends serialize
    // against each other; result receptions interleave with them, which we
    // account as an aggregate throughput floor below.
    double master_send_free = clock;
    double fold_end = clock;
    std::size_t batches = 0;

    for (std::size_t t = 0; t < tasks; t += batch) {
      const std::size_t count = std::min(batch, tasks - t);
      double batch_s = 0.0;
      for (std::size_t i = t; i < t + count; ++i) {
        FCMA_CHECK(fold_task_seconds[i] >= 0.0,
                   "task time must be non-negative");
        batch_s += fold_task_seconds[i];
      }
      ++batches;
      const auto [worker_free, w] = free_at.top();
      free_at.pop();
      const double send_begin = std::max(master_send_free, worker_free);
      master_send_free = send_begin + assign_s;
      const double compute_done =
          send_begin + assign_s +
          static_cast<double>(count) * config.task_overhead_s + batch_s;
      // Results before the batch's last overlap the remaining compute; the
      // worker is free again once its final result is on the wire.
      const double result_arrives = compute_done + result_s;
      free_at.push({result_arrives, w});
      fold_end = std::max(fold_end, result_arrives);
      outcome.compute_s += batch_s;
      outcome.worker_busy_s[w] += batch_s;
    }
    // Master message-throughput floor: one assignment per batch plus one
    // result per task passes through the master's single link — batching
    // amortizes the assignment half of the old per-task floor.
    const double master_floor =
        clock + static_cast<double>(batches) * assign_s +
        static_cast<double>(tasks) * result_s;
    clock = std::max(fold_end, master_floor) + config.fold_overhead_s;
  }
  outcome.makespan_s = clock;
  return outcome;
}

FarmOutcomeEx simulate_task_farm(const FarmConfig& config,
                                 std::span<const double> fold_task_seconds,
                                 std::size_t folds,
                                 std::span<const WorkerProfile> workers) {
  FCMA_CHECK(!workers.empty(), "need at least one worker");
  FCMA_CHECK(!fold_task_seconds.empty(), "need at least one task");
  for (const WorkerProfile& w : workers) {
    FCMA_CHECK(w.speed > 0.0, "worker speed must be positive");
  }

  FarmOutcomeEx outcome;
  outcome.base.worker_busy_s.assign(workers.size(), 0.0);
  double clock = broadcast_s(config.net, config.broadcast_bytes,
                             workers.size());
  const double assign_s = config.net.transfer_s(config.assign_bytes);
  const double result_s = config.net.transfer_s(config.result_bytes);

  struct Pending {
    double task_s;
    double not_before;
  };
  std::vector<bool> dead(workers.size(), false);

  for (std::size_t fold = 0; fold < folds; ++fold) {
    std::vector<Pending> pending;
    pending.reserve(fold_task_seconds.size());
    for (const double t : fold_task_seconds) {
      FCMA_CHECK(t >= 0.0, "task time must be non-negative");
      pending.push_back(Pending{t, clock});
    }
    // (ready_time, worker): min-heap over availability.
    using Slot = std::pair<double, std::size_t>;
    std::priority_queue<Slot, std::vector<Slot>, std::greater<>> free_at;
    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (!dead[w]) free_at.push({clock, w});
    }
    double master_send_free = clock;
    double fold_end = clock;

    while (!pending.empty()) {
      FCMA_CHECK(!free_at.empty(), "all workers died before completion");
      const auto [worker_ready, w] = free_at.top();
      free_at.pop();
      // Earliest-available pending task.
      std::size_t best = 0;
      for (std::size_t p = 1; p < pending.size(); ++p) {
        if (pending[p].not_before < pending[best].not_before) best = p;
      }
      const Pending task = pending[best];
      pending.erase(pending.begin() + static_cast<long>(best));

      const double send_begin =
          std::max({master_send_free, worker_ready, task.not_before});
      master_send_free = send_begin + assign_s;
      const double service =
          config.task_overhead_s + task.task_s / workers[w].speed;
      const double compute_done = send_begin + assign_s + service;
      if (compute_done >= workers[w].fails_at && !dead[w]) {
        // The node dies mid-task: the master notices after the detection
        // interval and re-dispatches; the node never returns.
        dead[w] = true;
        ++outcome.workers_lost;
        ++outcome.tasks_reassigned;
        // Overhead of this death: the detection window plus whatever the
        // node had computed of the doomed task (clipped — it may have died
        // before the assignment even landed).
        const double task_begin = send_begin + assign_s;
        outcome.recovery_overhead_s +=
            config.failure_detect_s +
            std::max(0.0, workers[w].fails_at - task_begin);
        pending.push_back(Pending{
            task.task_s, workers[w].fails_at + config.failure_detect_s});
        continue;
      }
      const double result_arrives = compute_done + result_s;
      free_at.push({result_arrives, w});
      fold_end = std::max(fold_end, result_arrives);
      outcome.base.compute_s += task.task_s / workers[w].speed;
      outcome.base.worker_busy_s[w] += task.task_s / workers[w].speed;
    }
    const double master_floor =
        clock + static_cast<double>(fold_task_seconds.size()) *
                    (assign_s + result_s);
    clock = std::max(fold_end, master_floor) + config.fold_overhead_s;
  }
  outcome.base.makespan_s = clock;
  return outcome;
}

}  // namespace fcma::cluster
