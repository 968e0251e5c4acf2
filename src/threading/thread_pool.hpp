// Thread-pool compatibility shim over the work-stealing scheduler.
//
// FCMA's worker pipeline parallelizes over voxels (one SVM problem per
// voxel) and over panel blocks inside the matrix kernels.  Both used to run
// on a single shared-FIFO pool defined here; PR 3 moved dispatch to
// `sched::Scheduler` (per-worker deques, randomized stealing, help-first
// joins — see sched/scheduler.hpp), and this header keeps the original
// `ThreadPool` / `parallel_for` surface as a thin forwarding layer so the
// many existing call sites did not have to churn.  New code should target
// `sched::Scheduler` directly (`pool.scheduler()` bridges).
#pragma once

#include <cstddef>
#include <functional>
#include <future>

#include "sched/scheduler.hpp"

namespace fcma::threading {

/// Compatibility wrapper: owns a `sched::Scheduler` and forwards to it.
///
/// Shutdown semantics are inherited from the scheduler: the destructor
/// *drains* — every task already submitted runs to completion before the
/// workers exit, so a future held past the pool's lifetime resolves
/// normally instead of throwing std::future_error(broken_promise).
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0) : sched_(threads) {}

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    return sched_.submit(std::forward<F>(fn));
  }

  [[nodiscard]] std::size_t size() const { return sched_.size(); }

  /// The scheduler behind this pool — for callers that want TaskGroup,
  /// spawn(), or dispatch stats.
  [[nodiscard]] sched::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const sched::Scheduler& scheduler() const { return sched_; }

  /// True when the calling thread is a worker of *this* pool's scheduler.
  /// The old process-global variant wrongly reported true on workers of
  /// *other* pools (so a task on pool A inlined parallel_for on pool B);
  /// the check is now instance-scoped, and with help-first joins nothing
  /// keys dispatch off it anyway.
  [[nodiscard]] bool inside_worker() const {
    return sched_.on_worker_thread();
  }

 private:
  sched::Scheduler sched_;
};

/// Runs fn(lo, hi) over [begin, end) across the pool, in chunks of `grain`.
/// Blocks until all iterations finish; rethrows the first chunk exception
/// once every chunk has completed.  Re-entrant at any depth: a worker
/// calling this helps execute chunks while it waits (and other workers
/// steal them), so nested calls are genuinely parallel instead of inlining
/// serially; an external caller parks until the chunks drain.
inline void parallel_for(
    ThreadPool& pool, std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  pool.scheduler().parallel_for(begin, end, grain, body);
}

/// Convenience overload: body receives a single index.
inline void parallel_for_each(ThreadPool& pool, std::size_t begin,
                              std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  pool.scheduler().parallel_for_each(begin, end, body);
}

/// parallel_for_each on `pool`, or an in-order loop on the calling thread
/// when `pool` is null — one loop body for the serial and pooled runs.
inline void for_each_index(ThreadPool* pool, std::size_t begin,
                           std::size_t end,
                           const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    parallel_for_each(*pool, begin, end, body);
  } else {
    for (std::size_t i = begin; i < end; ++i) body(i);
  }
}

}  // namespace fcma::threading
