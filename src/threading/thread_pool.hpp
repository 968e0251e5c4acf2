// One fixed-lane parallel loop.
//
// FCMA's worker runs each stage as one flat loop across the machine's
// threads: over voxels for the SVMs and over column panels (or epochs) for
// the kernels.  `ThreadPool(n)` is n lanes.  The calling thread is lane 0,
// so the pool starts n - 1 threads and `ThreadPool(1)` runs everything on
// the caller.  A loop wakes the lanes, and each lane claims indices from
// one atomic counter until the range is used up.  Every index writes only
// its own output, so results never depend on which lane ran an index: the
// serial and pooled runs are bit-identical by construction.
//
// One loop runs on the lanes at a time.  A loop that finds the pool busy —
// started from inside one of its lanes, or from another thread meanwhile —
// runs inline, in order, on its caller, so no call ever waits for the pool.
// The first exception a body throws stops further claims and is rethrown on
// the caller once every lane has left the loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fcma::sched {

/// The tallies the deleted work-stealing scheduler kept.  Only bench_fcma
/// still reads them; ROADMAP item 1 deletes this stub with its per-layer
/// `sched.*` counters.  `executed` counts the indices run through the pool;
/// the other three always read 0.
struct Scheduler {
  struct Stats {
    std::uint64_t local_hits = 0;
    std::uint64_t steals = 0;
    std::uint64_t inbox_hits = 0;
    std::uint64_t executed = 0;
  };
};

}  // namespace fcma::sched

namespace fcma::threading {

using LoopBody = std::function<void(std::size_t)>;

class ThreadPool {
 public:
  /// `lanes` lanes, the caller included (0 = hardware concurrency, min 1).
  explicit ThreadPool(std::size_t lanes = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of lanes, the calling thread included.
  [[nodiscard]] std::size_t size() const { return helpers_.size() + 1; }

  /// bench_fcma reads `pool.scheduler().stats()`; ROADMAP item 1 deletes
  /// both with the sched::Scheduler stub.
  [[nodiscard]] const ThreadPool& scheduler() const { return *this; }
  [[nodiscard]] sched::Scheduler::Stats stats() const;

 private:
  friend void parallel_for_each(ThreadPool& pool, std::size_t begin,
                                std::size_t end, const LoopBody& body);

  struct Loop;

  void run(std::size_t begin, std::size_t end, const LoopBody& body);
  /// Runs claims on the calling lane.  Helpers pass their busy label and
  /// record one interval per loop; the caller (lane 0) passes null: its
  /// time already lies in its own spans.
  void work(Loop& loop, const std::string* busy_label);
  void helper_main(std::size_t lane);
  void stop_helpers();

  std::atomic<bool> busy_{false};  // a loop holds the lanes
  std::mutex mutex_;
  std::condition_variable wake_;  // a loop opened, or shutdown
  std::condition_variable left_;  // a helper left the loop
  Loop* loop_ = nullptr;          // the open loop; guarded by mutex_
  std::uint64_t generation_ = 0;  // loops opened; guarded by mutex_
  std::size_t inside_ = 0;        // helpers in the loop; guarded by mutex_
  bool stopping_ = false;         // guarded by mutex_
  std::atomic<std::uint64_t> executed_{0};
  std::vector<std::thread> helpers_;  // lanes 1 .. n-1; last, as they use
                                      // every member above
};

/// Runs body(i) for every i in [begin, end) across the pool's lanes and
/// returns once every lane has left the loop; rethrows the first body
/// exception.
void parallel_for_each(ThreadPool& pool, std::size_t begin, std::size_t end,
                       const LoopBody& body);

/// parallel_for_each on `pool`, or an in-order loop on the calling thread
/// when `pool` is null — one loop body for the serial and pooled runs.
inline void for_each_index(ThreadPool* pool, std::size_t begin,
                           std::size_t end, const LoopBody& body) {
  if (pool != nullptr) {
    parallel_for_each(*pool, begin, end, body);
  } else {
    for (std::size_t i = begin; i < end; ++i) body(i);
  }
}

}  // namespace fcma::threading
