#include "threading/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "common/trace.hpp"

namespace fcma::threading {

struct ThreadPool::Loop {
  std::size_t end = 0;
  const LoopBody* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;  // first failure; guarded by the pool's mutex_
};

ThreadPool::ThreadPool(std::size_t lanes) {
  if (lanes == 0) lanes = std::max(1u, std::thread::hardware_concurrency());
  helpers_.reserve(lanes - 1);
  try {
    for (std::size_t k = 1; k < lanes; ++k) {
      helpers_.emplace_back([this, k] { helper_main(k); });
    }
  } catch (...) {
    stop_helpers();  // a thread failed to start: join those that did
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_helpers(); }

void ThreadPool::stop_helpers() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

sched::Scheduler::Stats ThreadPool::stats() const {
  sched::Scheduler::Stats stats;
  stats.executed = executed_.load(std::memory_order_relaxed);
  return stats;
}

void ThreadPool::run(std::size_t begin, std::size_t end,
                     const LoopBody& body) {
  if (begin >= end) return;
  if (busy_.exchange(true, std::memory_order_acquire)) {
    // The pool is running a loop: this call comes from one of its lanes or
    // from another thread, and runs inline, in order, on its caller.
    for (std::size_t i = begin; i < end; ++i) body(i);
    executed_.fetch_add(end - begin, std::memory_order_relaxed);
    return;
  }
  Loop loop;
  loop.end = end;
  loop.body = &body;
  loop.next.store(begin, std::memory_order_relaxed);
  const bool wake = !helpers_.empty() && end - begin > 1;
  if (wake) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      loop_ = &loop;
      ++generation_;
    }
    wake_.notify_all();
  }
  work(loop, nullptr);
  if (wake) {
    // Close the loop to late wakers, then wait out the helpers inside it.
    std::unique_lock<std::mutex> lock(mutex_);
    loop_ = nullptr;
    left_.wait(lock, [this] { return inside_ == 0; });
  }
  busy_.store(false, std::memory_order_release);
  if (loop.error) std::rethrow_exception(loop.error);
}

void ThreadPool::work(Loop& loop, const std::string* busy_label) {
  const bool traced = busy_label != nullptr && trace::enabled();
  const auto start = traced ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
  std::size_t ran = 0;
  for (;;) {
    const std::size_t i = loop.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= loop.end) break;
    try {
      (*loop.body)(i);
      ++ran;
    } catch (...) {
      loop.next.store(loop.end, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!loop.error) loop.error = std::current_exception();
    }
  }
  executed_.fetch_add(ran, std::memory_order_relaxed);
  // record_interval, not a Span: a Span would become the parent of every
  // span the bodies record on this thread.
  if (traced) {
    trace::record_interval(*busy_label, start,
                           std::chrono::steady_clock::now());
  }
}

void ThreadPool::helper_main(std::size_t lane) {
  // Claims this thread's timeline lane (a no-op unless tracing was enabled
  // before the pool was built — the CLI and bench order).
  const std::string name = "sched/worker" + std::to_string(lane);
  trace::set_thread_name(name);
  const std::string busy_label = name + "/busy";
  std::uint64_t seen = 0;
  for (;;) {
    Loop* loop = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return stopping_ || (loop_ != nullptr && generation_ != seen);
      });
      if (stopping_) return;
      seen = generation_;
      loop = loop_;
      ++inside_;
    }
    work(*loop, &busy_label);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --inside_;
    }
    left_.notify_one();
  }
}

void parallel_for_each(ThreadPool& pool, std::size_t begin, std::size_t end,
                       const LoopBody& body) {
  pool.run(begin, end, body);
}

}  // namespace fcma::threading
