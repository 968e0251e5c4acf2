#include "sched/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"

namespace fcma::sched {

namespace {

/// Identity of the calling thread within the scheduler that owns it.  A
/// worker belongs to exactly one Scheduler for its whole life, so a plain
/// thread_local (set once in worker_loop) is enough; every other thread
/// keeps the null default and is treated as external.
struct WorkerIdentity {
  const Scheduler* sched = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity t_worker;

/// Per-thread victim-selection stream.  Seeded from a process-wide counter
/// so concurrent thieves do not probe victims in lockstep; steal order
/// never affects results (determinism lives in the task-order merge), so
/// the seed does not need to be reproducible.
Rng& thief_rng() {
  static std::atomic<std::uint64_t> next_seed{0x5eedu};
  thread_local Rng rng(next_seed.fetch_add(0x9E3779B97F4A7C15ull,
                                           std::memory_order_relaxed));
  return rng;
}

}  // namespace

Scheduler::Scheduler(std::size_t threads) {
  std::size_t count = threads;
  if (count == 0) {
    count = std::thread::hardware_concurrency();
    if (count == 0) count = 1;
  }
  deques_.reserve(count);
  busy_labels_.reserve(count);
  depth_labels_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    deques_.push_back(std::make_unique<Deque>());
    const std::string worker = "sched/worker" + std::to_string(i);
    busy_labels_.push_back(worker + "/busy");
    depth_labels_.push_back(worker + "/queue_depth");
  }
  // Seed the counter keys at zero so trace sidecars always carry them, even
  // for runs where every pop is a local hit (e.g. a 1-worker host with no
  // stealing to report).
  trace::count("sched/tasks_submitted", 0);
  trace::count("sched/tasks_executed", 0);
  trace::count("sched/local_hits", 0);
  trace::count("sched/steals", 0);
  trace::count("sched/inbox_hits", 0);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    stopping_.store(true, std::memory_order_seq_cst);
  }
  idle_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Scheduler::spawn(std::function<void()> fn) {
  FCMA_CHECK(fn != nullptr, "Scheduler::spawn requires a callable task");
  const bool local = t_worker.sched == this;
  Deque& target = local ? *deques_[t_worker.index] : inbox_;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(target.mutex);
    target.tasks.push_back(std::move(fn));
    depth = target.tasks.size();
    queued_.fetch_add(1, std::memory_order_seq_cst);
  }
  if (trace::enabled()) {
    trace::count("sched/tasks_submitted");
    trace::gauge_max(local ? depth_labels_[t_worker.index]
                           : std::string("sched/inbox/queue_depth"),
                     static_cast<double>(depth));
    trace::gauge_max("sched/max_queue_depth", static_cast<double>(depth));
  }
  wake_one();
}

void Scheduler::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  FCMA_CHECK(grain > 0, "parallel_for requires a positive grain");
  if (begin >= end) return;
  if (end - begin <= grain) {  // single chunk: no dispatch overhead
    body(begin, end);
    return;
  }
  // Capturing `body` by reference is safe: wait() returns only once every
  // chunk has finished (even when one of them threw).
  TaskGroup group(*this);
  for (std::size_t lo = begin; lo < end; lo += grain) {
    const std::size_t hi = std::min(end, lo + grain);
    group.run([&body, lo, hi] { body(lo, hi); });
  }
  group.wait();
}

void Scheduler::parallel_for_each(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t)>& body) {
  parallel_for(begin, end, 1, [&body](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

bool Scheduler::on_worker_thread() const { return t_worker.sched == this; }

bool Scheduler::on_any_worker() { return t_worker.sched != nullptr; }

Scheduler::Stats Scheduler::stats() const {
  Stats stats;
  stats.local_hits = local_hits_.load(std::memory_order_relaxed);
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.inbox_hits = inbox_hits_.load(std::memory_order_relaxed);
  stats.executed = executed_.load(std::memory_order_relaxed);
  return stats;
}

bool Scheduler::take(Deque& deque, bool back, Task& out) {
  std::lock_guard<std::mutex> lock(deque.mutex);
  if (deque.tasks.empty()) return false;
  if (back) {
    out = std::move(deque.tasks.back());
    deque.tasks.pop_back();
  } else {
    out = std::move(deque.tasks.front());
    deque.tasks.pop_front();
  }
  // Account the task active *before* it stops counting as queued so no
  // observer ever sees queued_ == 0 && active_ == 0 while work remains.
  active_.fetch_add(1, std::memory_order_seq_cst);
  queued_.fetch_sub(1, std::memory_order_seq_cst);
  return true;
}

bool Scheduler::steal_any(std::size_t skip, Task& out) {
  const std::size_t victims = deques_.size();
  const std::size_t start =
      static_cast<std::size_t>(thief_rng().uniform_index(victims));
  for (std::size_t probe = 0; probe < victims; ++probe) {
    const std::size_t victim = (start + probe) % victims;
    if (victim == skip) continue;
    if (take(*deques_[victim], /*back=*/false, out)) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      trace::count("sched/steals");
      return true;
    }
  }
  if (take(inbox_, /*back=*/false, out)) {
    inbox_hits_.fetch_add(1, std::memory_order_relaxed);
    trace::count("sched/inbox_hits");
    return true;
  }
  return false;
}

bool Scheduler::run_one(std::size_t worker) {
  Task task;
  if (worker != kExternal && take(*deques_[worker], /*back=*/true, task)) {
    local_hits_.fetch_add(1, std::memory_order_relaxed);
    trace::count("sched/local_hits");
    execute(std::move(task), worker);
    return true;
  }
  if (steal_any(worker, task)) {
    execute(std::move(task), worker);
    return true;
  }
  return false;
}

void Scheduler::execute(Task task, std::size_t worker) {
  // The active_ decrement (and the shutdown wakeup it may owe) must happen
  // even if the task leaks an exception past us, or the destructor's drain
  // would deadlock; tasks from submit()/TaskGroup never throw here because
  // both wrap the user callable.
  struct ActiveGuard {
    Scheduler& sched;
    ~ActiveGuard() {
      if (sched.active_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
          sched.stopping_.load(std::memory_order_seq_cst)) {
        { std::lock_guard<std::mutex> lock(sched.idle_mutex_); }
        sched.idle_cv_.notify_all();
      }
    }
  } guard{*this};
  // Counted before the body runs: a task's completion signal (future,
  // TaskGroup::finish) is what publishes the stats to an observer, so every
  // increment sequenced before the body is visible once the task is seen to
  // finish.  Counting after the body would let a waiter observe completion
  // between the body and the increment.
  executed_.fetch_add(1, std::memory_order_relaxed);
  trace::count("sched/tasks_executed");
  if (worker != kExternal && trace::enabled()) {
    // Time the task without an open Span around it: a scoped Span would
    // push "sched/worker<i>/busy" onto the thread's nesting path and every
    // span the task itself records would land under it instead of rooting
    // its own hierarchy (the documented per-thread contract in trace.hpp).
    // record_interval keeps the true endpoints, so each busy period also
    // lands on the worker's timeline lane when event capture is on.
    const auto start = std::chrono::steady_clock::now();
    task();
    trace::record_interval(busy_labels_[worker], start,
                           std::chrono::steady_clock::now());
  } else {
    task();
  }
}

void Scheduler::worker_loop(std::size_t index) {
  t_worker.sched = this;
  t_worker.index = index;
  // Claims this thread's timeline lane (no-op unless tracing was enabled
  // before the scheduler was built — the CLI/bench order).
  trace::set_thread_name("sched/worker" + std::to_string(index));
  for (;;) {
    if (run_one(index)) continue;
    std::unique_lock<std::mutex> lock(idle_mutex_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    idle_cv_.wait(lock, [this] {
      return queued_.load(std::memory_order_seq_cst) > 0 ||
             (stopping_.load(std::memory_order_seq_cst) &&
              active_.load(std::memory_order_seq_cst) == 0);
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    lock.unlock();
    if (stopping_.load(std::memory_order_seq_cst) &&
        queued_.load(std::memory_order_seq_cst) == 0 &&
        active_.load(std::memory_order_seq_cst) == 0) {
      return;
    }
  }
}

void Scheduler::wake_one() {
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // The empty critical section orders this notify after any in-progress
    // sleeper has entered wait(); without it the notify could fire between
    // the sleeper's queue check and its wait, and be lost.
    { std::lock_guard<std::mutex> lock(idle_mutex_); }
    idle_cv_.notify_one();
  }
}

void TaskGroup::run(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_seq_cst);
  sched_.spawn([this, fn = std::move(fn)] {
    std::exception_ptr error;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    finish(error);
  });
}

void TaskGroup::wait() {
  wait_no_throw();
  std::lock_guard<std::mutex> lock(done_mutex_);
  if (error_) {
    std::exception_ptr error = std::exchange(error_, nullptr);
    std::rethrow_exception(error);
  }
}

void TaskGroup::wait_no_throw() noexcept {
  if (sched_.on_worker_thread()) {
    // Help first: a worker blocked on a nested parallel_for executes its
    // own deque / steals instead of parking, so nesting is genuinely
    // parallel at any depth and the subtasks it just pushed (which only it
    // or a thief can reach) always drain.
    const std::size_t worker = t_worker.index;
    while (pending_.load(std::memory_order_seq_cst) != 0) {
      if (sched_.run_one(worker)) continue;
      // Nothing runnable: the group's remaining tasks are active on other
      // threads.  Park briefly; finish() notifies on the last completion.
      std::unique_lock<std::mutex> lock(done_mutex_);
      done_cv_.wait_for(lock, std::chrono::microseconds(200), [this] {
        return pending_.load(std::memory_order_seq_cst) == 0;
      });
    }
    return;
  }
  // External waiter: park instead of helping.  Greedy helping here would
  // add an extra compute thread on top of the full worker set — measurably
  // worse on a saturated machine (the workers already cover every core) —
  // so the external thread only steps in as a *stall rescue*: if a full
  // rescue window passes with work queued but nothing dequeued (e.g. every
  // worker is blocked inside a user task), it drains tasks itself.  That
  // keeps the liveness guarantee of help-first without the oversubscription.
  std::uint64_t last_executed =
      sched_.executed_.load(std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(done_mutex_);
  while (pending_.load(std::memory_order_seq_cst) != 0) {
    const bool done =
        done_cv_.wait_for(lock, std::chrono::milliseconds(20), [this] {
          return pending_.load(std::memory_order_seq_cst) == 0;
        });
    if (done) return;
    const std::uint64_t executed =
        sched_.executed_.load(std::memory_order_relaxed);
    const bool stalled =
        executed == last_executed &&
        sched_.queued_.load(std::memory_order_seq_cst) > 0;
    last_executed = executed;
    if (stalled) {
      lock.unlock();
      while (pending_.load(std::memory_order_seq_cst) != 0 &&
             sched_.run_one(Scheduler::kExternal)) {
      }
      lock.lock();
    }
  }
}

void TaskGroup::finish(std::exception_ptr error) noexcept {
  std::lock_guard<std::mutex> lock(done_mutex_);
  if (error && !error_) error_ = error;
  if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    done_cv_.notify_all();
  }
}

}  // namespace fcma::sched
