#include "cluster/driver.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cluster/checkpoint.hpp"
#include "common/trace.hpp"
#include "fcma/task.hpp"

namespace fcma::cluster {

namespace {

using Clock = std::chrono::steady_clock;

// A worker requests its next batch when its local queue drops to this many
// tasks, so the request overlaps the last task's compute.
constexpr std::size_t kLowWater = 1;

// kWorkRequest flag byte: a plain low-water refill request, or an idle
// retransmit (the worker has nothing to do and suspects a lost message —
// the master must requeue that worker's outstanding leases).
constexpr std::uint8_t kRequestRefill = 0;
constexpr std::uint8_t kRequestIdleRetry = 1;

// A promoted standby opens a disjoint batch-id space so its fresh leases can
// never collide with ids still riding in stale worker queues.
constexpr std::uint64_t kFailoverBatchBase = std::uint64_t{1} << 32;

/// The rendezvous behind FaultPlan::stall_rank.  The straggler parks after
/// its lease-renewing heartbeat; when the master declares it dead, it is
/// released, and the master waits until the zombie's wake-up heartbeat is
/// in its inbox before it requeues and re-dispatches anything.  That
/// heartbeat therefore reaches the master ahead of every result for the
/// requeued tasks, so the resurrection happens however fast the survivors
/// are — no wall-clock race.
class StallGate {
 public:
  /// Straggler side: parks until released, then calls `wake` (the zombie's
  /// first message) before the releasing master goes on.  False when the
  /// farm was torn down instead.
  template <typename Wake>
  bool park(Wake wake) {
    std::unique_lock<std::mutex> lock(mutex_);
    parked_ = true;
    cv_.wait(lock, [this] { return released_ || closed_; });
    parked_ = false;
    if (!released_) return false;
    lock.unlock();
    wake();
    lock.lock();
    released_ = false;
    ++wakes_;
    cv_.notify_all();
    return true;
  }

  /// Master side, on declaring the straggler dead: releases it if parked
  /// and waits for its wake-up message.  Counting wake-ups (not reading a
  /// state) keeps a straggler that parks again at once from hiding this
  /// wake-up from the master.
  void release() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!parked_) return;
    released_ = true;
    const std::uint64_t target = wakes_ + 1;
    cv_.notify_all();
    cv_.wait(lock, [&] { return wakes_ >= target || closed_; });
  }

  /// Teardown: frees a parked straggler (and a waiting master) for good.
  void close() {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
  std::uint64_t wakes_ = 0;
  bool closed_ = false;
};

std::vector<std::uint8_t> assign_payload(
    std::uint64_t batch_id, const std::vector<core::VoxelTask>& batch) {
  std::vector<std::uint8_t> payload = encode(batch_id);
  const auto tasks = encode_vector(batch);
  payload.insert(payload.end(), tasks.begin(), tasks.end());
  return payload;
}

/// A kTaskResult / kStateDelta payload: batch id, task descriptor,
/// accuracies, packed as doubles.
struct PackedResult {
  std::uint64_t batch_id = 0;
  core::TaskResult result;
};

std::optional<PackedResult> decode_result(
    const std::vector<std::uint8_t>& payload) {
  const auto packed = decode_vector<double>(payload);
  if (packed.size() < 3) return std::nullopt;
  PackedResult r;
  r.batch_id = static_cast<std::uint64_t>(packed[0]);
  r.result.task.first = static_cast<std::uint32_t>(packed[1]);
  r.result.task.count = static_cast<std::uint32_t>(packed[2]);
  r.result.accuracy.assign(packed.begin() + 3, packed.end());
  return r;
}

/// Worker loop: receive task batches, run the pipeline task by task, return
/// one accuracies message per task, and request the next batch when the
/// local queue reaches the low-water mark — the request overlaps the
/// remaining local compute, so the worker never idles waiting for the
/// master unless the master itself is the bottleneck.  Workers share the
/// read-only normalized epoch data, exactly as the paper's workers share
/// the broadcast dataset.
///
/// Hardening: receives are polled (recv_for), and an idle worker
/// retransmits its work request with capped doubling backoff — a dropped
/// assignment, result, or request therefore recovers in O(poll) instead of
/// stalling the farm.  Each task start sends a heartbeat (renews the
/// master-side lease), and an assignment that fails its checksum is nacked
/// so the master can re-dispatch immediately.
///
/// The master is not a fixed rank: protocol traffic goes to whichever rank
/// last assigned work or announced a takeover, so a standby promotion
/// redirects the farm without restarting it.
void worker_main(Comm& comm, std::size_t rank, core::EpochSource& epochs,
                 const DriverOptions& options, StallGate& stall_gate,
                 double& busy_s) {
  // Per-worker span family: count/total/min/max of this rank's task
  // latencies, the cluster-level analogue of Table 3's load-balance data.
  const std::string task_label =
      "cluster/worker" + std::to_string(rank) + "/task";
  trace::set_thread_name("cluster/worker" + std::to_string(rank));
  std::size_t master = 0;  // rank currently running the control plane
  // Local queue entries remember their causal origin: the master's dispatch
  // span (from the assignment's piggybacked context) parents everything the
  // task records, and the arrival instant feeds the queue-wait attribution.
  struct LocalTask {
    std::uint64_t batch_id = 0;
    core::VoxelTask task;
    std::uint64_t parent_span = 0;
    std::uint64_t recv_ns = 0;
  };
  std::deque<LocalTask> local;
  bool requested = false;
  std::size_t completed = 0;
  const double base_poll = options.worker_poll_s;
  double poll = base_poll;
  for (;;) {
    // Injected crash: the worker vanishes without a farewell message once
    // it has completed its scheduled number of tasks.  The master only
    // finds out through the missed heartbeats.
    if (options.faults.kills(rank, completed)) return;
    if (local.empty()) {
      const std::optional<Message> m = comm.recv_for(rank, poll);
      if (!m) {
        // Idle with nothing inbound: our request or its assignment may
        // have been lost.  Retransmit with backoff; the idle-retry flag
        // tells the master to requeue whatever it still thinks we hold.
        comm.send(rank, master, Tag::kWorkRequest, {kRequestIdleRetry});
        requested = true;
        poll = std::min(poll * 2.0, base_poll * 8.0);
        continue;
      }
      if (m->tag == Tag::kShutdown) return;
      if (m->tag == Tag::kTakeover) {
        // New control plane: route to it and re-request promptly — our old
        // request (or its assignment) may have died with the old master.
        master = m->source;
        requested = false;
        poll = base_poll;
        continue;
      }
      if (m->tag == Tag::kTaskAssign) {
        if (!m->checksum_ok()) {
          // Corrupted in flight: unusable (even the batch id bytes are
          // suspect).  Nack so the master requeues our leases promptly.
          comm.send(rank, master, Tag::kTaskNack, {});
          continue;
        }
        FCMA_CHECK(m->payload.size() > sizeof(std::uint64_t),
                   "empty task batch");
        master = m->source;  // results go to whoever assigned the work
        std::uint64_t batch_id = 0;
        std::memcpy(&batch_id, m->payload.data(), sizeof(batch_id));
        const std::vector<std::uint8_t> rest(
            m->payload.begin() + sizeof(batch_id), m->payload.end());
        const std::uint64_t recv_ns = trace::now_ns();
        if (trace::enabled() && m->ctx.sent_ns != 0) {
          // Assignment flight time, parented to the master's dispatch span
          // (both endpoints are on the shared process timeline epoch).
          const trace::ScopedParent parent(m->ctx.parent_span);
          trace::record_interval_ns("cluster/comm/assign", m->ctx.sent_ns,
                                    recv_ns);
        }
        for (const auto& task : decode_vector<core::VoxelTask>(rest)) {
          local.push_back(LocalTask{batch_id, task, m->ctx.parent_span,
                                    recv_ns});
        }
        requested = false;
        poll = base_poll;
      }
      // Any other tag is stale traffic from a recovered fault; ignore it.
      continue;
    }
    if (!requested && local.size() <= kLowWater) {
      comm.send(rank, master, Tag::kWorkRequest, {kRequestRefill});
      requested = true;
    }
    const LocalTask entry = local.front();
    const auto batch_id = entry.batch_id;
    const auto task = entry.task;
    local.pop_front();
    // Adopt the dispatching master's span for the whole task scope: the
    // queue wait, the task span, and the result send's context all parent
    // to it — the cross-rank stitch.
    const trace::ScopedParent dispatch_parent(entry.parent_span);
    comm.send(rank, master, Tag::kHeartbeat, {});  // renews our lease
    if (options.faults.stalls(rank)) {
      // Scheduled straggler: the lease ages while we are parked, until the
      // master declares us dead.  Our wake-up heartbeat then drives its
      // resurrection path, and the task's result below arrives late.
      const bool released = stall_gate.park(
          [&] { comm.send(rank, master, Tag::kHeartbeat, {}); });
      if (!released) return;  // the farm was torn down meanwhile
    }
    if (trace::enabled() && entry.recv_ns != 0) {
      // Queue wait: assignment arrival to compute start.
      trace::record_interval_ns("cluster/queue", entry.recv_ns,
                                trace::now_ns());
    }
    const auto task_begin = Clock::now();
    {
      const trace::Span task_span(task_label);
      const core::TaskResult result =
          core::run_task(epochs, task, options.pipeline);
      busy_s +=
          std::chrono::duration<double>(Clock::now() - task_begin).count();
      // Result message: batch id, the task descriptor, the accuracies.
      std::vector<double> packed;
      packed.reserve(3 + result.accuracy.size());
      packed.push_back(static_cast<double>(batch_id));
      packed.push_back(static_cast<double>(task.first));
      packed.push_back(static_cast<double>(task.count));
      packed.insert(packed.end(), result.accuracy.begin(),
                    result.accuracy.end());
      comm.send(rank, master, Tag::kTaskResult, encode_vector(packed));
    }
    ++completed;
  }
}

/// Joins the farm on every exit path: poisons the communicator first so a
/// worker (or the standby) blocked in recv unblocks (the shutdown-race
/// fix), then joins.
struct FarmGuard {
  Comm& comm;
  StallGate& stall_gate;
  std::vector<std::thread>& threads;
  std::thread* standby = nullptr;
  ~FarmGuard() {
    comm.close();
    stall_gate.close();
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
    if (standby != nullptr && standby->joinable()) standby->join();
  }
};

void emit_counters(const DriverStats& s, std::size_t reassigned) {
  // Always emitted (0 included) so trace consumers can rely on presence.
  trace::count("cluster/tasks_dispatched",
               static_cast<std::int64_t>(s.tasks_dispatched));
  trace::count("cluster/work_requests",
               static_cast<std::int64_t>(s.work_requests));
  trace::count("cluster/retries", static_cast<std::int64_t>(s.retries));
  trace::count("cluster/reassignments", static_cast<std::int64_t>(reassigned));
  trace::count("cluster/heartbeat_misses",
               static_cast<std::int64_t>(s.heartbeat_misses));
  trace::count("cluster/corrupt_payloads",
               static_cast<std::int64_t>(s.corrupt_payloads));
  trace::count("cluster/resurrections",
               static_cast<std::int64_t>(s.resurrections));
  trace::count("cluster/failovers", static_cast<std::int64_t>(s.failovers));
}

/// Immutable per-run context shared by both control-plane incarnations.
struct ControlContext {
  Comm& comm;
  const DriverOptions& options;
  const std::vector<core::VoxelTask>& tasks;
  std::size_t batch_size;
  std::size_t standby_rank;  ///< 0 = control plane not replicated
  StallGate& stall_gate;     ///< FaultPlan::stall_rank's rendezvous
};

enum class MasterExit {
  kCompleted,  ///< every voxel scored; farm shut down
  kKilled,     ///< injected master crash (kill_master_after_batches)
  kAbdicated,  ///< a promoted standby (or teardown) superseded this loop
};

/// The master protocol loop, runnable by the primary (self = 0, fresh or
/// resumed state) and by a promoted standby (self = standby_rank, state
/// replicated from the delta stream).  Rebuilds the pending queue from the
/// scoreboard exactly like checkpoint/resume, primes every worker,
/// then collects results, answers work requests, and recovers losses until
/// every voxel is scored.  `reassigned_death` accumulates tasks moved off
/// dead workers (the cluster/reassignments counter).
MasterExit run_master_loop(const ControlContext& ctx, std::size_t self,
                           bool is_failover, core::Scoreboard& board,
                           DriverStats& stats,
                           std::size_t& reassigned_death) {
  Comm& comm = ctx.comm;
  const DriverOptions& options = ctx.options;
  const std::size_t workers = options.workers;
  const bool replicate = ctx.standby_rank != 0 && self != ctx.standby_rank;

  const auto task_scored = [&board](const core::VoxelTask& task) {
    for (std::uint32_t v = task.first; v < task.first + task.count; ++v) {
      if (!board.voxel_scored(v)) return false;
    }
    return true;
  };

  // Pending queue: every task with at least one unscored voxel.  A resumed
  // (or failed-over) run therefore skips completed ranges entirely;
  // partially-scored tasks are recomputed whole (the idempotent scoreboard
  // absorbs the overlap).
  std::deque<core::VoxelTask> pending;
  for (const auto& task : ctx.tasks) {
    if (!task_scored(task)) pending.push_back(task);
  }

  struct Lease {
    std::size_t worker = 0;
    std::vector<core::VoxelTask> outstanding;  ///< tasks without a result yet
  };
  std::unordered_map<std::uint64_t, Lease> leases;
  std::uint64_t next_batch_id = is_failover ? kFailoverBatchBase : 1;
  std::vector<char> alive(workers + 1, 1);
  std::vector<Clock::time_point> last_activity(workers + 1, Clock::now());
  std::unordered_map<std::uint32_t, std::size_t> requeue_count;
  std::size_t results_since_ckpt = 0;
  // A failover IS a recovery window: clock it from promotion to completion.
  bool any_death = is_failover;
  Clock::time_point first_death = Clock::now();

  // Returns `w`'s outstanding leased tasks to the front of the pending
  // queue (prompt recovery) and drops the leases.  Tasks whose voxels are
  // already fully scored (a late result raced the requeue) are purged
  // without recompute — and without burning a retry.  The retry cap aborts
  // the run instead of spinning when faults are severe enough that no
  // delivery ever lands.
  const auto requeue_worker = [&](std::size_t w) -> std::size_t {
    std::size_t n = 0;
    for (auto it = leases.begin(); it != leases.end();) {
      if (it->second.worker != w) {
        ++it;
        continue;
      }
      for (const auto& task : it->second.outstanding) {
        if (task_scored(task)) continue;
        FCMA_CHECK(++requeue_count[task.first] <= options.max_task_retries,
                   "task exceeded the retry limit; faults too severe to "
                   "make progress");
        pending.push_front(task);
        ++n;
      }
      it = leases.erase(it);
    }
    stats.tasks_requeued += n;
    return n;
  };

  const auto holds_lease = [&](std::size_t w) {
    for (const auto& entry : leases) {
      if (entry.second.worker == w) return true;
    }
    return false;
  };

  // Sends the next batch to `w` under a fresh lease; false when no work is
  // pending (the worker keeps idling and will retry later).
  const auto dispatch = [&](std::size_t w) -> bool {
    if (pending.empty()) return false;
    const std::size_t count = std::min(ctx.batch_size, pending.size());
    std::vector<core::VoxelTask> batch(
        pending.begin(),
        pending.begin() + static_cast<std::ptrdiff_t>(count));
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(count));
    const std::uint64_t batch_id = next_batch_id++;
    {
      // The dispatch span is the causal root of everything this batch does
      // on its worker: send() stamps it into the assignment's context while
      // the span is still open.
      const trace::Span dispatch_span("cluster/dispatch");
      comm.send(self, w, Tag::kTaskAssign, assign_payload(batch_id, batch));
    }
    leases[batch_id] = Lease{w, std::move(batch)};
    stats.tasks_dispatched += count;
    ++stats.batches;
    ++stats.messages;
    // Per-batch master queue depth: how many tasks are still undispatched
    // after this assignment (the drain curve of the farm).
    trace::gauge_set("cluster/master/tasks_remaining",
                     static_cast<double>(pending.size()));
    trace::gauge_max("cluster/master/max_batch_tasks",
                     static_cast<double>(count));
    return true;
  };

  // Declares silent workers dead: a leased worker with no sign of life for
  // a full lease timeout is not coming back; its tasks move to the
  // survivors.
  const auto sweep = [&] {
    const auto now = Clock::now();
    bool any_alive = false;
    for (std::size_t w = 1; w <= workers; ++w) {
      if (!alive[w]) continue;
      const double silent_s =
          std::chrono::duration<double>(now - last_activity[w]).count();
      if (!holds_lease(w) || silent_s <= options.lease_timeout_s) {
        any_alive = true;
        continue;
      }
      alive[w] = 0;
      ++stats.workers_died;
      ++stats.heartbeat_misses;
      if (!any_death) {
        any_death = true;
        first_death = now;
      }
      // A parked straggler sends its wake-up heartbeat before anything it
      // held is requeued (see StallGate).
      if (options.faults.stalls(w)) ctx.stall_gate.release();
      reassigned_death += requeue_worker(w);
      // Recovery window for this death: last sign of life to requeue done.
      trace::record_interval("cluster/recovery", last_activity[w], now);
    }
    FCMA_CHECK(any_alive,
               "every worker died before the analysis completed (lease "
               "timeout " + std::to_string(options.lease_timeout_s) +
                   " s; workers heartbeat only at task start, so the lease "
                   "timeout must exceed the longest task)");
  };

  const auto checkpoint_if_due = [&](bool force) {
    if (options.checkpoint_path.empty()) return;
    if (!force && (options.checkpoint_every == 0 ||
                   results_since_ckpt < options.checkpoint_every)) {
      return;
    }
    write_checkpoint(options.checkpoint_path, board);
    ++stats.checkpoints_written;
    results_since_ckpt = 0;
  };

  // Prime every worker with one batch; surplus workers idle until
  // shutdown.  (A promoted standby re-primes the same way: stale in-flight
  // work is absorbed idempotently.)
  for (std::size_t w = 1; w <= workers; ++w) (void)dispatch(w);

  // Collect results, answer work requests, and recover losses until every
  // voxel is scored.  The poll timeout bounds how stale the lease sweep can
  // be; messages wake the master immediately.
  const double master_poll = std::min(0.05, options.lease_timeout_s / 4.0);
  Clock::time_point last_ping = Clock::now();
  while (!board.complete()) {
    // Injected master crash: the primary vanishes mid-protocol — no
    // farewell, no final delta — once it has dispatched its quota.
    if (self == 0 && options.faults.kills_master(stats.batches)) {
      return MasterExit::kKilled;
    }
    const std::optional<Message> maybe = comm.recv_for(self, master_poll);
    sweep();
    if (replicate) {
      // Liveness for the standby while no results flow; results themselves
      // double as liveness (every delta refreshes the standby's timer).
      const auto now = Clock::now();
      if (std::chrono::duration<double>(now - last_ping).count() >=
          master_poll) {
        comm.send(self, ctx.standby_rank, Tag::kMasterPing, {});
        ++stats.messages;
        last_ping = now;
      }
    }
    if (!maybe) continue;
    const Message& m = *maybe;
    if (m.tag == Tag::kShutdown) return MasterExit::kAbdicated;  // teardown
    if (m.tag == Tag::kTakeover) {
      // A promoted standby declared us dead.  Its state is a superset of
      // what we have durably forwarded, the workers now route to it, and
      // anything we still believe is leased will be recomputed from its
      // pending queue — abdicate instead of fighting for the farm.
      return MasterExit::kAbdicated;
    }
    ++stats.messages;
    const std::size_t w = m.source;
    if (w < 1 || w > workers) {
      // Control-plane traffic from the old master (a not-actually-dead
      // primary still relaying): absorb state deltas, ignore pings.
      if (m.tag == Tag::kStateDelta && m.checksum_ok()) {
        if (const auto delta = decode_result(m.payload)) {
          (void)board.add_idempotent(delta->result);
        }
      }
      continue;
    }
    last_activity[w] = Clock::now();
    if (!alive[w]) {
      // Resurrection: a declared-dead worker spoke again (it was slow, not
      // gone).  Its tasks were already requeued at death, so any lease
      // still recorded for it is stale — purge them (unscored tasks go
      // back to pending, scored ones vanish) before readmitting it, and
      // count the event: every resurrection is a false-positive death.
      alive[w] = 1;
      ++stats.resurrections;
      (void)requeue_worker(w);
    }

    switch (m.tag) {
      case Tag::kHeartbeat:
        break;
      case Tag::kWorkRequest: {
        ++stats.work_requests;
        const bool idle_retry =
            !m.payload.empty() && m.payload[0] == kRequestIdleRetry;
        if (idle_retry) {
          // The worker has nothing, yet we may think it does: whatever it
          // still leases was lost in flight (assignment or results) — put
          // it back and re-serve.
          const std::size_t n = requeue_worker(w);
          if (n > 0) ++stats.retries;
        }
        (void)dispatch(w);
        break;
      }
      case Tag::kTaskNack: {
        // The worker received an assignment that failed its checksum; the
        // batch id inside is untrustworthy, so requeue everything it holds
        // and re-dispatch.
        ++stats.corrupt_payloads;
        const std::size_t n = requeue_worker(w);
        if (n > 0) ++stats.retries;
        (void)dispatch(w);
        break;
      }
      case Tag::kTaskResult: {
        if (trace::enabled() && m.ctx.sent_ns != 0) {
          // Result flight time, parented to the worker's task span.
          const trace::ScopedParent parent(m.ctx.parent_span);
          trace::record_interval_ns("cluster/comm/result", m.ctx.sent_ns,
                                    trace::now_ns());
        }
        if (!m.checksum_ok()) {
          // Corrupted result: drop it.  The worker moves on; the lease (or
          // its idle retry) re-runs the task eventually.
          ++stats.corrupt_payloads;
          break;
        }
        const auto packed = decode_result(m.payload);
        FCMA_CHECK(packed.has_value(), "malformed result payload");
        // At-least-once: duplicates (redelivery, recomputation after a
        // false requeue) are absorbed; disagreement throws.
        const std::size_t newly = board.add_idempotent(packed->result);
        if (replicate && newly > 0) {
          // Replicate before anything else observes the new state: the
          // delta is the result payload verbatim, so the standby's board
          // is bit-identical to ours by construction.
          comm.send(self, ctx.standby_rank, Tag::kStateDelta, m.payload);
          ++stats.messages;
        }
        ++results_since_ckpt;
        const auto lease_it = leases.find(packed->batch_id);
        if (lease_it != leases.end()) {
          auto& out = lease_it->second.outstanding;
          for (auto it = out.begin(); it != out.end(); ++it) {
            if (it->first == packed->result.task.first) {
              out.erase(it);
              break;
            }
          }
          if (out.empty()) leases.erase(lease_it);
        }
        checkpoint_if_due(false);
        break;
      }
      default:
        FCMA_CHECK(false, "master received an unexpected message tag");
    }
  }

  if (any_death) {
    stats.recovery_wall_s =
        std::chrono::duration<double>(Clock::now() - first_death).count();
  }
  checkpoint_if_due(true);
  // Release the farm; a lost shutdown is covered by the guard's close().
  for (std::size_t w = 1; w <= workers; ++w) {
    comm.send(self, w, Tag::kShutdown, {});
    ++stats.messages;
  }
  if (replicate) {
    comm.send(self, ctx.standby_rank, Tag::kShutdown, {});
    ++stats.messages;
  }
  if (self != 0) {
    // Tell an abdicated (or long-dead) primary the run is over.
    comm.send(self, 0, Tag::kShutdown, {});
    ++stats.messages;
  }
  return MasterExit::kCompleted;
}

/// What the standby thread hands back to the orchestrator.  Only read
/// after the thread is joined.
struct StandbyOutcome {
  std::optional<core::Scoreboard> board;
  DriverStats stats;
  std::size_t reassigned_death = 0;
  bool completed = false;
  std::exception_ptr error;
};

/// Standby loop: mirror the master's scoreboard through the delta stream,
/// and promote to master once the primary has been silent for 1.5 lease
/// timeouts (more conservative than the worker-death threshold — a
/// failover re-primes the whole farm, a worker requeue moves one batch).
void standby_main(const ControlContext& ctx, core::Scoreboard board,
                  StandbyOutcome& out) {
  try {
    trace::set_thread_name("cluster/standby");
    const double poll = std::min(0.05, ctx.options.lease_timeout_s / 4.0);
    const double silence_limit = 1.5 * ctx.options.lease_timeout_s;
    auto last_master = Clock::now();
    for (;;) {
      const std::optional<Message> m =
          ctx.comm.recv_for(ctx.standby_rank, poll);
      if (m) {
        if (m->tag == Tag::kShutdown) return;  // primary completed/teardown
        last_master = Clock::now();
        if (m->tag == Tag::kStateDelta && m->checksum_ok()) {
          if (const auto delta = decode_result(m->payload)) {
            // The delta carries the result payload verbatim, so the mirror
            // is bit-identical; a dropped or corrupted delta only means the
            // promoted plan recomputes that task.
            (void)board.add_idempotent(delta->result);
          }
        }
        // kMasterPing (and any stray traffic) only refreshes liveness.
        continue;
      }
      const double silent_s =
          std::chrono::duration<double>(Clock::now() - last_master).count();
      if (silent_s <= silence_limit) continue;
      // Promote: announce the takeover to every worker (and the old master,
      // in case it is merely slow — it abdicates on receipt), then run the
      // same master loop from the replicated state.
      out.stats.failovers = 1;
      for (std::size_t w = 1; w <= ctx.options.workers; ++w) {
        ctx.comm.send(ctx.standby_rank, w, Tag::kTakeover, {});
        ++out.stats.messages;
      }
      ctx.comm.send(ctx.standby_rank, 0, Tag::kTakeover, {});
      ++out.stats.messages;
      // Takeover window: last sign of the primary to promotion complete.
      trace::record_interval("cluster/recovery/takeover", last_master,
                             Clock::now());
      const MasterExit exit =
          run_master_loop(ctx, ctx.standby_rank, /*is_failover=*/true, board,
                          out.stats, out.reassigned_death);
      out.completed = exit == MasterExit::kCompleted;
      out.board.emplace(std::move(board));
      return;
    }
  } catch (...) {
    out.error = std::current_exception();
  }
}

/// Field-wise accumulation of one control-plane incarnation's counters into
/// the run totals (worker_busy_s stays with the orchestrator).
void merge_stats(DriverStats& total, const DriverStats& part) {
  total.tasks_dispatched += part.tasks_dispatched;
  total.batches += part.batches;
  total.work_requests += part.work_requests;
  total.messages += part.messages;
  total.workers_died += part.workers_died;
  total.tasks_requeued += part.tasks_requeued;
  total.retries += part.retries;
  total.heartbeat_misses += part.heartbeat_misses;
  total.corrupt_payloads += part.corrupt_payloads;
  total.checkpoints_written += part.checkpoints_written;
  total.failovers += part.failovers;
  total.resurrections += part.resurrections;
  total.recovery_wall_s = std::max(total.recovery_wall_s,
                                   part.recovery_wall_s);
}

}  // namespace

core::Scoreboard run_cluster_analysis(core::EpochSource& epochs,
                                      std::size_t total_voxels,
                                      const DriverOptions& options,
                                      DriverStats* stats) {
  FCMA_CHECK(options.workers >= 1, "need at least one worker");
  FCMA_CHECK(total_voxels >= 1, "need at least one voxel");
  FCMA_CHECK(options.lease_timeout_s > 0.0, "lease timeout must be positive");
  FCMA_CHECK(options.worker_poll_s > 0.0, "worker poll must be positive");
  FCMA_CHECK(options.max_task_retries >= 1, "retry limit must be at least 1");
  options.faults.validate(options.workers + 1);
  FCMA_CHECK(options.faults.kill_master_after_batches == 0 || options.standby,
             "a master kill schedule requires a standby rank");

  const std::size_t per_task =
      options.voxels_per_task != 0
          ? options.voxels_per_task
          : (total_voxels + options.workers - 1) / options.workers;
  const auto tasks = core::partition_voxels(total_voxels, per_task);
  // A quarter of a worker's even share per batch: every worker refills ~4
  // times, so the tail stays balanced.
  const std::size_t batch_size =
      std::max<std::size_t>(1, tasks.size() / (options.workers * 4));

  DriverStats totals;
  totals.worker_busy_s.assign(options.workers, 0.0);

  core::Scoreboard board =
      options.resume != nullptr ? *options.resume
                                : core::Scoreboard(total_voxels);
  if (options.resume != nullptr) {
    FCMA_CHECK(board.total_voxels() == total_voxels,
               "resume scoreboard does not match the dataset");
  }
  if (board.complete()) {
    // Nothing to do (fully-scored resume); keep the side effects uniform.
    if (!options.checkpoint_path.empty()) {
      write_checkpoint(options.checkpoint_path, board);
      ++totals.checkpoints_written;
    }
    emit_counters(totals, 0);
    if (stats != nullptr) *stats = totals;
    return board;
  }

  // Rank layout: 0 = primary master, 1..workers = workers, last = standby
  // (if enabled).
  const std::size_t standby_rank = options.standby ? options.workers + 1 : 0;
  const std::size_t ranks = options.workers + 1 + (options.standby ? 1 : 0);
  const std::unique_ptr<Comm> comm_owner =
      options.faults.message_faults()
          ? std::make_unique<FaultyComm>(ranks, options.faults)
          : std::make_unique<Comm>(ranks);
  Comm& comm = *comm_owner;

  StallGate stall_gate;
  const ControlContext ctx{comm, options, tasks, batch_size, standby_rank,
                           stall_gate};

  std::vector<std::thread> workers;
  workers.reserve(options.workers);
  std::thread standby_thread;
  const FarmGuard guard{comm, stall_gate, workers, &standby_thread};
  for (std::size_t w = 1; w <= options.workers; ++w) {
    workers.emplace_back(worker_main, std::ref(comm), w, std::ref(epochs),
                         std::cref(options), std::ref(stall_gate),
                         std::ref(totals.worker_busy_s[w - 1]));
  }
  StandbyOutcome standby_out;
  if (options.standby) {
    // The mirror seed is copied here, before the primary loop mutates the
    // board; from then on the delta stream keeps the copies convergent.
    standby_thread = std::thread(
        [&ctx, &standby_out, seed = board]() mutable {
          standby_main(ctx, std::move(seed), standby_out);
        });
  }

  DriverStats primary;
  std::size_t primary_reassigned = 0;
  const MasterExit exit =
      run_master_loop(ctx, 0, /*is_failover=*/false, board, primary,
                      primary_reassigned);

  if (exit != MasterExit::kCompleted) {
    // The primary died (injected crash) or abdicated to a promoted standby:
    // the run now completes — or fails — on the standby's control plane.
    // Do NOT close the communicator here; the standby is still driving the
    // farm over it.
    FCMA_CHECK(options.standby, "master died with no standby to take over");
    if (standby_thread.joinable()) standby_thread.join();
    if (standby_out.error) std::rethrow_exception(standby_out.error);
    FCMA_CHECK(standby_out.completed && standby_out.board.has_value(),
               "standby exited without completing the analysis");
    board = std::move(*standby_out.board);
  }

  // The guard closes the communicator and joins every thread here — the
  // per-rank busy slots are final afterwards, but we still need them below,
  // so close and join explicitly first (the guard's second pass is a no-op).
  comm.close();
  stall_gate.close();
  for (auto& t : workers) {
    if (t.joinable()) t.join();
  }
  if (standby_thread.joinable()) standby_thread.join();

  merge_stats(totals, primary);
  merge_stats(totals, standby_out.stats);
  const std::size_t reassigned =
      primary_reassigned + standby_out.reassigned_death;

  emit_counters(totals, reassigned);
  // Straggler / load-imbalance summary (joined above, so the per-rank busy
  // slots are final).
  trace::gauge_set("cluster/max_worker_busy_s", totals.max_worker_busy_s());
  trace::gauge_set("cluster/mean_worker_busy_s", totals.mean_worker_busy_s());
  trace::gauge_set("cluster/imbalance_ratio", totals.imbalance_ratio());
  if (stats != nullptr) *stats = totals;
  return board;
}

core::Scoreboard run_cluster_analysis(const fmri::NormalizedEpochs& epochs,
                                      std::size_t total_voxels,
                                      const DriverOptions& options,
                                      DriverStats* stats) {
  // Safe to stack-allocate: the farm joins every worker thread before the
  // primary overload returns.
  core::ResidentEpochs source(epochs);
  return run_cluster_analysis(source, total_voxels, options, stats);
}

}  // namespace fcma::cluster
