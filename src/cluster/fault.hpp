// Deterministic fault injection for the in-process cluster.
//
// The paper's 48-node task farm assumes every rank survives the run; the
// hardened driver (driver.hpp) does not, and this module is the harness
// that proves it.  A FaultPlan describes which faults to inject — message
// drop / duplication / payload corruption / delayed (re-ordered) delivery,
// plus a worker-rank crash after N completed tasks — and FaultyComm applies
// the message faults as a decorator over the base communicator's delivery
// path.
//
// Determinism contract.  Every per-message decision is a pure function of
// (seed, from, to, tag, per-edge sequence number): the plan hashes those
// five values into a common/rng stream and draws in a fixed order.  The
// thread-schedule of a run can change *which* messages exist (retries are
// timing-dependent), but the fate of the N-th message on a given edge is
// identical across runs and across replays — the property the seeded
// replay test pins down.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "cluster/comm.hpp"

namespace fcma::cluster {

/// Declarative description of the faults to inject into one run.
struct FaultPlan {
  std::uint64_t seed = 0;  ///< stream selector; same seed = same decisions

  // Per-message fault probabilities in [0, 1], evaluated independently in
  // the order drop -> duplicate -> corrupt -> delay (a dropped message is
  // gone; a duplicated one can also be corrupted or delayed).
  double drop = 0.0;       ///< message vanishes in flight
  double duplicate = 0.0;  ///< message delivered twice (at-least-once test)
  double corrupt = 0.0;    ///< payload bytes flipped after checksumming
  double delay = 0.0;      ///< delivery deferred past later traffic

  /// A delayed message is released after this many subsequent sends to the
  /// same destination rank (re-ordering, not wall-clock sleep).  A deferred
  /// message with no later traffic to flush it behaves like a drop — the
  /// retry protocol must cope either way.
  std::size_t delay_messages = 1;

  /// Worker crash schedule: rank `kill_rank` (0 = disabled; rank 0 is the
  /// master and cannot be killed) exits abruptly — no farewell messages —
  /// when it has completed `kill_after_tasks` tasks.
  std::size_t kill_rank = 0;
  std::size_t kill_after_tasks = 0;

  /// Master crash schedule: the primary master abandons the run — no
  /// farewell messages, state deltas stop — once it has dispatched this
  /// many batches (0 = disabled).  Requires a standby rank to take over;
  /// the driver refuses the plan otherwise.
  std::size_t kill_master_after_batches = 0;

  /// Deterministic straggler: rank `stall_rank` (0 = disabled) stalls
  /// before each task's compute, after its lease-renewing heartbeat, until
  /// the master declares it dead.  Its wake-up heartbeat then reaches the
  /// master before any result for its requeued tasks, so every stall
  /// drives the resurrection path (stale-lease purge on readmission) at
  /// any task speed.
  std::size_t stall_rank = 0;

  /// Fate of one message, drawn deterministically.
  struct Decision {
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    bool delay = false;
  };

  /// Pure function of (seed, edge, seq): the fate of the seq-th message
  /// sent from `from` to `to` with `tag`.
  [[nodiscard]] Decision decide(std::size_t from, std::size_t to, Tag tag,
                                std::uint64_t seq) const;

  /// True when `rank` should crash given it has completed `tasks` tasks.
  [[nodiscard]] bool kills(std::size_t rank, std::size_t tasks) const {
    return kill_rank != 0 && rank == kill_rank && tasks >= kill_after_tasks;
  }

  /// True when the primary master should crash given it has dispatched
  /// `batches` batches.
  [[nodiscard]] bool kills_master(std::size_t batches) const {
    return kill_master_after_batches != 0 &&
           batches >= kill_master_after_batches;
  }

  /// True when `rank` is the scheduled straggler.
  [[nodiscard]] bool stalls(std::size_t rank) const {
    return stall_rank != 0 && rank == stall_rank;
  }

  /// True when any message-level fault can fire (drives FaultyComm use).
  [[nodiscard]] bool message_faults() const {
    return drop > 0.0 || duplicate > 0.0 || corrupt > 0.0 || delay > 0.0;
  }

  /// True when the plan injects anything at all.
  [[nodiscard]] bool active() const {
    return message_faults() || kill_rank != 0 ||
           kill_master_after_batches != 0 || stall_rank != 0;
  }

  /// Throws fcma::Error on out-of-range probabilities or a kill plan aimed
  /// at the master.
  void validate(std::size_t ranks) const;
};

/// Injection tally of one FaultyComm (what actually fired).
struct FaultStats {
  std::size_t dropped = 0;
  std::size_t duplicated = 0;
  std::size_t corrupted = 0;
  std::size_t delayed = 0;
};

/// Communicator with the FaultPlan's message faults applied on the send
/// path.  Receives are untouched: a corrupted payload travels with its
/// original (now stale) checksum, so Message::checksum_ok() fails at the
/// receiver exactly like a real wire error.
class FaultyComm final : public Comm {
 public:
  FaultyComm(std::size_t ranks, FaultPlan plan);

  void send(std::size_t from, std::size_t to, Tag tag,
            std::vector<std::uint8_t> payload) override;

  /// Flushes every still-deferred message, then poisons the communicator.
  /// Without the flush, a delayed message with no later traffic to the same
  /// destination would silently become a drop at teardown.
  void close() override;

  [[nodiscard]] FaultStats stats() const;
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  /// Releases deferred messages to `to` that have matured (enough later
  /// sends happened).  Caller holds mutex_.
  void flush_matured(std::size_t to);

  struct Deferred {
    std::uint64_t release_at;  ///< dest send-count that releases it
    std::size_t from;
    Tag tag;
    std::vector<std::uint8_t> payload;
    std::uint64_t checksum;
    /// Span context stamped at the original send — the flushing thread's
    /// own span would be the wrong causal parent.
    Message::SpanContext ctx;
  };

  FaultPlan plan_;
  mutable std::mutex mutex_;
  // Per-edge sequence numbers feeding the deterministic decisions, and the
  // per-destination deferred queues of delayed messages.
  std::map<std::tuple<std::size_t, std::size_t, std::int32_t>, std::uint64_t>
      edge_seq_;
  std::vector<std::uint64_t> dest_sends_;
  std::vector<std::vector<Deferred>> deferred_;
  FaultStats stats_;
};

}  // namespace fcma::cluster
