// In-process message-passing layer.
//
// The paper's cluster runs master-worker FCMA over MPI.  This communicator
// reproduces the message-passing programming model inside one process: a
// fixed set of ranks, each with a thread-safe inbox, blocking tagged
// send/recv, and a barrier.  The FCMA cluster driver (driver.hpp) runs the
// real protocol over it; the virtual-time simulator (sim.hpp) models its
// timing at scale.
//
// Trace correlation (PR 9).  Every message also carries a SpanContext —
// the run's trace id, the sender's current span id, a per-(from,to) edge
// sequence number, and the send instant — stamped by send() at the moment
// the sender still holds its span open.  The receiver adopts the context's
// parent span (trace::ScopedParent), which is what stitches a worker's
// task spans causally under the master's dispatch spans in the merged
// cross-rank timeline.  With tracing off the context is all-zero and costs
// one branch.
//
// Fault-tolerance surface (PR 5).  Every message carries an FNV-1a payload
// checksum computed at send time (Message::checksum_ok() re-verifies it, so
// a FaultyComm-corrupted payload is detectable at the receiver).  recv_for()
// is the timeout overload the hardened protocol is built on: it returns
// std::nullopt instead of blocking forever, which lets the master sweep for
// expired task leases and lets an idle worker retransmit a lost work
// request.  close() poisons the communicator: every blocked or future recv
// drains real messages first and then returns a kShutdown-equivalent
// message instead of blocking, so a worker stuck in recv while the master
// exits (crash, thrown error) always unblocks; send() on a closed
// communicator silently drops.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace fcma::cluster {

/// Well-known message tags of the FCMA protocol.
enum class Tag : std::int32_t {
  kTaskAssign = 1,   ///< master -> worker: batch id + VoxelTasks payload
  kTaskResult = 2,   ///< worker -> master: batch id + accuracies payload
  kShutdown = 3,     ///< master -> worker: no more tasks (also what recv
                     ///< returns on a closed communicator)
  kWorkRequest = 4,  ///< worker -> master: queue low / idle retransmit
  kHeartbeat = 5,    ///< worker -> master: liveness (renews the task lease)
  kTaskNack = 6,     ///< worker -> master: batch unusable (bad checksum)
  kUser = 100,       ///< first tag available to applications
};

/// One delivered message.
struct Message {
  /// Piggybacked span context: stamped at send time, all-zero when tracing
  /// is off.  `sent_ns` is timeline-epoch ns (ranks share one process
  /// epoch, so the receiver can time the flight directly).
  struct SpanContext {
    std::uint64_t trace_id = 0;     ///< run trace id (trace::run_id())
    std::uint64_t parent_span = 0;  ///< sender's open span at send()
    std::uint64_t edge_seq = 0;     ///< per-(from,to) logical sequence
    std::uint64_t sent_ns = 0;      ///< send instant (0 = no context)
  };

  std::size_t source = 0;
  Tag tag = Tag::kUser;
  std::vector<std::uint8_t> payload;
  /// FNV-1a of the payload, computed by send().  A mismatch means the bytes
  /// were corrupted in flight (fault injection, or a real transport in a
  /// future out-of-process port).
  std::uint64_t checksum = 0;
  SpanContext ctx;

  [[nodiscard]] bool checksum_ok() const;
};

/// Fixed-size communicator: ranks 0..size()-1 with blocking mailboxes.
class Comm {
 public:
  explicit Comm(std::size_t ranks);
  virtual ~Comm() = default;

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  [[nodiscard]] std::size_t size() const { return inboxes_.size(); }

  /// Enqueues a message into `to`'s inbox (copies the payload).  Virtual so
  /// a FaultyComm decorator can drop/delay/duplicate/corrupt in flight.
  /// Dropped silently once the communicator is closed.
  virtual void send(std::size_t from, std::size_t to, Tag tag,
                    std::vector<std::uint8_t> payload);

  /// Blocks until a message is available for `rank`, FIFO order.  On a
  /// closed communicator, drains queued messages and then returns a
  /// kShutdown-equivalent message instead of blocking.
  [[nodiscard]] Message recv(std::size_t rank);

  /// Blocks until a message with `tag` is available for `rank` and removes
  /// the first such message (other tags stay queued in order).  Collectives
  /// need this: a fast rank's next-operation message can arrive before the
  /// current operation's message from a slower rank.  On a closed
  /// communicator, returns a kShutdown-equivalent message once no queued
  /// message matches.
  [[nodiscard]] Message recv(std::size_t rank, Tag tag);

  /// Timeout overloads: like recv(), but give up after `timeout_s` seconds
  /// and return std::nullopt.  The hardened master/worker protocol polls
  /// through these so lost messages can never block the farm forever.
  [[nodiscard]] std::optional<Message> recv_for(std::size_t rank,
                                                double timeout_s);
  [[nodiscard]] std::optional<Message> recv_for(std::size_t rank, Tag tag,
                                                double timeout_s);

  /// Non-blocking probe: true if `rank` has a pending message.
  [[nodiscard]] bool has_message(std::size_t rank);

  /// Poisons the communicator: wakes every blocked recv (they return a
  /// kShutdown-equivalent message once their queue is drained) and turns
  /// every later send into a no-op.  Idempotent; safe to call from any
  /// thread.  This is the master's exit path — a worker blocked in recv
  /// while the master unwinds must never deadlock the join.
  virtual void close();

  /// True once close() has been called.
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  /// FNV-1a 64-bit checksum of a byte span — the per-message integrity
  /// check (exposed so fault injection can pre-compute the honest checksum
  /// before corrupting the bytes).
  [[nodiscard]] static std::uint64_t payload_checksum(
      const std::vector<std::uint8_t>& payload);

 protected:
  /// Delivery primitive used by send() and by FaultyComm: enqueues with an
  /// explicit (possibly stale) checksum and the send-time span context.
  void enqueue(std::size_t from, std::size_t to, Tag tag,
               std::vector<std::uint8_t> payload, std::uint64_t checksum,
               Message::SpanContext ctx);

  /// Stamps the span context for a message leaving `from` toward `to` NOW,
  /// on the sending thread (FaultyComm must call this before deferring a
  /// delayed message — the delivering thread's span is the wrong parent).
  /// All-zero while tracing is off.
  [[nodiscard]] Message::SpanContext make_context(std::size_t from,
                                                  std::size_t to);

 private:
  struct Inbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> queue;
  };
  [[nodiscard]] static Message closed_message(std::size_t rank) {
    return Message{rank, Tag::kShutdown, {}, payload_checksum({}), {}};
  }
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::atomic<bool> closed_{false};
  /// Per-(from,to) logical edge sequence counters for SpanContext (distinct
  /// from FaultyComm's fault-decision sequencing).  Flat ranks*ranks array.
  std::unique_ptr<std::atomic<std::uint64_t>[]> ctx_edge_seq_;
};

/// MPI-style collectives over a Comm.  Every rank (0..size-1) must call the
/// collective exactly once per logical operation, like MPI; tags in the
/// collective range are reserved internally.
namespace collective {

/// Root's payload is delivered to every rank (including the root's own
/// return value).  Non-roots pass an empty payload.
[[nodiscard]] std::vector<std::uint8_t> broadcast(
    Comm& comm, std::size_t rank, std::size_t root,
    std::vector<std::uint8_t> payload);

/// Every rank contributes a payload; the root receives all of them ordered
/// by rank (others get an empty vector).
[[nodiscard]] std::vector<std::vector<std::uint8_t>> gather(
    Comm& comm, std::size_t rank, std::size_t root,
    std::vector<std::uint8_t> payload);

/// Blocks until every rank has entered the barrier.
void barrier(Comm& comm, std::size_t rank);

}  // namespace collective

/// Payload codecs for POD-like structures.
template <typename T>
std::vector<std::uint8_t> encode(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::uint8_t> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

template <typename T>
T decode(const std::vector<std::uint8_t>& payload) {
  static_assert(std::is_trivially_copyable_v<T>);
  FCMA_CHECK(payload.size() == sizeof(T), "payload size mismatch");
  T value;
  std::memcpy(&value, payload.data(), sizeof(T));
  return value;
}

/// Vector codecs (element count inferred from the byte length).
template <typename T>
std::vector<std::uint8_t> encode_vector(const std::vector<T>& values) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::uint8_t> out(values.size() * sizeof(T));
  if (!values.empty()) {
    std::memcpy(out.data(), values.data(), out.size());
  }
  return out;
}

template <typename T>
std::vector<T> decode_vector(const std::vector<std::uint8_t>& payload) {
  static_assert(std::is_trivially_copyable_v<T>);
  FCMA_CHECK(payload.size() % sizeof(T) == 0, "payload size mismatch");
  std::vector<T> values(payload.size() / sizeof(T));
  if (!values.empty()) {
    std::memcpy(values.data(), payload.data(), payload.size());
  }
  return values;
}

}  // namespace fcma::cluster
