#include "cluster/fault.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fcma::cluster {

namespace {

// splitmix64 finalizer: mixes one word into the decision-stream seed.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h += v + 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

}  // namespace

FaultPlan::Decision FaultPlan::decide(std::size_t from, std::size_t to,
                                      Tag tag, std::uint64_t seq) const {
  // One private Rng stream per (seed, edge, seq): the decision depends only
  // on those values, never on global draw order, so two runs with different
  // thread interleavings agree on every shared message's fate.
  std::uint64_t h = mix(seed, 0x6661756C74ull);  // "fault"
  h = mix(h, static_cast<std::uint64_t>(from));
  h = mix(h, static_cast<std::uint64_t>(to));
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::int32_t>(tag)));
  h = mix(h, seq);
  Rng rng(h);
  Decision d;
  // Fixed draw order regardless of which probabilities are zero.
  d.drop = rng.uniform() < drop;
  d.duplicate = rng.uniform() < duplicate;
  d.corrupt = rng.uniform() < corrupt;
  d.delay = rng.uniform() < delay;
  return d;
}

void FaultPlan::validate(std::size_t ranks) const {
  const auto prob_ok = [](double p) { return p >= 0.0 && p <= 1.0; };
  FCMA_CHECK(prob_ok(drop) && prob_ok(duplicate) && prob_ok(corrupt) &&
                 prob_ok(delay),
             "fault probabilities must be in [0, 1]");
  FCMA_CHECK(delay_messages >= 1, "delay_messages must be >= 1");
  if (kill_rank != 0) {
    FCMA_CHECK(kill_rank < ranks, "kill rank out of range");
  }
  if (stall_rank != 0) {
    FCMA_CHECK(stall_rank < ranks, "stall rank out of range");
  }
}

FaultyComm::FaultyComm(std::size_t ranks, FaultPlan plan)
    : Comm(ranks), plan_(plan), dest_sends_(ranks, 0), deferred_(ranks) {
  plan_.validate(ranks);
}

void FaultyComm::send(std::size_t from, std::size_t to, Tag tag,
                      std::vector<std::uint8_t> payload) {
  // Honest checksum first: a corrupted payload must travel with the stale
  // checksum so the receiver's checksum_ok() catches it.
  const std::uint64_t checksum = payload_checksum(payload);
  // Span context too: stamped now, on the sending thread, so a delayed
  // message still names the sender's span as parent when it finally lands.
  const Message::SpanContext ctx = make_context(from, to);

  FaultPlan::Decision d;
  std::uint64_t release_at = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t seq =
        edge_seq_[{from, to, static_cast<std::int32_t>(tag)}]++;
    d = plan_.decide(from, to, tag, seq);

    if (d.drop) {
      ++stats_.dropped;
      ++dest_sends_[to];
      flush_matured(to);
      return;
    }
    if (d.corrupt) {
      ++stats_.corrupted;
      if (!payload.empty()) {
        payload[payload.size() / 2] ^= 0xA5;
      }
      // Empty payload: nothing to flip, so deliver intact.  An empty
      // payload with a matching checksum is indistinguishable from the
      // original anyway.
    }
    ++dest_sends_[to];
    if (d.delay) {
      ++stats_.delayed;
      release_at = dest_sends_[to] + plan_.delay_messages;
      deferred_[to].push_back(
          Deferred{release_at, from, tag, std::move(payload), checksum, ctx});
      flush_matured(to);
      return;
    }
    if (d.duplicate) ++stats_.duplicated;
    flush_matured(to);
  }
  // Deliver outside the fault lock (enqueue takes the inbox lock).
  if (d.duplicate) {
    enqueue(from, to, tag, payload, checksum, ctx);
  }
  enqueue(from, to, tag, std::move(payload), checksum, ctx);
}

void FaultyComm::flush_matured(std::size_t to) {
  auto& q = deferred_[to];
  for (auto it = q.begin(); it != q.end();) {
    if (dest_sends_[to] >= it->release_at) {
      enqueue(it->from, to, it->tag, std::move(it->payload), it->checksum,
              it->ctx);
      it = q.erase(it);
    } else {
      ++it;
    }
  }
}

void FaultyComm::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t to = 0; to < deferred_.size(); ++to) {
      for (auto& d : deferred_[to]) {
        enqueue(d.from, to, d.tag, std::move(d.payload), d.checksum, d.ctx);
      }
      deferred_[to].clear();
    }
  }
  Comm::close();
}

FaultStats FaultyComm::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace fcma::cluster
