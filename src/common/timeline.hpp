// Timeline collector: per-thread event rings spilling to the stream.
//
// PR 1's trace layer funnels every span through one registry mutex — fine at
// stage granularity, hostile once every pool thread records spans and busy
// intervals at once.  This layer keeps the global mutex off the span hot
// path and records *when* each span ran, so every
// view — the Chrome timeline, the fcma.trace.v2 per-label summary with its
// percentiles, the merged cross-rank report — derives from one store.
//
// Sharding.  Each recording thread owns one ThreadSink, registered with the
// process-wide Timeline on first use and kept alive past thread exit (a
// cluster worker's spans survive the worker).  A sink holds a bounded event
// ring: a private write buffer, guarded by the sink's own (uncontended)
// mutex, that only this lane's fcma.tlstream.v1 SegmentWriter drains
// (tlstream.hpp).
//
// Span labels are interned to 32-bit ids through a per-thread cache, so the
// steady-state record path touches no process-wide lock at all.
//
// One store.  Events are recorded only while a stream is armed (set_stream(),
// `--trace-stream DIR`).  A full ring spills to the lane's segment files and
// keeps recording, so `dropped` stays 0 for as long as the disk budget and
// the disk hold.  finalize_stream() flushes every ring tail to disk and
// publishes the stream.done manifest with the registry's counters, gauges,
// metadata and rooflines — it runs from the crash-safe exit dump too, so a
// fault-killed rank's spans still reach the merged report.  Every view is
// read back from the stream directory.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/tlstream.hpp"

namespace fcma::trace {

/// One completed span occurrence: [start_ns, end_ns) since the collector's
/// process epoch, with its interned label and span-context ids (0 = none):
/// `span` identifies this occurrence, `parent` the span it ran under —
/// possibly on another rank, via the comm-piggybacked context.
struct TimelineEvent {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::uint32_t label = 0;
};

class Timeline;

/// One thread's shard: written only by the owning thread.
class ThreadSink {
 public:
  /// `ring_capacity` bounds the event buffer (allocated on the first
  /// event).  `lane` is the sink's stable stream-lane id; `owner` resolves
  /// labels and stream configuration at spill time.
  ThreadSink(std::size_t ring_capacity, Timeline* owner, std::size_t lane)
      : owner_(owner), lane_(lane), ring_capacity_(ring_capacity) {}

  /// Appends one span occurrence to the ring.  A full ring spills to the
  /// stream; once the stream is finalized or disarmed, events that find the
  /// ring full are dropped, counted.
  void record(std::uint32_t label, std::uint64_t start_ns,
              std::uint64_t end_ns, std::uint64_t span = 0,
              std::uint64_t parent = 0);

 private:
  friend class Timeline;

  /// Appends every ring event to this lane's segment files (events the
  /// disk budget refuses, or a failed write loses, count as dropped) and
  /// empties the ring.  Caller holds mutex_.  Leaves the ring untouched
  /// when the stream is disarmed or, unless `force`, already finalized.
  void spill_locked(bool force = false);

  /// Mirrors the writer's written/lost totals into the atomics.  Caller
  /// holds mutex_.
  void sync_counts_locked();

  Timeline* owner_ = nullptr;
  std::size_t lane_ = 0;
  std::size_t ring_capacity_ = 0;
  std::atomic<std::uint64_t> spilled_{0};  // events in segment files
  std::atomic<std::uint64_t> dropped_{0};  // events never written
  std::atomic<std::uint64_t> lost_{0};     // events a failed write lost

  std::mutex mutex_;  // guards everything below
  std::vector<TimelineEvent> ring_;
  std::string name_;
  std::unique_ptr<tlstream::SegmentWriter> writer_;
};

/// Process-wide sink registry, label interner, and event-stream owner.
class Timeline {
 public:
  /// The process-wide instance (immortal: never destroyed, so worker
  /// threads outliving main() can still record safely).
  [[nodiscard]] static Timeline& global();

  /// Ring capacity (events per thread) for sinks created afterwards.
  void set_ring_capacity(std::size_t events);

  /// Arms the event stream: spans become events, and full rings spill to
  /// per-lane segment files under `config.dir`.  An empty dir disarms.
  void set_stream(tlstream::StreamConfig config);
  /// True while a stream is armed (one relaxed load: the span hot path).
  [[nodiscard]] bool streaming() const {
    return streaming_.load(std::memory_order_relaxed);
  }
  /// The armed stream's directory ("" when disarmed).
  [[nodiscard]] std::string stream_dir() const;

  /// Flushes every sink's remaining ring events to its segment files,
  /// finalizes the active segments, and publishes the stream.done manifest
  /// with a snapshot of trace::global().  Idempotent per run; no-op when
  /// streaming is not armed.  Runs from the crash-safe exit dump, so a
  /// killed worker's partial lane still lands.
  void finalize_stream();

  /// The calling thread's sink (registered on first use, re-registered
  /// after reset()).
  [[nodiscard]] ThreadSink& local();

  /// Interns `label`, returning its stable 32-bit id.  Per-thread cache:
  /// the global intern table is touched once per (thread, label).
  [[nodiscard]] std::uint32_t intern(std::string_view label);

  /// Names the calling thread's timeline lane (e.g. "sched/worker3").
  void name_thread(std::string_view name);

  /// Nanoseconds since the collector's epoch for a steady_clock instant.
  [[nodiscard]] std::uint64_t since_epoch_ns(
      std::chrono::steady_clock::time_point tp) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_)
            .count());
  }
  [[nodiscard]] std::uint64_t now_ns() const {
    return since_epoch_ns(std::chrono::steady_clock::now());
  }

  /// Total events written to the stream / dropped, across every sink.
  [[nodiscard]] std::uint64_t events_streamed() const;
  [[nodiscard]] std::uint64_t events_dropped() const;

  /// Detaches every sink and starts a new generation: live threads get a
  /// fresh sink on their next record.  Test isolation only.
  void reset();

 private:
  friend class ThreadSink;

  /// Stream-wide spill state shared by every lane writer.
  struct StreamState {
    tlstream::StreamConfig config;
    std::shared_ptr<std::atomic<std::uint64_t>> used_bytes =
        std::make_shared<std::atomic<std::uint64_t>>(0);
    /// Set once the done manifest is out: later spills drop (counted) so
    /// the manifest's event total stays the truth about the segments.
    std::atomic<bool> finalized{false};
  };

  Timeline() : epoch_(std::chrono::steady_clock::now()) {}

  /// Snapshot of the stream state (null when not armed).  Lock-ordering
  /// leaf: stream_mutex_ is never held while taking another mutex.
  [[nodiscard]] std::shared_ptr<StreamState> stream_state() const;

  /// Copy of the intern table, for spill-time label resolution.
  [[nodiscard]] std::vector<std::string> label_names() const;

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> streaming_{false};
  std::atomic<std::uint64_t> generation_{0};

  mutable std::mutex sinks_mutex_;  // guards sinks_, ring_capacity_, next_lane_
  std::vector<std::shared_ptr<ThreadSink>> sinks_;
  std::size_t ring_capacity_ = 1u << 16;
  std::size_t next_lane_ = 0;

  mutable std::mutex stream_mutex_;  // guards stream_ (streaming_ mirrors it)
  std::shared_ptr<StreamState> stream_;

  mutable std::mutex intern_mutex_;  // guards ids_ and names_
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
};

}  // namespace fcma::trace
