// Timeline stream segments: continuous-profiling spill format + reader.
//
// The stream is the one store of trace data: each recording thread spills
// its bounded ring of span events to per-lane segment files under one
// stream directory, the run's counters, gauges, metadata and rooflines
// travel in its end-of-run manifest, and every view — the Chrome timeline
// (timeline.json), the fcma.trace.v2 span/counter summary (trace.json),
// the merged `fcma report --stream-in` tables and the live `--follow` tail
// — reads the directory back into one cross-rank timeline.
//
// Format (`fcma.tlstream.v1`).  A stream directory holds
//
//   lane<id>-<seq>.tls       finalized segments (rotated atomically)
//   lane<id>-<seq>.tls.part  the segment currently being appended
//   stream.done              end-of-run manifest (written via rename)
//   timeline.json            Chrome view rendered from the stream at exit
//   trace.json               fcma.trace.v2 view rendered from the stream
//
// Every segment is JSON-lines: one header object (schema, lane name,
// lane id, segment seq, run trace id) followed by one object per event
// (`ts`/`dur` in timeline-epoch ns, label, span id, parent span id, trace
// id).  The crash-safety argument is structural: lines are appended and
// fflush()ed in batch, a segment becomes immutable at rotation through a
// same-directory rename, and the reader treats a torn final line (a crash
// or a mid-write tail) as absent rather than as corruption — so a killed
// rank's partial `.part` segment still yields every complete line it ever
// flushed, and a reader polling mid-run can never observe a half-written
// event.  A flush or close that fails marks the segment failed and counts
// every event it held as dropped, so the totals never claim lost data.
// stream.done exists only after a clean finalize; its event count lets
// validators (tools/trace_check.py) prove the merge lost nothing, and its
// meta/counters/gauges/roofline sections carry the registry (metrics.hpp).
//
// The writer half runs under the owning ThreadSink's mutex (timeline.cpp).
// The reader validates every field it reads (this is the only input to
// every view), and shares the SLO rule grammar with the CLI report path.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "common/metrics.hpp"

namespace fcma::trace::tlstream {

inline constexpr std::string_view kSchema = "fcma.tlstream.v1";
inline constexpr std::string_view kDoneFile = "stream.done";
inline constexpr std::string_view kTimelineFile = "timeline.json";
inline constexpr std::string_view kTraceFile = "trace.json";

/// Stream-wide configuration, shared by every lane's writer.
struct StreamConfig {
  std::string dir;                            ///< segment directory
  std::uint64_t rotate_bytes = 1ull << 20;    ///< segment rotation threshold
  std::uint64_t budget_bytes = 256ull << 20;  ///< total on-disk budget
};

/// One event to append (the writer resolves nothing; callers pass strings).
struct EventRecord {
  std::string_view label;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
};

/// Appends one lane's events to rotating segment files.  Not thread-safe:
/// the owning ThreadSink serializes calls under its own mutex.
class SegmentWriter {
 public:
  /// `used_bytes` is the stream-wide disk accounting shared across lanes;
  /// appends that would exceed `config.budget_bytes` are refused (false),
  /// which the caller must count as a dropped event.
  SegmentWriter(StreamConfig config,
                std::shared_ptr<std::atomic<std::uint64_t>> used_bytes,
                std::size_t lane_id, std::string lane_name,
                std::uint64_t trace_id);
  ~SegmentWriter();

  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Appends one event line; false when the disk budget is exhausted or the
  /// segment file cannot be written (the event is lost and must be counted).
  [[nodiscard]] bool append(const EventRecord& ev);

  /// Flushes the active segment so concurrent readers see every appended
  /// line.  Called once per spill batch, not per event.  A failed flush
  /// fails the writer (see events_lost()).
  void flush();

  /// Flushes, closes and atomically promotes the active `.part` segment to
  /// its final name.  The next append opens a fresh segment.  A failed
  /// flush or close fails the writer instead (see events_lost()).
  void finalize();

  /// Events appended and not known lost.
  [[nodiscard]] std::uint64_t events_written() const {
    return events_ - lost_;
  }
  /// Appended events that a failed write, flush or close lost: every event
  /// since the last successful flush.  The writer refuses appends after.
  [[nodiscard]] std::uint64_t events_lost() const { return lost_; }

 private:
  bool open_segment();
  bool write_line(const std::string& line);
  /// Marks the writer failed and the unflushed events lost; closes the file.
  void fail_io();

  StreamConfig config_;
  std::shared_ptr<std::atomic<std::uint64_t>> used_bytes_;
  std::size_t lane_id_ = 0;
  std::string lane_name_;
  std::uint64_t trace_id_ = 0;
  std::FILE* file_ = nullptr;
  std::string part_path_;
  std::string final_path_;
  std::uint64_t seq_ = 0;
  std::uint64_t segment_bytes_ = 0;
  std::uint64_t events_ = 0;     // appends accepted
  std::uint64_t unflushed_ = 0;  // accepted since the last successful flush
  std::uint64_t lost_ = 0;
  bool failed_ = false;  // budget exhausted or I/O error; appends refused
};

/// Writes the stream.done manifest (event totals per the writers, plus the
/// run's registry values) through a temp-file + rename so a reader either
/// sees a complete manifest or none.  Throws fcma::Error when the manifest
/// cannot be written in full.
void write_done_manifest(const std::string& dir, std::uint64_t trace_id,
                         std::uint64_t events, std::uint64_t dropped,
                         std::size_t lanes, const Metrics& metrics);

/// One event read back from a segment.
struct StreamEvent {
  std::string lane;
  std::size_t lane_id = 0;
  std::uint64_t seq = 0;  ///< segment sequence within the lane
  std::string label;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace_id = 0;
};

/// A merged read of a stream directory.  The reader is deliberately
/// tolerant — torn tails are skipped; malformed event lines, segments with
/// an unusable header and an unreadable manifest become warnings — because
/// it must work mid-run against files being appended; strict validation
/// lives in tools/trace_check.py.
struct StreamRead {
  std::vector<StreamEvent> events;  ///< ordered by (lane_id, seq, file order)
  std::map<std::size_t, std::string> lanes;  ///< lane id -> name (headers)
  bool done = false;                ///< stream.done manifest present
  std::uint64_t done_events = 0;    ///< manifest totals (when done)
  std::uint64_t done_dropped = 0;
  Metrics metrics;                  ///< manifest registry values (when done)
  std::uint64_t trace_id = 0;  ///< from the first header seen
  std::size_t segments = 0;
  std::vector<std::string> warnings;
};

/// Reads every segment (final and partial) under `dir`.  Throws fcma::Error
/// only when `dir` itself cannot be listed.
[[nodiscard]] StreamRead read_stream_dir(const std::string& dir);

/// The Chrome-trace / Perfetto view of a stream read ("chrome://tracing",
/// https://ui.perfetto.dev): an `fcma.timeline.v1` document with one pid=1
/// lane per stream lane (tid = lane id, named by its segment header), the
/// events as time-sorted "X" complete events, and `dropped_events` from
/// the stream.done manifest.
[[nodiscard]] std::string timeline_view_json(const StreamRead& read);

/// Duration statistics of one span label (or class): exact count, total,
/// min and max, plus a histogram for the percentiles.
struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  LatencyHistogram hist;

  void record_ns(std::uint64_t dur_ns);
  void merge(const SpanStats& other);
  /// Histogram quantile clamped to the exact [min_s, max_s]; 0 when empty.
  [[nodiscard]] double quantile(double p) const;
};

/// Folds a read's events by exact label.
[[nodiscard]] std::map<std::string, SpanStats> fold_spans(
    const StreamRead& read);

/// The span/counter summary of a stream read, schema `fcma.trace.v2`:
///   {"schema": "fcma.trace.v2",
///    "meta": {"<name>": "<value>", ...},
///    "spans": {"<label>": {"count": C, "total_s": T, "min_s": m,
///              "max_s": M, "p50_s": q50, "p95_s": q95, "p99_s": q99},
///              ...},
///    "counters": {"<name>": N, ...},
///    "gauges": {"<name>": V, ...},
///    "roofline": {"<label>": {"modeled_s": S, "gflops": G,
///                 "ai_flops_per_byte": I, "pct_roofline": P,
///                 "bound": "compute|memory"}, ...},
///    "dropped_events": D}
/// Spans fold the events by label (fold_spans()); the other sections and
/// dropped_events come from the stream.done manifest.  One entry per line.
[[nodiscard]] std::string trace_view_json(const StreamRead& read);

/// Reads `dir` once and writes both views from that read: `dir`/timeline.json
/// and `dir`/trace.json (throws fcma::Error on I/O failure).
void write_views(const std::string& dir);

/// 16-digit lowercase hex of a trace id (the on-disk spelling).
[[nodiscard]] std::string trace_hex(std::uint64_t trace_id);

/// Folds per-rank span labels into rank-independent classes for the SLO /
/// percentile tables: any "worker<N>" path segment collapses to "worker",
/// so "cluster/worker3/task" and "cluster/worker7/task" share one class.
[[nodiscard]] std::string span_class_of(std::string_view label);

/// One declarative SLO rule: `<class>:p<50|95|99><<limit><ns|us|ms|s>`,
/// e.g. "cluster/task:p99<250ms".  `span_class` matches a class exactly or
/// as a trailing path suffix ("task:p99<1s" matches "cluster/task").
struct SloRule {
  std::string span_class;
  double quantile = 0.99;  ///< 0.50 / 0.95 / 0.99
  double limit_s = 0.0;
  std::string raw;  ///< original spelling, for reporting
};

/// Parses a comma-separated rule list; throws fcma::Error on bad syntax or
/// a limit that is negative or not finite.
[[nodiscard]] std::vector<SloRule> parse_slo_rules(std::string_view spec);

/// True when `rule` governs `span_class` (exact match or path suffix).
[[nodiscard]] bool rule_matches(const SloRule& rule,
                                std::string_view span_class);

}  // namespace fcma::trace::tlstream
