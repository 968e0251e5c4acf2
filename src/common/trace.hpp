// Structured tracing: RAII spans + cheap counter/gauge helpers.
//
// Tracing answers the question the whole paper is built on (§3.3, Tables
// 1/5-8): *where* do the time and events of an analysis go, per stage?
// Every pipeline stage, thread-pool task, cluster message and blocked
// kernel reports here when tracing is on.
//
// Label hierarchy.  A Span opened while another Span is active *on the same
// thread* records under "<parent>/<label>", so one analyze run yields e.g.
// "task", "task/correlation", "task/correlation/gemm_nt", "task/svm", ...
// — a static call-tree profile.  Threads root their own hierarchy (a pool
// worker's spans are not children of the submitter's).
//
// One store.  Every span occurrence is an event in the fcma.tlstream.v1
// stream (tlstream.hpp): set_stream_dir() arms it (`fcma analyze
// --trace-stream DIR`, the bench MetricsSidecar), and tracing can only be
// enabled while a stream is armed.  Spans do NOT take a global mutex: they
// append to the calling thread's timeline ring (common/timeline.hpp),
// which spills to the stream.  Counters, gauges, metadata and rooflines
// live in the in-memory registry (metrics.hpp, trace::global()) and travel
// in the stream's stream.done manifest.  Every view is rendered from the
// stream directory: the Chrome timeline DIR/timeline.json and the
// fcma.trace.v2 span/counter summary DIR/trace.json.
//
// Crash safety.  set_exit_dump() arms an idempotent dump (stream finalize,
// then both views) that the CLI fires from its fcma::Error handler and an
// atexit backstop, so a run that dies mid-pipeline still leaves its trace
// on disk.
//
// Kill switch.  Tracing is *off* by default; when off, every helper is one
// relaxed atomic load + branch, so instrumented hot paths (the blocked
// kernels run millions of times in benches) pay nothing measurable.
// set_enabled(false) pauses recording inside an armed stream.
//
// Distributed correlation (PR 9).  Every process run carries one trace id
// (run_id()) and every Span an id unique within the process; the span
// active on the calling thread is current_span().  Cluster comm stamps
// {run_id, current_span} onto each outgoing message, and the receiver
// adopts the sender's span as parent via ScopedParent — so a worker's task
// spans stitch causally under the master's dispatch spans in the merged
// timeline, across ranks.  dump_now() finalizes the stream, so a
// fault-killed rank's partial lane still reaches the merged report.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/metrics.hpp"

namespace fcma::trace {

namespace detail {
extern std::atomic<bool> g_enabled;
/// Current span path of the calling thread ("" outside any span).
[[nodiscard]] const std::string& thread_path();
/// Prefixes `label` with the calling thread's span path.
[[nodiscard]] std::string qualified(std::string_view label);
}  // namespace detail

/// Turns the runtime switch on/off (off at process start).  Turning it on
/// throws fcma::Error unless a stream is armed (set_stream_dir()): spans
/// are recorded only into the stream.
void set_enabled(bool on);

/// True when tracing is recording.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// The process run's trace id: one nonzero 64-bit id per run, lazily drawn,
/// shared by every rank (ranks are threads) and stamped on every stream
/// segment and comm message.
[[nodiscard]] std::uint64_t run_id();

/// Draws a fresh run id (test isolation; a new CLI invocation gets a fresh
/// id automatically by being a new process).
void new_run_id();

/// The span id currently active on the calling thread (0 outside spans and
/// while tracing is disabled).  This is what comm send-paths capture as the
/// remote parent.
[[nodiscard]] std::uint64_t current_span();

/// Nanoseconds since the timeline epoch (one epoch per process, so ranks'
/// timestamps compare directly).
[[nodiscard]] std::uint64_t now_ns();

/// Adopts `parent_span` (typically a remote rank's span id, from a comm
/// message) as the calling thread's current span for this scope: spans and
/// intervals recorded inside parent to it, stitching the cross-rank edge.
class ScopedParent {
 public:
  explicit ScopedParent(std::uint64_t parent_span);
  ~ScopedParent();

  ScopedParent(const ScopedParent&) = delete;
  ScopedParent& operator=(const ScopedParent&) = delete;

 private:
  std::uint64_t saved_ = 0;
};

/// The calling thread's span nesting: its label path and current span id.
struct Context {
  std::string path;
  std::uint64_t span = 0;
};

/// The calling thread's Context, to hand to work that runs on another
/// thread (empty while tracing is disabled).
[[nodiscard]] Context current_context();

/// Adopts `context` on the calling thread for this scope: spans and
/// intervals recorded inside get the context's path as their label prefix
/// and its span as their parent, as if recorded on the thread it came from
/// (a pool lane running part of a stage its caller spans).
class ScopedContext {
 public:
  explicit ScopedContext(const Context& context);
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context saved_;
};

/// Arms the event stream: span occurrences are recorded as events and
/// spill to fcma.tlstream.v1 segment files under `dir` (empty disarms;
/// spans recorded while disarmed are discarded).  0 keeps a default
/// budget / rotation threshold.
void set_stream_dir(const std::string& dir, std::uint64_t budget_bytes = 0,
                    std::uint64_t rotate_bytes = 0);
[[nodiscard]] bool streaming();

/// RAII span: times its scope and records it as one stream event under
/// the nesting-qualified label.  No-op while tracing is disabled.
class Span {
 public:
  /// Opens a span; it records into the calling thread's timeline ring.
  explicit Span(std::string_view label);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's process-unique id (0 when tracing was off at
  /// construction).  Valid for the span's whole lifetime — comm send-paths
  /// read it through current_span() while the span is open.
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  bool active_ = false;           // false = disabled at construction
  std::size_t parent_len_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t saved_parent_ = 0;  // current_span() to restore at close
  std::string label_;               // full nesting-qualified label
  std::chrono::steady_clock::time_point start_;
};

/// Records one span occurrence under the nesting-qualified `label` with
/// its true wall-clock interval, for callers that already hold both
/// endpoints (a pool helper's busy period in one loop).
void record_interval(std::string_view label,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end);

/// record_interval() with timeline-epoch endpoints the caller already holds
/// in ns — e.g. a comm flight time [ctx.sent_ns, recv now_ns()], whose
/// start was stamped on another rank, or the correlate and normalize
/// halves of one unit of the fused stage 1+2, split at one stamp.
void record_interval_ns(std::string_view label, std::uint64_t start_ns,
                        std::uint64_t end_ns);

/// Names the calling thread's timeline lane (e.g. "sched/worker3").  No-op
/// while tracing is disabled.
void set_thread_name(std::string_view name);

/// Arms the idempotent exit dump: dump_now() — and an atexit backstop —
/// will finalize the armed stream and write its views
/// (tlstream::write_views()).
void set_exit_dump();

/// Fires the armed exit dump once; later calls (and the atexit backstop)
/// are no-ops.  Safe to call with no stream armed.
void dump_now();

/// Counter/gauge helpers against the global registry; no-ops when disabled.
/// Names are used verbatim (no nesting prefix): counters are process-wide
/// totals, not call-tree nodes.
void count(std::string_view name, std::int64_t delta = 1);
void gauge_set(std::string_view name, double value);
void gauge_max(std::string_view name, double value);

/// Attaches a run-metadata string (e.g. "simd/isa" -> "avx512") to the
/// global registry, and so to the trace view.  No-op while tracing is
/// disabled.
void meta_set(std::string_view name, std::string_view value);

}  // namespace fcma::trace
