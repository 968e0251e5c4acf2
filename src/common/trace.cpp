#include "common/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <random>
#include <utility>

#include "common/error.hpp"
#include "common/timeline.hpp"
#include "common/tlstream.hpp"

namespace fcma::trace {

namespace detail {

std::atomic<bool> g_enabled{false};

// Per-thread span nesting path; spans push "<label>" segments separated by
// '/' on construction and pop them on destruction.
thread_local std::string t_path;

// The span id currently active on this thread (0 outside spans).  Span
// ctors/dtors and ScopedParent maintain it; comm send-paths read it.
thread_local std::uint64_t t_current_span = 0;

// Span ids are process-unique and never 0 (0 means "no span").
std::atomic<std::uint64_t> g_next_span{1};

// Run trace id: drawn lazily, nonzero, replaceable for test isolation.
std::atomic<std::uint64_t> g_run_id{0};

std::uint64_t draw_run_id() {
  std::random_device rd;
  std::uint64_t id = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  id ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return id != 0 ? id : 1;
}

const std::string& thread_path() { return t_path; }

std::string qualified(std::string_view label) {
  if (t_path.empty()) return std::string(label);
  std::string full;
  full.reserve(t_path.size() + 1 + label.size());
  full += t_path;
  full += '/';
  full += label;
  return full;
}

namespace {

// Exit-dump state: armed by set_exit_dump(), fired at most once.
std::mutex g_dump_mutex;
bool g_dump_done = false;
bool g_atexit_registered = false;

void record_to_sink(const std::string& label, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t span,
                    std::uint64_t parent) {
  Timeline& tl = Timeline::global();
  if (!tl.streaming()) return;  // disarmed: nowhere to record
  tl.local().record(tl.intern(label), start_ns, end_ns, span, parent);
}

}  // namespace

}  // namespace detail

void set_enabled(bool on) {
  FCMA_CHECK(!on || streaming(),
             "tracing needs an armed stream: call set_stream_dir() first");
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t run_id() {
  std::uint64_t id = detail::g_run_id.load(std::memory_order_acquire);
  if (id != 0) return id;
  std::uint64_t fresh = detail::draw_run_id();
  if (detail::g_run_id.compare_exchange_strong(id, fresh,
                                               std::memory_order_acq_rel)) {
    return fresh;
  }
  return id;  // another thread won the race
}

void new_run_id() {
  detail::g_run_id.store(detail::draw_run_id(), std::memory_order_release);
}

std::uint64_t current_span() { return detail::t_current_span; }

std::uint64_t now_ns() { return Timeline::global().now_ns(); }

ScopedParent::ScopedParent(std::uint64_t parent_span)
    : saved_(detail::t_current_span) {
  detail::t_current_span = parent_span;
}

ScopedParent::~ScopedParent() { detail::t_current_span = saved_; }

Context current_context() {
  if (!enabled()) return {};
  return Context{detail::t_path, detail::t_current_span};
}

ScopedContext::ScopedContext(const Context& context)
    : saved_{detail::t_path, detail::t_current_span} {
  detail::t_path = context.path;
  detail::t_current_span = context.span;
}

ScopedContext::~ScopedContext() {
  detail::t_path = std::move(saved_.path);
  detail::t_current_span = saved_.span;
}

void set_stream_dir(const std::string& dir, std::uint64_t budget_bytes,
                    std::uint64_t rotate_bytes) {
  tlstream::StreamConfig config;
  config.dir = dir;
  if (budget_bytes != 0) config.budget_bytes = budget_bytes;
  if (rotate_bytes != 0) config.rotate_bytes = rotate_bytes;
  Timeline::global().set_stream(std::move(config));
}

bool streaming() { return Timeline::global().streaming(); }

Span::Span(std::string_view label) {
  if (!enabled()) return;
  active_ = true;
  std::string& path = detail::t_path;
  parent_len_ = path.size();
  if (!path.empty()) path += '/';
  path += label;
  label_ = path;
  // Become the thread's current span for the scope, so nested spans — and
  // comm messages sent from inside it — record this span as their parent.
  id_ = detail::g_next_span.fetch_add(1, std::memory_order_relaxed);
  saved_parent_ = detail::t_current_span;
  detail::t_current_span = id_;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!active_) return;
  const auto end = std::chrono::steady_clock::now();
  detail::t_path.resize(parent_len_);
  detail::t_current_span = saved_parent_;
  Timeline& tl = Timeline::global();
  detail::record_to_sink(label_, tl.since_epoch_ns(start_),
                         tl.since_epoch_ns(end), id_, saved_parent_);
}

void record_interval(std::string_view label,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end) {
  if (!enabled()) return;
  if (end < start) end = start;
  Timeline& tl = Timeline::global();
  detail::record_to_sink(
      detail::qualified(label), tl.since_epoch_ns(start),
      tl.since_epoch_ns(end),
      detail::g_next_span.fetch_add(1, std::memory_order_relaxed),
      detail::t_current_span);
}

void record_interval_ns(std::string_view label, std::uint64_t start_ns,
                        std::uint64_t end_ns) {
  if (!enabled()) return;
  if (end_ns < start_ns) end_ns = start_ns;
  detail::record_to_sink(
      detail::qualified(label), start_ns, end_ns,
      detail::g_next_span.fetch_add(1, std::memory_order_relaxed),
      detail::t_current_span);
}

void set_thread_name(std::string_view name) {
  if (!enabled()) return;
  Timeline::global().name_thread(name);
}

void set_exit_dump() {
  const std::lock_guard<std::mutex> lock(detail::g_dump_mutex);
  detail::g_dump_done = false;
  if (!detail::g_atexit_registered) {
    detail::g_atexit_registered = true;
    std::atexit([] { dump_now(); });
  }
}

void dump_now() {
  {
    const std::lock_guard<std::mutex> lock(detail::g_dump_mutex);
    if (detail::g_dump_done) return;
    detail::g_dump_done = true;
  }
  const std::string stream_dir = Timeline::global().stream_dir();
  if (stream_dir.empty()) return;
  // May run from atexit, where an escaping exception aborts the process:
  // report write failures instead of throwing.
  try {
    // A killed rank's ring tail must still land on disk: finalize the
    // stream so the views account its spans, then render them from what
    // the stream holds.
    Timeline::global().finalize_stream();
    tlstream::write_views(stream_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fcma: trace exit dump failed: %s\n", e.what());
  }
}

void count(std::string_view name, std::int64_t delta) {
  if (!enabled()) return;
  global().count(std::string(name), delta);
}

void gauge_set(std::string_view name, double value) {
  if (!enabled()) return;
  global().gauge_set(std::string(name), value);
}

void gauge_max(std::string_view name, double value) {
  if (!enabled()) return;
  global().gauge_max(std::string(name), value);
}

void meta_set(std::string_view name, std::string_view value) {
  if (!enabled()) return;
  global().meta_set(std::string(name), std::string(value));
}

}  // namespace fcma::trace
