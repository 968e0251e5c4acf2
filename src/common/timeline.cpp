#include "common/timeline.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/error.hpp"
#include "common/trace.hpp"

namespace fcma::trace {

namespace {

/// The calling thread's sink plus the generation it was registered under
/// (reset() bumps the generation; stale threads re-register lazily).
struct LocalSink {
  std::shared_ptr<ThreadSink> sink;
  std::uint64_t generation = ~std::uint64_t{0};
};
thread_local LocalSink t_local;

/// Per-thread label-intern cache; cleared on generation change so ids from
/// before a reset() never leak into the new intern table.
struct LocalInterns {
  std::unordered_map<std::string, std::uint32_t> ids;
  std::uint64_t generation = ~std::uint64_t{0};
};
thread_local LocalInterns t_interns;

}  // namespace

void ThreadSink::record(std::uint32_t label, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::uint64_t span,
                        std::uint64_t parent) {
  // Uncontended per-thread lock: only finalize_stream() takes it from other
  // threads.
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() >= ring_capacity_) spill_locked();
  if (ring_.size() >= ring_capacity_) {
    // The stream was finalized or disarmed under a full ring: nowhere to
    // put the event, visibly counted.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (ring_.capacity() == 0) ring_.reserve(ring_capacity_);
  ring_.push_back(TimelineEvent{start_ns, end_ns, span, parent, label});
}

void ThreadSink::spill_locked(bool force) {
  if (ring_.empty()) return;  // nothing to spill: don't even open a lane
  const auto stream = owner_->stream_state();
  if (stream == nullptr) return;
  if (!force && stream->finalized.load(std::memory_order_acquire)) return;
  if (writer_ == nullptr) {
    writer_ = std::make_unique<tlstream::SegmentWriter>(
        stream->config, stream->used_bytes, lane_,
        name_.empty() ? "thread" + std::to_string(lane_) : name_, run_id());
  }
  const std::vector<std::string> labels = owner_->label_names();
  for (const TimelineEvent& ev : ring_) {
    tlstream::EventRecord rec;
    rec.label = ev.label < labels.size() ? std::string_view(labels[ev.label])
                                         : std::string_view("<unknown>");
    rec.start_ns = ev.start_ns;
    rec.end_ns = ev.end_ns;
    rec.span = ev.span;
    rec.parent = ev.parent;
    if (!writer_->append(rec)) {
      // Disk budget exhausted (or I/O failure): the event is gone, and the
      // dropped counter says so — never a silent truncation.
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Batch flush: concurrent --follow readers see whole lines, once per
  // spill rather than per event.
  writer_->flush();
  sync_counts_locked();
  ring_.clear();
}

void ThreadSink::sync_counts_locked() {
  spilled_.store(writer_->events_written(), std::memory_order_relaxed);
  lost_.store(writer_->events_lost(), std::memory_order_relaxed);
}

Timeline& Timeline::global() {
  // Deliberately leaked: detached/late threads may record during static
  // destruction, and an immortal collector makes that safe.
  static Timeline* instance = new Timeline();
  return *instance;
}

void Timeline::set_ring_capacity(std::size_t events) {
  const std::lock_guard<std::mutex> lock(sinks_mutex_);
  ring_capacity_ = std::max<std::size_t>(events, 16);
}

void Timeline::set_stream(tlstream::StreamConfig config) {
  if (!config.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.dir, ec);
    FCMA_CHECK(!ec, "cannot create stream directory " + config.dir + ": " +
                        ec.message());
  }
  const std::lock_guard<std::mutex> lock(stream_mutex_);
  if (config.dir.empty()) {
    stream_.reset();
  } else {
    stream_ = std::make_shared<StreamState>();
    stream_->config = std::move(config);
  }
  streaming_.store(stream_ != nullptr, std::memory_order_relaxed);
}

std::string Timeline::stream_dir() const {
  const std::lock_guard<std::mutex> lock(stream_mutex_);
  return stream_ != nullptr ? stream_->config.dir : std::string();
}

std::shared_ptr<Timeline::StreamState> Timeline::stream_state() const {
  const std::lock_guard<std::mutex> lock(stream_mutex_);
  return stream_;
}

std::vector<std::string> Timeline::label_names() const {
  const std::lock_guard<std::mutex> lock(intern_mutex_);
  return names_;
}

void Timeline::finalize_stream() {
  const auto stream = stream_state();
  if (stream == nullptr) return;
  if (stream->finalized.exchange(true, std::memory_order_acq_rel)) return;
  std::vector<std::shared_ptr<ThreadSink>> sinks;
  {
    const std::lock_guard<std::mutex> lock(sinks_mutex_);
    sinks = sinks_;
  }
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  std::size_t lanes = 0;
  for (const auto& sink : sinks) {
    const std::lock_guard<std::mutex> lock(sink->mutex_);
    // Force: the finalized flag is already up (it exists to fence off
    // *later* spills from stale counts), but this last flush must land.
    sink->spill_locked(/*force=*/true);
    if (sink->writer_ != nullptr) {
      sink->writer_->finalize();
      sink->sync_counts_locked();
      ++lanes;
    }
    events += sink->spilled_.load(std::memory_order_relaxed);
    dropped += sink->dropped_.load(std::memory_order_relaxed) +
               sink->lost_.load(std::memory_order_relaxed);
  }
  tlstream::write_done_manifest(stream->config.dir, run_id(), events, dropped,
                                lanes, trace::global().snapshot());
}

ThreadSink& Timeline::local() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (t_local.sink == nullptr || t_local.generation != gen) {
    const std::lock_guard<std::mutex> lock(sinks_mutex_);
    t_local.sink =
        std::make_shared<ThreadSink>(ring_capacity_, this, next_lane_++);
    t_local.generation = gen;
    sinks_.push_back(t_local.sink);
  }
  return *t_local.sink;
}

std::uint32_t Timeline::intern(std::string_view label) {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (t_interns.generation != gen) {
    t_interns.ids.clear();
    t_interns.generation = gen;
  }
  const auto cached = t_interns.ids.find(std::string(label));
  if (cached != t_interns.ids.end()) return cached->second;
  std::uint32_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(intern_mutex_);
    const auto [it, inserted] =
        ids_.emplace(std::string(label),
                     static_cast<std::uint32_t>(names_.size()));
    if (inserted) names_.emplace_back(label);
    id = it->second;
  }
  t_interns.ids.emplace(std::string(label), id);
  return id;
}

void Timeline::name_thread(std::string_view name) {
  ThreadSink& sink = local();
  const std::lock_guard<std::mutex> lock(sink.mutex_);
  sink.name_ = std::string(name);
}

std::uint64_t Timeline::events_streamed() const {
  const std::lock_guard<std::mutex> lock(sinks_mutex_);
  std::uint64_t total = 0;
  for (const auto& sink : sinks_) {
    total += sink->spilled_.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Timeline::events_dropped() const {
  const std::lock_guard<std::mutex> lock(sinks_mutex_);
  std::uint64_t total = 0;
  for (const auto& sink : sinks_) {
    total += sink->dropped_.load(std::memory_order_relaxed) +
             sink->lost_.load(std::memory_order_relaxed);
  }
  return total;
}

void Timeline::reset() {
  {
    const std::lock_guard<std::mutex> lock(sinks_mutex_);
    sinks_.clear();
    next_lane_ = 0;
  }
  {
    const std::lock_guard<std::mutex> lock(stream_mutex_);
    stream_.reset();
    streaming_.store(false, std::memory_order_relaxed);
  }
  {
    const std::lock_guard<std::mutex> lock(intern_mutex_);
    ids_.clear();
    names_.clear();
  }
  generation_.fetch_add(1, std::memory_order_release);
}

}  // namespace fcma::trace
