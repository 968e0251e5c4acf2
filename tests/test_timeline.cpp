// Unit + stress tests for the timeline profiler substrate: the log-bucketed
// latency histogram (common/histogram.hpp), the per-thread sink shards
// (common/timeline.hpp), the Chrome view rendered from the event stream
// (DIR/timeline.json), and the trace-layer plumbing that routes spans
// through them (flush, record_interval, exit dump).  The concurrent-stress
// cases here also run under TSan via ci_tsan.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/timeline.hpp"
#include "common/tlstream.hpp"
#include "common/trace.hpp"
#include "threading/thread_pool.hpp"

namespace fcma::trace {
namespace {

class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    global().reset();
    Timeline::global().reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_stream_dir("");
    set_enabled(false);
    global().reset();
    Timeline::global().reset();
  }
};

/// Fresh per-test stream directory, removed on scope exit.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(const std::string& name)
      : path(::testing::TempDir() + name) {
    std::filesystem::remove_all(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string view_path() const {
    return path + "/" + std::string(tlstream::kTimelineFile);
  }
};

/// Whole-file read ("" when the file is missing).
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// --- histogram ----------------------------------------------------------

TEST(LatencyHistogram, BucketOfIsBitWidth) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1023), 10u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1024), 11u);
}

TEST(LatencyHistogram, QuantileOfUniformSamplesIsOrderedAndBounded) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.record_ns(static_cast<std::uint64_t>(i) * 1000);  // 1us .. 1ms
  }
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 1e-6);
  EXPECT_LE(p99, 2e-3);  // within one octave of the true 0.99ms
}

TEST(LatencyHistogram, SingleSampleQuantileLandsInItsBucket) {
  LatencyHistogram h;
  h.record_seconds(0.001);  // 1e6 ns, bucket [2^19, 2^20)
  for (const double p : {0.0, 0.5, 1.0}) {
    const double q = h.quantile(p);
    EXPECT_GE(q, 0.000524288);
    EXPECT_LE(q, 0.0010485761);
  }
}

TEST(LatencyHistogram, MergeAddsCountsBucketwise) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.record_ns(100);
  b.record_ns(100);
  b.record_ns(1u << 20);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bucket(LatencyHistogram::bucket_of(100)), 2u);
  EXPECT_EQ(a.bucket(LatencyHistogram::bucket_of(1u << 20)), 1u);
}

TEST(LatencyHistogram, EmptyQuantileIsZeroAndNegativeClampsToZero) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.record_seconds(-1.0);
  EXPECT_EQ(h.bucket(0), 1u);  // negative duration lands in the 0ns bucket
}

// --- registry quantiles -------------------------------------------------

TEST_F(TimelineTest, RegistryQuantilesClampToRecordedRange) {
  Registry reg;
  reg.record_span("s", 0.010);
  reg.record_span("s", 0.020);
  reg.record_span("s", 0.030);
  for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    const double q = reg.span_quantile("s", p);
    EXPECT_GE(q, 0.010);
    EXPECT_LE(q, 0.030);
  }
  EXPECT_DOUBLE_EQ(reg.span_quantile("missing", 0.5), 0.0);
}

// --- interning and sinks ------------------------------------------------

TEST_F(TimelineTest, InterningIsStablePerLabel) {
  Timeline& tl = Timeline::global();
  const std::uint32_t a = tl.intern("alpha");
  const std::uint32_t b = tl.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(tl.intern("alpha"), a);
  EXPECT_EQ(tl.intern("beta"), b);
}

TEST_F(TimelineTest, FlushMergesShardAggregatesExactlyOnce) {
  { const Span s("flush/span"); }
  { const Span s("flush/span"); }
  flush();
  EXPECT_EQ(global().span("flush/span").count, 2u);
  flush();  // shards were drained: re-flushing must not double-count
  EXPECT_EQ(global().span("flush/span").count, 2u);
}

// --- concurrent stress (runs under TSan via ci_tsan.sh) -----------------

TEST_F(TimelineTest, ConcurrentSpanAndHistogramRecordingMergesExactly) {
  constexpr std::size_t kIterations = 2000;
  {
    threading::ThreadPool pool(4);
    threading::parallel_for_each(pool, 0, kIterations, [](std::size_t i) {
      // Recorded before the Span opens: record_span() qualifies its label
      // with the thread's current span path.
      record_span("stress/manual", 1e-6 * static_cast<double>(i + 1));
      const Span span("stress/span");
    });
  }
  flush();
  const SpanStats spans = global().span("stress/span");
  const SpanStats manual = global().span("stress/manual");
  EXPECT_EQ(spans.count, kIterations);
  EXPECT_EQ(manual.count, kIterations);
  // The histogram shards merged with the stats: quantiles see all samples
  // and stay inside the exact [min, max].
  const double p95 = global().span_quantile("stress/manual", 0.95);
  EXPECT_GE(p95, manual.min_s);
  EXPECT_LE(p95, manual.max_s);
  // Worker busy intervals cover every task the scheduler executed.
  std::uint64_t busy = 0;
  for (const auto& label : global().span_labels()) {
    if (label.rfind("sched/worker", 0) == 0) busy += global().span(label).count;
  }
  EXPECT_GT(busy, 0u);
}

// --- Chrome-trace export ------------------------------------------------

/// Extracts every `"<key>": <number>` in order of appearance.
std::vector<double> extract_numbers(const std::string& json,
                                    const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\": ";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    out.push_back(std::strtod(json.c_str() + pos, nullptr));
  }
  return out;
}

TEST_F(TimelineTest, ChromeJsonIsTimeSortedWithNamedWorkerLanes) {
  const ScratchDir dir("fcma_timeline_lanes");
  set_stream_dir(dir.path);
  {
    threading::ThreadPool pool(2);
    // Lanes exist for threads that recorded events: two tasks that wait for
    // each other occupy both workers, so each worker lane records.
    std::atomic<int> started{0};
    std::vector<std::future<void>> both;
    for (int i = 0; i < 2; ++i) {
      both.push_back(pool.submit([&started] {
        const Span s("chrome/span");
        started.fetch_add(1);
        while (started.load() < 2) std::this_thread::yield();
      }));
    }
    for (auto& f : both) f.get();
    threading::parallel_for_each(pool, 0, 62, [](std::size_t) {
      const Span s("chrome/span");
    });
  }
  Timeline::global().finalize_stream();
  tlstream::write_timeline_view(dir.path);
  const std::string json = slurp(dir.view_path());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"fcma.timeline.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
  // One named lane per scheduler worker.
  EXPECT_NE(json.find("\"sched/worker0\""), std::string::npos);
  EXPECT_NE(json.find("\"sched/worker1\""), std::string::npos);
  // Complete events sorted by timestamp, with non-negative durations, and
  // exactly the events the stream holds.
  const std::vector<double> ts = extract_numbers(json, "ts");
  ASSERT_GE(ts.size(), 64u);
  EXPECT_EQ(ts.size(), tlstream::read_stream_dir(dir.path).done_events);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_LE(ts[i - 1], ts[i]);
  for (const double d : extract_numbers(json, "dur")) EXPECT_GE(d, 0.0);
}

TEST_F(TimelineTest, WriteChromeJsonCreatesTheFile) {
  const ScratchDir dir("fcma_timeline_file");
  set_stream_dir(dir.path);
  { const Span s("file/span"); }
  Timeline::global().finalize_stream();
  tlstream::write_timeline_view(dir.path);
  const std::string json = slurp(dir.view_path());
  EXPECT_EQ(json.rfind("{\n\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(json.find("\"file/span\""), std::string::npos);
  // Published through a rename: no temp file is left behind.
  EXPECT_FALSE(std::filesystem::exists(dir.view_path() + ".part"));
}

// --- exit dump ----------------------------------------------------------

TEST_F(TimelineTest, ExitDumpWritesOnceAndIsIdempotent) {
  const std::string trace_path = ::testing::TempDir() + "fcma_dump_test.json";
  { const Span s("dump/span"); }
  set_exit_dump(trace_path);
  dump_now();
  std::remove(trace_path.c_str());
  dump_now();  // already fired: must not recreate the file
  std::FILE* f = std::fopen(trace_path.c_str(), "r");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
  // Re-arming makes the next dump fire again.
  set_exit_dump(trace_path);
  dump_now();
  f = std::fopen(trace_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(trace_path.c_str());
  // Disarm so the atexit backstop does not resurrect the temp file after
  // gtest finishes.
  set_exit_dump("");
  dump_now();
}

TEST_F(TimelineTest, ExitDumpFinalizesTheStreamAndRendersItsView) {
  const ScratchDir dir("fcma_dump_stream");
  set_stream_dir(dir.path);
  { const Span s("dump/streamed"); }
  set_exit_dump("");  // no --trace file: the armed stream alone fires it
  dump_now();
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/stream.done"));
  const std::string json = slurp(dir.view_path());
  EXPECT_NE(json.find("\"dump/streamed\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  set_stream_dir("");
  set_exit_dump("");
  dump_now();
}

}  // namespace
}  // namespace fcma::trace
