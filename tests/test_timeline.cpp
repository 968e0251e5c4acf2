// Unit + stress tests for the timeline profiler substrate: the log-bucketed
// latency histogram (common/histogram.hpp), the per-thread sinks
// (common/timeline.hpp), the views rendered from the event stream
// (DIR/timeline.json, DIR/trace.json), and the trace-layer plumbing that
// routes spans through them (record_interval, exit dump).  The
// concurrent-stress cases here also run under TSan via ci_tsan.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
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

/// Arms a fresh per-test stream directory and enables tracing; removes
/// both after.
class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    global().reset();
    Timeline::global().reset();
    dir_ = ::testing::TempDir() + "fcma_timeline_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    set_stream_dir(dir_);
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    set_stream_dir("");
    global().reset();
    Timeline::global().reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string view_path() const {
    return dir_ + "/" + std::string(tlstream::kTimelineFile);
  }
  [[nodiscard]] std::string trace_path() const {
    return dir_ + "/" + std::string(tlstream::kTraceFile);
  }
  /// The finalized stream's spans, folded by label.
  std::map<std::string, tlstream::SpanStats> spans() {
    Timeline::global().finalize_stream();
    return tlstream::fold_spans(tlstream::read_stream_dir(dir_));
  }

  std::string dir_;
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

// --- span quantiles -----------------------------------------------------

TEST_F(TimelineTest, RegistryQuantilesClampToRecordedRange) {
  const std::uint64_t t0 = now_ns();
  for (const std::uint64_t ms : {10, 20, 30}) {
    record_interval_ns("s", t0, t0 + ms * 1'000'000);
  }
  const auto folded = spans();
  ASSERT_EQ(folded.count("s"), 1u);
  const tlstream::SpanStats& s = folded.at("s");
  EXPECT_DOUBLE_EQ(s.min_s, 0.010);
  EXPECT_DOUBLE_EQ(s.max_s, 0.030);
  for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    const double q = s.quantile(p);
    EXPECT_GE(q, s.min_s);
    EXPECT_LE(q, s.max_s);
  }
  EXPECT_EQ(folded.count("missing"), 0u);
  EXPECT_DOUBLE_EQ(tlstream::SpanStats{}.quantile(0.5), 0.0);
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

// --- concurrent stress (runs under TSan via ci_tsan.sh) -----------------

TEST_F(TimelineTest, ConcurrentSpanAndHistogramRecordingMergesExactly) {
  constexpr std::size_t kIterations = 2000;
  {
    threading::ThreadPool pool(4);
    // The first four indices wait for each other, so all four lanes record
    // at once (a lane holding one of them cannot claim another).
    std::latch all_lanes(4);
    threading::parallel_for_each(pool, 0, kIterations, [&](std::size_t i) {
      // Recorded before the Span opens: record_interval_ns() qualifies its
      // label with the thread's current span path.
      const std::uint64_t t0 = now_ns();
      record_interval_ns("stress/manual", t0, t0 + 1000 * (i + 1));
      const Span span("stress/span");
      if (i < 4) all_lanes.arrive_and_wait();
    });
  }
  const auto folded = spans();
  ASSERT_EQ(folded.count("stress/span"), 1u);
  ASSERT_EQ(folded.count("stress/manual"), 1u);
  const tlstream::SpanStats& manual = folded.at("stress/manual");
  EXPECT_EQ(folded.at("stress/span").count, kIterations);
  EXPECT_EQ(manual.count, kIterations);
  // The histogram folded with the stats: quantiles see all samples and
  // stay inside the exact [min, max].
  const double p95 = manual.quantile(0.95);
  EXPECT_GE(p95, manual.min_s);
  EXPECT_LE(p95, manual.max_s);
  EXPECT_DOUBLE_EQ(manual.min_s, 1e-6);
  EXPECT_DOUBLE_EQ(manual.max_s, 1e-6 * kIterations);
  // Each of the three helpers joined the loop and recorded one busy
  // interval; the caller (lane 0) records none.
  std::uint64_t busy = 0;
  for (const auto& [label, s] : folded) {
    if (label.rfind("sched/worker", 0) == 0) busy += s.count;
  }
  EXPECT_EQ(busy, 3u);
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
  {
    threading::ThreadPool pool(3);
    // Lanes exist for threads that recorded events: three bodies that wait
    // for each other occupy the caller and both helpers, so each helper
    // records its busy interval and a span.
    std::latch all_started(3);
    threading::parallel_for_each(pool, 0, 3, [&all_started](std::size_t) {
      const Span s("chrome/span");
      all_started.arrive_and_wait();
    });
    threading::parallel_for_each(pool, 0, 61, [](std::size_t) {
      const Span s("chrome/span");
    });
  }
  Timeline::global().finalize_stream();
  tlstream::write_views(dir_);
  const std::string json = slurp(view_path());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"fcma.timeline.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
  // One named lane per helper thread; the caller is lane 0.
  EXPECT_NE(json.find("\"sched/worker1\""), std::string::npos);
  EXPECT_NE(json.find("\"sched/worker2\""), std::string::npos);
  EXPECT_EQ(json.find("\"sched/worker0"), std::string::npos);
  // Complete events sorted by timestamp, with non-negative durations, and
  // exactly the events the stream holds.
  const std::vector<double> ts = extract_numbers(json, "ts");
  ASSERT_GE(ts.size(), 64u);
  EXPECT_EQ(ts.size(), tlstream::read_stream_dir(dir_).done_events);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_LE(ts[i - 1], ts[i]);
  for (const double d : extract_numbers(json, "dur")) EXPECT_GE(d, 0.0);
}

TEST_F(TimelineTest, WriteChromeJsonCreatesTheFile) {
  { const Span s("file/span"); }
  Timeline::global().finalize_stream();
  tlstream::write_views(dir_);
  const std::string json = slurp(view_path());
  EXPECT_EQ(json.rfind("{\n\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(json.find("\"file/span\""), std::string::npos);
  // The trace view comes from the same read.
  EXPECT_NE(slurp(trace_path()).find("\"file/span\": {\"count\": 1"),
            std::string::npos);
  // Published through a rename: no temp file is left behind.
  EXPECT_FALSE(std::filesystem::exists(view_path() + ".part"));
  EXPECT_FALSE(std::filesystem::exists(trace_path() + ".part"));
}

// --- exit dump ----------------------------------------------------------

TEST_F(TimelineTest, ExitDumpWritesOnceAndIsIdempotent) {
  { const Span s("dump/span"); }
  set_exit_dump();
  dump_now();
  ASSERT_TRUE(std::filesystem::exists(trace_path()));
  std::filesystem::remove(trace_path());
  dump_now();  // already fired: must not recreate the file
  EXPECT_FALSE(std::filesystem::exists(trace_path()));
  // Re-arming makes the next dump fire again.
  set_exit_dump();
  dump_now();
  EXPECT_TRUE(std::filesystem::exists(trace_path()));
}

TEST_F(TimelineTest, ExitDumpFinalizesTheStreamAndRendersItsView) {
  { const Span s("dump/streamed"); }
  count("dump/counter", 3);
  set_exit_dump();
  dump_now();
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/stream.done"));
  const std::string json = slurp(view_path());
  EXPECT_NE(json.find("\"dump/streamed\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  const std::string trace = slurp(trace_path());
  EXPECT_NE(trace.find("\"dump/streamed\": {\"count\": 1"),
            std::string::npos);
  EXPECT_NE(trace.find("\"dump/counter\": 3"), std::string::npos);
}

}  // namespace
}  // namespace fcma::trace
