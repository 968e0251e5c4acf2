// Unit tests for the structured tracing/metrics layer (common/trace.hpp,
// common/metrics.hpp): spans recorded into an armed stream and folded by
// label, nesting, concurrent counter increments from the thread pool, the
// registry's trip through the stream.done manifest, and the fcma.trace.v2
// view's JSON schema.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/timeline.hpp"
#include "common/tlstream.hpp"
#include "common/trace.hpp"
#include "threading/thread_pool.hpp"

namespace fcma::trace {
namespace {

/// Arms a per-test stream and enables tracing for one test, restoring the
/// default (off, disarmed) after, with a clean global registry and timeline
/// on both sides.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    global().reset();
    Timeline::global().reset();
    dir_ = ::testing::TempDir() + "fcma_trace_" +
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

  /// Finalizes the stream and reads it back.
  tlstream::StreamRead finish() {
    Timeline::global().finalize_stream();
    return tlstream::read_stream_dir(dir_);
  }

  /// The finalized stream's spans, folded by label.
  std::map<std::string, tlstream::SpanStats> spans() {
    return tlstream::fold_spans(finish());
  }

  std::string dir_;
};

/// Occurrences of `label` in a fold (0 when absent).
std::uint64_t count_of(const std::map<std::string, tlstream::SpanStats>& s,
                       const std::string& label) {
  const auto it = s.find(label);
  return it == s.end() ? 0 : it->second.count;
}

TEST_F(TraceTest, EnablingWithoutAStreamThrows) {
  set_enabled(false);
  set_stream_dir("");
  EXPECT_THROW(set_enabled(true), Error);
  EXPECT_FALSE(enabled());
  set_enabled(false);  // pausing needs no stream
  set_stream_dir(dir_);
  set_enabled(true);
  EXPECT_TRUE(enabled());
}

TEST_F(TraceTest, SpanAggregatesCountTotalMinMax) {
  // Known durations: 250, 750 and 500 ms.
  const std::uint64_t t0 = now_ns();
  record_interval_ns("stage", t0, t0 + 250'000'000);
  record_interval_ns("stage", t0, t0 + 750'000'000);
  record_interval_ns("stage", t0, t0 + 500'000'000);
  const tlstream::StreamRead read = finish();
  const auto folded = tlstream::fold_spans(read);
  ASSERT_EQ(folded.count("stage"), 1u);
  const tlstream::SpanStats& s = folded.at("stage");
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.total_s, 1.5);
  EXPECT_DOUBLE_EQ(s.min_s, 0.25);
  EXPECT_DOUBLE_EQ(s.max_s, 0.75);
  // The median sample (500 ms) sits alone in the bucket [2^28, 2^29) ns,
  // and interpolation at its rank lands on the bucket's top, 2^29 ns.
  EXPECT_DOUBLE_EQ(s.quantile(0.50), 0.536870912);
  // The view prints exactly these values.
  const json::Value view = json::parse(tlstream::trace_view_json(read));
  const json::Value& stage = view.at("spans").at("stage");
  EXPECT_EQ(stage.at("count").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(stage.at("total_s").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(stage.at("min_s").as_number(), 0.25);
  EXPECT_DOUBLE_EQ(stage.at("max_s").as_number(), 0.75);
  EXPECT_DOUBLE_EQ(stage.at("p50_s").as_number(), 0.536870912);
}

TEST_F(TraceTest, UnknownLabelsReadAsZero) {
  Registry reg;
  EXPECT_EQ(reg.counter("nope"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge("nope"), 0.0);
  EXPECT_EQ(count_of(spans(), "nope"), 0u);
}

TEST_F(TraceTest, ReadsOfUnknownNamesDoNotInsertThem) {
  // Documented contract: lookups never grow the registry or its snapshot
  // (a sidecar probing an optional key must not create it).
  Registry reg;
  (void)reg.counter("ghost/counter");
  (void)reg.gauge("ghost/gauge");
  (void)reg.meta("ghost/meta");
  (void)reg.roofline("ghost/roofline");
  const Metrics m = reg.snapshot();
  EXPECT_TRUE(m.counters.empty());
  EXPECT_TRUE(m.gauges.empty());
  EXPECT_TRUE(m.meta.empty());
  EXPECT_TRUE(m.roofline.empty());
}

TEST_F(TraceTest, ScopedSpanRecordsIntoRegistry) {
  { const Span span("work"); }
  const auto s = spans();
  ASSERT_EQ(count_of(s, "work"), 1u);
  EXPECT_GE(s.at("work").total_s, 0.0);
}

TEST_F(TraceTest, NestedSpansRecordHierarchicalLabels) {
  {
    const Span outer("outer");
    { const Span inner("inner"); }
    { const Span inner("inner"); }
  }
  const auto s = spans();
  EXPECT_EQ(count_of(s, "outer"), 1u);
  EXPECT_EQ(count_of(s, "outer/inner"), 2u);
  EXPECT_EQ(count_of(s, "inner"), 0u);  // never recorded unqualified
}

TEST_F(TraceTest, NestingPathUnwindsAfterScopeExit) {
  { const Span a("a"); }
  { const Span b("b"); }  // must NOT become "a/b"
  const auto s = spans();
  EXPECT_EQ(count_of(s, "a"), 1u);
  EXPECT_EQ(count_of(s, "b"), 1u);
  EXPECT_EQ(count_of(s, "a/b"), 0u);
}

TEST_F(TraceTest, ThreeLevelNesting) {
  {
    const Span a("a");
    const Span b("b");
    const Span c("c");
  }
  const auto s = spans();
  EXPECT_EQ(count_of(s, "a/b/c"), 1u);
  EXPECT_EQ(count_of(s, "a/b"), 1u);
  EXPECT_EQ(count_of(s, "a"), 1u);
}

TEST_F(TraceTest, SpansOnOtherThreadsRootTheirOwnHierarchy) {
  {
    const Span outer("outer");
    std::thread t([] { const Span s("thread_span"); });
    t.join();
  }
  const auto s = spans();  // the exited thread's lane outlives it
  EXPECT_EQ(count_of(s, "thread_span"), 1u);
  EXPECT_EQ(count_of(s, "outer/thread_span"), 0u);
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  set_enabled(false);
  { const Span span("work"); }
  record_interval_ns("manual", 0, 1'000'000'000);
  count("ticks");
  gauge_set("depth", 3.0);
  const auto s = spans();
  EXPECT_EQ(count_of(s, "work"), 0u);
  EXPECT_EQ(count_of(s, "manual"), 0u);
  EXPECT_EQ(global().counter("ticks"), 0);
  EXPECT_DOUBLE_EQ(global().gauge("depth"), 0.0);
}

TEST_F(TraceTest, CountersAccumulateConcurrentlyFromParallelFor) {
  threading::ThreadPool pool(4);
  threading::parallel_for_each(pool, 0, 1000, [](std::size_t i) {
    count("test/hits");
    count("test/weighted", static_cast<std::int64_t>(i));
  });
  EXPECT_EQ(global().counter("test/hits"), 1000);
  EXPECT_EQ(global().counter("test/weighted"), 999 * 1000 / 2);
}

TEST_F(TraceTest, ConcurrentSpansOnOneLabelAggregateAllRecords) {
  {
    threading::ThreadPool pool(4);
    threading::parallel_for_each(pool, 0, 200, [](std::size_t) {
      const Span span("test/span");
    });
  }
  EXPECT_EQ(count_of(spans(), "test/span"), 200u);
}

TEST_F(TraceTest, GaugeMaxKeepsHighWaterMark) {
  Registry reg;
  reg.gauge_max("depth", 3.0);
  reg.gauge_max("depth", 9.0);
  reg.gauge_max("depth", 5.0);
  EXPECT_DOUBLE_EQ(reg.gauge("depth"), 9.0);
  reg.gauge_set("depth", 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("depth"), 1.0);
}

TEST_F(TraceTest, SchedulerActivityIsTraced) {
  {
    threading::ThreadPool pool(2);
    for (int loop = 0; loop < 50; ++loop) {
      // Two bodies that wait for each other: the helper joins every loop.
      std::latch both(2);
      threading::parallel_for_each(pool, 0, 2, [&both](std::size_t) {
        both.arrive_and_wait();
      });
    }
  }
  // The helper records one busy interval per loop it joined; the caller's
  // time lies in its own spans, so lane 0 records none.
  const auto s = spans();
  EXPECT_EQ(count_of(s, "sched/worker1/busy"), 50u);
  EXPECT_EQ(count_of(s, "sched/worker0/busy"), 0u);
  // The work-stealing dispatch counters are gone.
  EXPECT_EQ(global().counter("sched/tasks_submitted"), 0);
  EXPECT_EQ(global().counter("sched/steals"), 0);
  EXPECT_EQ(global().gauge("sched/max_queue_depth"), 0.0);
}

TEST_F(TraceTest, ResetDropsEverything) {
  Registry reg;
  reg.count("c", 5);
  reg.gauge_set("g", 2.0);
  reg.meta_set("m", "v");
  reg.roofline_set("r", RooflineStats{});
  reg.reset();
  EXPECT_EQ(reg.counter("c"), 0);
  const Metrics m = reg.snapshot();
  EXPECT_TRUE(m.counters.empty());
  EXPECT_TRUE(m.gauges.empty());
  EXPECT_TRUE(m.meta.empty());
  EXPECT_TRUE(m.roofline.empty());
}

// Counters, gauges, metadata and rooflines reach the views through the
// stream.done manifest: the read-back equals the registry exactly.
TEST_F(TraceTest, RegistryTravelsInTheManifest) {
  count("comm/messages", 7);
  count("balance", -3);
  gauge_set("queue_depth", 0.125);
  meta_set("simd/isa", "scalar");
  global().roofline_set("task/svm",
                        RooflineStats{1.5, 2.25, 0.5, 37.5, "memory"});
  const tlstream::StreamRead read = finish();
  ASSERT_TRUE(read.done);
  EXPECT_TRUE(read.warnings.empty());
  EXPECT_EQ(read.metrics.counters, global().snapshot().counters);
  EXPECT_EQ(read.metrics.counters.at("balance"), -3);
  EXPECT_EQ(read.metrics.gauges.at("queue_depth"), 0.125);
  EXPECT_EQ(read.metrics.meta.at("simd/isa"), "scalar");
  const RooflineStats& r = read.metrics.roofline.at("task/svm");
  EXPECT_EQ(r.modeled_s, 1.5);
  EXPECT_EQ(r.gflops, 2.25);
  EXPECT_EQ(r.ai_flops_per_byte, 0.5);
  EXPECT_EQ(r.pct_roofline, 37.5);
  EXPECT_EQ(r.bound, "memory");
}

// --- fcma.trace.v2 view schema -------------------------------------------

/// Minimal structural validator: balanced braces outside strings, and keys
/// quoted.  Catches the classes of export bug (trailing commas aside) that
/// break downstream tooling; json::parse below checks the rest.
bool braces_balanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) { escaped = false; continue; }
    if (c == '\\') { escaped = true; continue; }
    if (c == '"') { in_string = !in_string; continue; }
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}' && --depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST_F(TraceTest, JsonCarriesSchemaAndAllThreeFamilies) {
  const std::uint64_t t0 = now_ns();
  record_interval_ns("pipeline/svm", t0, t0 + 500'000'000);
  count("comm/messages", 7);
  gauge_set("queue_depth", 4.0);
  const std::string json = tlstream::trace_view_json(finish());
  EXPECT_NE(json.find("\"schema\": \"fcma.trace.v2\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"roofline\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"pipeline/svm\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"comm/messages\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\": 4"), std::string::npos);
  EXPECT_TRUE(braces_balanced(json));
  EXPECT_NO_THROW((void)json::parse(json));
}

TEST_F(TraceTest, EmptyRegistryStillExportsValidSchema) {
  const std::string json = tlstream::trace_view_json(tlstream::StreamRead{});
  EXPECT_NE(json.find("\"schema\": \"fcma.trace.v2\""), std::string::npos);
  EXPECT_TRUE(braces_balanced(json));
  EXPECT_NO_THROW((void)json::parse(json));
}

TEST_F(TraceTest, JsonEscapesLabelText) {
  const std::string weird = "weird \"label\"\nwith\\controls";
  count(weird, 1);
  record_interval_ns(weird, 0, 1000);
  const std::string json = tlstream::trace_view_json(finish());
  EXPECT_TRUE(braces_balanced(json));
  EXPECT_NE(json.find("\\\"label\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\\\controls"), std::string::npos);
  const json::Value doc = json::parse(json);
  EXPECT_EQ(doc.at("counters").at(weird).as_number(), 1.0);
  EXPECT_EQ(doc.at("spans").at(weird).at("count").as_number(), 1.0);
}

TEST_F(TraceTest, SpanStatsRoundTripThroughJsonFields) {
  const std::uint64_t t0 = now_ns();
  record_interval_ns("s", t0, t0 + 125'000'000);
  record_interval_ns("s", t0, t0 + 375'000'000);
  const tlstream::StreamRead read = finish();
  const std::string json = tlstream::trace_view_json(read);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"total_s\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"min_s\": 0.125"), std::string::npos);
  EXPECT_NE(json.find("\"max_s\": 0.375"), std::string::npos);
  // v2 additions: every span carries its percentile estimates, clamped to
  // the recorded range.
  EXPECT_NE(json.find("\"p50_s\": "), std::string::npos);
  EXPECT_NE(json.find("\"p95_s\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99_s\": "), std::string::npos);
  const double p50 = tlstream::fold_spans(read).at("s").quantile(0.5);
  EXPECT_GE(p50, 0.125);
  EXPECT_LE(p50, 0.375);
}

TEST_F(TraceTest, WriteJsonCreatesTheFile) {
  count("c", 1);
  Timeline::global().finalize_stream();
  tlstream::write_views(dir_);
  const std::string path = dir_ + "/" + std::string(tlstream::kTraceFile);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_GT(n, 0u);
  EXPECT_NE(std::string(buf).find("fcma.trace.v2"), std::string::npos);
  // Published through a rename: no temp file is left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".part"));
}

}  // namespace
}  // namespace fcma::trace
