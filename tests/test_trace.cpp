// Unit tests for the structured tracing/metrics layer (common/trace.hpp,
// common/metrics.hpp): span aggregation and nesting, concurrent counter
// increments from the thread pool, and the JSON export schema.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/timeline.hpp"
#include "common/trace.hpp"
#include "threading/thread_pool.hpp"

namespace fcma::trace {
namespace {

/// Enables tracing for one test and restores the default (off) after, with
/// a clean global registry and timeline on both sides (global-bound spans
/// land in per-thread timeline shards until flush()).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    global().reset();
    Timeline::global().reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    global().reset();
    Timeline::global().reset();
  }
};

TEST_F(TraceTest, SpanAggregatesCountTotalMinMax) {
  Registry reg;
  reg.record_span("stage", 0.25);
  reg.record_span("stage", 0.75);
  reg.record_span("stage", 0.50);
  const SpanStats s = reg.span("stage");
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.total_s, 1.5);
  EXPECT_DOUBLE_EQ(s.min_s, 0.25);
  EXPECT_DOUBLE_EQ(s.max_s, 0.75);
}

TEST_F(TraceTest, UnknownLabelsReadAsZero) {
  Registry reg;
  EXPECT_EQ(reg.span("nope").count, 0u);
  EXPECT_EQ(reg.counter("nope"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge("nope"), 0.0);
}

TEST_F(TraceTest, ReadsOfUnknownNamesDoNotInsertThem) {
  // Documented contract: lookups never grow the registry or change its
  // exported JSON (a sidecar probing an optional key must not create it).
  Registry reg;
  (void)reg.counter("ghost/counter");
  (void)reg.gauge("ghost/gauge");
  (void)reg.span("ghost/span");
  (void)reg.span_quantile("ghost/span", 0.5);
  (void)reg.meta("ghost/meta");
  (void)reg.roofline("ghost/roofline");
  EXPECT_TRUE(reg.span_labels().empty());
  EXPECT_EQ(reg.to_json().find("ghost"), std::string::npos);
}

TEST_F(TraceTest, ScopedSpanRecordsIntoRegistry) {
  { const Span span("work"); }
  flush();
  const SpanStats s = global().span("work");
  EXPECT_EQ(s.count, 1u);
  EXPECT_GE(s.total_s, 0.0);
}

TEST_F(TraceTest, NestedSpansRecordHierarchicalLabels) {
  {
    const Span outer("outer");
    { const Span inner("inner"); }
    { const Span inner("inner"); }
  }
  flush();
  EXPECT_EQ(global().span("outer").count, 1u);
  EXPECT_EQ(global().span("outer/inner").count, 2u);
  EXPECT_EQ(global().span("inner").count, 0u);  // never recorded unqualified
}

TEST_F(TraceTest, NestingPathUnwindsAfterScopeExit) {
  { const Span a("a"); }
  { const Span b("b"); }  // must NOT become "a/b"
  flush();
  EXPECT_EQ(global().span("a").count, 1u);
  EXPECT_EQ(global().span("b").count, 1u);
  EXPECT_EQ(global().span("a/b").count, 0u);
}

TEST_F(TraceTest, ThreeLevelNesting) {
  {
    const Span a("a");
    const Span b("b");
    const Span c("c");
  }
  flush();
  EXPECT_EQ(global().span("a/b/c").count, 1u);
  EXPECT_EQ(global().span("a/b").count, 1u);
  EXPECT_EQ(global().span("a").count, 1u);
}

TEST_F(TraceTest, SpansOnOtherThreadsRootTheirOwnHierarchy) {
  {
    const Span outer("outer");
    std::thread t([] { const Span s("thread_span"); });
    t.join();
  }
  flush();  // the exited thread's shard outlives it until drained
  EXPECT_EQ(global().span("thread_span").count, 1u);
  EXPECT_EQ(global().span("outer/thread_span").count, 0u);
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  set_enabled(false);
  { const Span span("work"); }
  record_span("manual", 1.0);
  count("ticks");
  gauge_set("depth", 3.0);
  flush();
  EXPECT_EQ(global().span("work").count, 0u);
  EXPECT_EQ(global().span("manual").count, 0u);
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
  threading::ThreadPool pool(4);
  threading::parallel_for_each(pool, 0, 200, [](std::size_t) {
    const Span span("test/span");
  });
  flush();  // global-bound spans live in per-thread shards until flushed
  EXPECT_EQ(global().span("test/span").count, 200u);
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
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 50; ++i) {
      futures.push_back(pool.submit([] {}));
    }
    for (auto& f : futures) f.get();
  }
  flush();
  EXPECT_EQ(global().counter("sched/tasks_submitted"), 50);
  EXPECT_EQ(global().counter("sched/tasks_executed"), 50);
  // External submits land on the shared inbox; workers take all of them
  // from there (the submitting thread blocks on futures, it doesn't help).
  EXPECT_EQ(global().counter("sched/inbox_hits"), 50);
  EXPECT_GE(global().gauge("sched/max_queue_depth"), 1.0);
  // Per-worker busy spans cover every executed task.
  std::uint64_t busy = 0;
  for (const auto& label : global().span_labels()) {
    if (label.rfind("sched/worker", 0) == 0) {
      busy += global().span(label).count;
    }
  }
  EXPECT_EQ(busy, 50u);
}

TEST_F(TraceTest, StealAndLocalHitCountersExistEvenWhenZero) {
  // Bench sidecars extract sched/steals and sched/local_hits; the scheduler
  // seeds both keys at construction so they are present even for runs where
  // nothing was stolen (e.g. a 1-worker pool).
  { threading::ThreadPool pool(1); }
  const std::string json = global().to_json();
  EXPECT_NE(json.find("\"sched/steals\""), std::string::npos);
  EXPECT_NE(json.find("\"sched/local_hits\""), std::string::npos);
}

TEST_F(TraceTest, ResetDropsEverything) {
  Registry reg;
  reg.record_span("s", 1.0);
  reg.count("c", 5);
  reg.gauge_set("g", 2.0);
  reg.reset();
  EXPECT_EQ(reg.span("s").count, 0u);
  EXPECT_EQ(reg.counter("c"), 0);
  EXPECT_TRUE(reg.span_labels().empty());
}

// --- JSON export schema -------------------------------------------------

/// Minimal structural validator: balanced braces outside strings, and keys
/// quoted.  Catches the classes of export bug (trailing commas aside) that
/// break downstream tooling without pulling in a JSON dependency.
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
  Registry reg;
  reg.record_span("pipeline/svm", 0.5);
  reg.count("comm/messages", 7);
  reg.gauge_set("queue_depth", 4.0);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"schema\": \"fcma.trace.v2\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"roofline\""), std::string::npos);
  EXPECT_NE(json.find("\"pipeline/svm\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"comm/messages\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\": 4"), std::string::npos);
  EXPECT_TRUE(braces_balanced(json));
}

TEST_F(TraceTest, EmptyRegistryStillExportsValidSchema) {
  const Registry reg;
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"schema\": \"fcma.trace.v2\""), std::string::npos);
  EXPECT_TRUE(braces_balanced(json));
}

TEST_F(TraceTest, JsonEscapesLabelText) {
  Registry reg;
  reg.count("weird \"label\"\nwith\\controls", 1);
  const std::string json = reg.to_json();
  EXPECT_TRUE(braces_balanced(json));
  EXPECT_NE(json.find("\\\"label\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\\\controls"), std::string::npos);
}

TEST_F(TraceTest, SpanStatsRoundTripThroughJsonFields) {
  Registry reg;
  reg.record_span("s", 0.125);
  reg.record_span("s", 0.375);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"total_s\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"min_s\": 0.125"), std::string::npos);
  EXPECT_NE(json.find("\"max_s\": 0.375"), std::string::npos);
  // v2 additions: every span carries its percentile estimates, clamped to
  // the recorded range.
  EXPECT_NE(json.find("\"p50_s\": "), std::string::npos);
  EXPECT_NE(json.find("\"p95_s\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99_s\": "), std::string::npos);
  const double p50 = reg.span_quantile("s", 0.5);
  EXPECT_GE(p50, 0.125);
  EXPECT_LE(p50, 0.375);
}

TEST_F(TraceTest, WriteJsonCreatesTheFile) {
  Registry reg;
  reg.count("c", 1);
  const std::string path = ::testing::TempDir() + "fcma_trace_test.json";
  reg.write_json(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_GT(n, 0u);
  EXPECT_NE(std::string(buf).find("fcma.trace.v2"), std::string::npos);
}

}  // namespace
}  // namespace fcma::trace
