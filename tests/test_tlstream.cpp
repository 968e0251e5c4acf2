// Tests for the continuous-profiling stream (common/tlstream.hpp) and the
// PR 9 trace-correlation layer built on it: segment round-trips, rotation,
// the torn-tail crash-safety contract, the disk budget, writes that fail
// on a full disk, the reader's rejection of malformed fields and manifest
// sections, the Chrome view rendered from a read, the
// SLO rule grammar, ring-overflow spill exactness (dropped_events stays 0
// while streaming), cross-rank span-context stitching through the cluster
// comm, and the follow-reader-vs-writers race (runs under TSan via
// ci_tsan.sh; the reader cases also under ASan+UBSan via ci_asan.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/comm.hpp"
#include "cluster/driver.hpp"
#include "cluster/fault.hpp"
#include "common/error.hpp"
#include "common/timeline.hpp"
#include "common/tlstream.hpp"
#include "common/trace.hpp"
#include "fcma/pipeline.hpp"
#include "fcma/task.hpp"
#include "fmri/presets.hpp"
#include "fmri/synthetic.hpp"
#include "threading/thread_pool.hpp"

namespace fcma::trace {
namespace {

namespace tls = tlstream;

/// Unique per-test stream directory, removed on scope exit.
struct StreamDir {
  std::string path;
  explicit StreamDir(const std::string& name)
      : path(::testing::TempDir() + name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~StreamDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// --- SegmentWriter / reader round trips ---------------------------------

tls::StreamConfig test_config(const std::string& dir,
                              std::uint64_t rotate = 1ull << 20,
                              std::uint64_t budget = 256ull << 20) {
  tls::StreamConfig config;
  config.dir = dir;
  config.rotate_bytes = rotate;
  config.budget_bytes = budget;
  return config;
}

TEST(SegmentWriter, RoundTripsHeaderAndEventsThroughTheReader) {
  const StreamDir dir("tls_roundtrip");
  const auto used = std::make_shared<std::atomic<std::uint64_t>>(0);
  {
    tls::SegmentWriter w(test_config(dir.path), used, 3, "cluster/worker3",
                         0xABCDEF0123456789ull);
    EXPECT_TRUE(w.append({"alpha/one", 100, 250, 7, 3}));
    EXPECT_TRUE(w.append({"weird\"label", 300, 300, 8, 7}));
    EXPECT_TRUE(w.append({"alpha/two", 400, 900, 0, 0}));
    EXPECT_EQ(w.events_written(), 3u);
    w.finalize();
  }
  const tls::StreamRead read = tls::read_stream_dir(dir.path);
  EXPECT_TRUE(read.warnings.empty());
  EXPECT_EQ(read.segments, 1u);
  EXPECT_FALSE(read.done);
  EXPECT_EQ(read.trace_id, 0xABCDEF0123456789ull);
  ASSERT_EQ(read.events.size(), 3u);
  const tls::StreamEvent& ev = read.events[0];
  EXPECT_EQ(ev.lane, "cluster/worker3");
  EXPECT_EQ(ev.lane_id, 3u);
  EXPECT_EQ(ev.label, "alpha/one");
  EXPECT_EQ(ev.start_ns, 100u);
  EXPECT_EQ(ev.end_ns, 250u);
  EXPECT_EQ(ev.span, 7u);
  EXPECT_EQ(ev.parent, 3u);
  EXPECT_EQ(ev.trace_id, 0xABCDEF0123456789ull);
  EXPECT_EQ(read.events[1].label, "weird\"label");  // JSON escape round-trip
  EXPECT_EQ(read.events[1].end_ns, read.events[1].start_ns);
}

TEST(SegmentWriter, RotationSplitsSegmentsAndReaderPreservesLaneOrder) {
  const StreamDir dir("tls_rotate");
  const auto used = std::make_shared<std::atomic<std::uint64_t>>(0);
  {
    tls::SegmentWriter w(test_config(dir.path, /*rotate=*/512), used, 0,
                         "main", 1);
    for (std::uint64_t i = 0; i < 50; ++i) {
      EXPECT_TRUE(w.append({"rot/span", i * 10, i * 10 + 5, i + 1, 0}));
    }
    w.finalize();
  }
  const tls::StreamRead read = tls::read_stream_dir(dir.path);
  EXPECT_TRUE(read.warnings.empty());
  EXPECT_GE(read.segments, 2u);  // 512-byte rotation: several segments
  ASSERT_EQ(read.events.size(), 50u);
  // (lane_id, seq, file order) merge preserves the append order exactly.
  for (std::size_t i = 0; i < read.events.size(); ++i) {
    EXPECT_EQ(read.events[i].start_ns, i * 10) << i;
    if (i > 0) {
      EXPECT_GE(read.events[i].seq, read.events[i - 1].seq);
    }
  }
}

TEST(SegmentWriter, TornTailIsSkippedAsInFlightNotCorruption) {
  const StreamDir dir("tls_torn");
  const auto used = std::make_shared<std::atomic<std::uint64_t>>(0);
  tls::SegmentWriter w(test_config(dir.path), used, 0, "main", 1);
  EXPECT_TRUE(w.append({"torn/full", 10, 20, 1, 0}));
  EXPECT_TRUE(w.append({"torn/full", 30, 40, 2, 0}));
  w.flush();  // segment stays a .part — a crash before rotation
  // Simulate a crash mid-append: a final line with no trailing newline.
  {
    std::FILE* f = std::fopen((dir.path + "/lane0-0.tls.part").c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"ts\": 50, \"dur\": 5, \"label\": \"torn/ha", f);
    std::fclose(f);
  }
  const tls::StreamRead read = tls::read_stream_dir(dir.path);
  EXPECT_TRUE(read.warnings.empty());  // a torn tail is not a warning
  EXPECT_EQ(read.events.size(), 2u);   // every complete line survives
}

TEST(SegmentWriter, MalformedInteriorLineWarnsButKeepsTheRest) {
  const StreamDir dir("tls_corrupt");
  const auto used = std::make_shared<std::atomic<std::uint64_t>>(0);
  {
    tls::SegmentWriter w(test_config(dir.path), used, 0, "main", 1);
    EXPECT_TRUE(w.append({"ok/one", 10, 20, 1, 0}));
    w.finalize();
  }
  // Corrupt the finalized segment in place: garbage between valid lines.
  {
    std::FILE* f = std::fopen((dir.path + "/lane0-0.tls").c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not json\n", f);
    std::fputs(
        "{\"ts\": 30, \"dur\": 10, \"label\": \"ok/two\", \"span\": 2, "
        "\"parent\": 0, \"trace\": \"0000000000000001\"}\n",
        f);
    std::fclose(f);
  }
  const tls::StreamRead read = tls::read_stream_dir(dir.path);
  ASSERT_EQ(read.warnings.size(), 1u);
  EXPECT_NE(read.warnings[0].find("malformed"), std::string::npos);
  EXPECT_EQ(read.events.size(), 2u);  // the valid lines all survive
}

TEST(SegmentWriter, DiskBudgetRefusesAppendsOnceExhausted) {
  const StreamDir dir("tls_budget");
  const auto used = std::make_shared<std::atomic<std::uint64_t>>(0);
  tls::SegmentWriter w(test_config(dir.path, 1ull << 20, /*budget=*/600),
                       used, 0, "main", 1);
  std::size_t accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (w.append({"budget/span", 10, 20, 1, 0})) ++accepted;
  }
  EXPECT_GT(accepted, 0u);    // the budget admits a few events...
  EXPECT_LT(accepted, 100u);  // ...then refuses, visibly, forever
  EXPECT_FALSE(w.append({"budget/span", 10, 20, 1, 0}));
  EXPECT_EQ(w.events_written(), accepted);
  EXPECT_LE(used->load(), 600u);
}

// A flush that the disk refuses loses every event since the last good
// flush: the writer must say so instead of counting them as written.
TEST(SegmentWriter, FailedFlushCountsTheUnflushedEventsAsLost) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const StreamDir dir("tls_full_segment");
  std::filesystem::create_symlink("/dev/full", dir.path + "/lane0-0.tls.part");
  const auto used = std::make_shared<std::atomic<std::uint64_t>>(0);
  tls::SegmentWriter w(test_config(dir.path), used, 0, "main", 1);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(w.append({"full/span", i, i + 1, i + 1, 0}));  // buffered
  }
  EXPECT_EQ(w.events_written(), 10u);
  w.flush();  // ENOSPC
  EXPECT_EQ(w.events_written(), 0u);
  EXPECT_EQ(w.events_lost(), 10u);
  EXPECT_FALSE(w.append({"full/span", 20, 21, 21, 0}));  // failed for good
  w.finalize();
  EXPECT_EQ(w.events_lost(), 10u);
}

TEST(StreamManifest, DoneManifestRoundTripsTotals) {
  const StreamDir dir("tls_done");
  Metrics metrics;
  metrics.counters["io/bytes_mapped"] = 1ll << 40;
  metrics.counters["delta"] = -7;
  metrics.gauges["io/stall_s"] = 0.25;
  metrics.meta["simd/isa"] = "avx2";
  metrics.roofline["task"] = RooflineStats{1.0, 2.0, 0.5, 12.5, "compute"};
  tls::write_done_manifest(dir.path, 0x42, 1234, 5, 3, metrics);
  const tls::StreamRead read = tls::read_stream_dir(dir.path);
  EXPECT_TRUE(read.done);
  EXPECT_TRUE(read.warnings.empty());
  EXPECT_EQ(read.done_events, 1234u);
  EXPECT_EQ(read.done_dropped, 5u);
  EXPECT_EQ(read.trace_id, 0x42u);
  EXPECT_EQ(read.metrics.counters, metrics.counters);
  EXPECT_EQ(read.metrics.gauges, metrics.gauges);
  EXPECT_EQ(read.metrics.meta, metrics.meta);
  ASSERT_EQ(read.metrics.roofline.count("task"), 1u);
  EXPECT_EQ(read.metrics.roofline.at("task").pct_roofline, 12.5);
  EXPECT_EQ(read.metrics.roofline.at("task").bound, "compute");
}

// The manifest's close is where a full disk reports: publishing must throw
// rather than rename a file that never got its bytes.
TEST(StreamManifest, PublishToAFullDiskThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const StreamDir dir("tls_full_manifest");
  std::filesystem::create_symlink("/dev/full", dir.path + "/stream.done.part");
  EXPECT_THROW(tls::write_done_manifest(dir.path, 0x42, 1, 0, 1, Metrics{}),
               Error);
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/stream.done"));
}

TEST(StreamReader, EmptyDirIsEmptyReadAndMissingDirThrows) {
  const StreamDir dir("tls_empty");
  const tls::StreamRead read = tls::read_stream_dir(dir.path);
  EXPECT_TRUE(read.events.empty());
  EXPECT_FALSE(read.done);
  EXPECT_EQ(read.segments, 0u);
  EXPECT_THROW((void)tls::read_stream_dir(dir.path + "/missing"), Error);
}

/// Writes `lines` (each newline-terminated) as segment `name` under `dir`.
void write_segment(const std::string& dir, const std::string& name,
                   const std::vector<std::string>& lines) {
  std::FILE* f = std::fopen((dir + "/" + name).c_str(), "w");
  ASSERT_NE(f, nullptr);
  for (const std::string& line : lines) {
    std::fputs(line.c_str(), f);
    std::fputc('\n', f);
  }
  std::fclose(f);
}

std::string header_line(const std::string& lane_id, const std::string& trace) {
  return "{\"schema\": \"fcma.tlstream.v1\", \"lane\": \"main\", "
         "\"lane_id\": " + lane_id + ", \"seq\": 0, \"trace\": \"" + trace +
         "\"}";
}

std::string event_line(const std::string& ts, const std::string& dur,
                       const std::string& span, const std::string& trace) {
  return "{\"ts\": " + ts + ", \"dur\": " + dur +
         ", \"label\": \"x\", \"span\": " + span +
         ", \"parent\": 0, \"trace\": \"" + trace + "\"}";
}

// Every integer field is read strictly: negative, fractional, huge or
// overflowing values and malformed trace ids become warnings (the event
// line or the whole segment is skipped), never a wrapped number.
TEST(StreamReader, RejectsOutOfRangeFieldsAndBadTraceIds) {
  const StreamDir dir("tls_reader_strict");
  const std::string ok_trace = "00000000000000aa";
  // Bad headers: each segment is skipped whole.
  write_segment(dir.path, "lane1-0.tls", {header_line("-3", ok_trace),
                                          event_line("1", "1", "1", ok_trace)});
  write_segment(dir.path, "lane2-0.tls", {header_line("1e300", ok_trace),
                                          event_line("1", "1", "1", ok_trace)});
  write_segment(dir.path, "lane3-0.tls", {header_line("3", "zz"),
                                          event_line("1", "1", "1", ok_trace)});
  write_segment(dir.path, "lane4-0.tls", {"{\"schema\": \"nope\"}"});
  // A good header whose bad event lines are skipped one by one.
  write_segment(dir.path, "lane5-0.tls",
                {header_line("5", ok_trace),
                 event_line("10", "5", "1", ok_trace),          // kept
                 event_line("-1", "5", "2", ok_trace),          // ts < 0
                 event_line("10", "2.5", "3", ok_trace),        // fractional
                 event_line("10", "1e30", "4", ok_trace),       // > 2^64
                 event_line("18446744073709549568", "4096", "5",
                            ok_trace),                          // ts+dur wraps
                 event_line("10", "5", "-6", ok_trace),         // span < 0
                 event_line("10", "5", "7", "zz"),              // trace id
                 event_line("10", "5", "8", "00000000000000aa0"),  // 17 digits
                 event_line("20", "5", "9", ok_trace)});        // kept
  const tls::StreamRead read = tls::read_stream_dir(dir.path);
  EXPECT_EQ(read.segments, 1u);
  ASSERT_EQ(read.events.size(), 2u);
  EXPECT_EQ(read.events[0].span, 1u);
  EXPECT_EQ(read.events[1].span, 9u);
  EXPECT_EQ(read.trace_id, 0xAAu);
  ASSERT_EQ(read.lanes.size(), 1u);
  EXPECT_EQ(read.lanes.at(5), "main");
  std::size_t bad_headers = 0;
  std::size_t bad_events = 0;
  for (const std::string& w : read.warnings) {
    if (w.find("bad segment header") != std::string::npos) ++bad_headers;
    if (w.find("malformed event line") != std::string::npos) ++bad_events;
  }
  EXPECT_EQ(bad_headers, 4u);
  EXPECT_EQ(bad_events, 7u);
  EXPECT_EQ(read.warnings.size(), 11u);
}

TEST(StreamReader, MalformedManifestIsAWarningNotADoneStream) {
  const StreamDir dir("tls_reader_manifest");
  const std::string ok =
      "\"events\": 1, \"dropped\": 0, \"trace\": \"00000000000000aa\"";
  const std::string sections =
      ", \"meta\": {}, \"gauges\": {}, \"roofline\": {}";
  for (const std::string& body : std::vector<std::string>{
           "\"events\": -1, \"dropped\": 0, \"trace\": \"00000000000000aa\"",
           "\"events\": 1, \"dropped\": 1e300, \"trace\": \"00000000000000aa\"",
           "\"events\": 1, \"dropped\": 0, \"trace\": \"zz\"",
           // Malformed registry sections.
           ok + sections,                                 // no counters
           ok + sections + ", \"counters\": []",          // not an object
           ok + sections + ", \"counters\": {\"c\": 1.5}",  // fractional
           ok + sections + ", \"counters\": {\"c\": 1e19}",  // > INT64_MAX
           ok + sections + ", \"counters\": {\"c\": \"7\"}",  // a string
           ok + ", \"meta\": {\"m\": 1}, \"gauges\": {}, \"roofline\": {}, "
                "\"counters\": {}",
           ok + ", \"meta\": {}, \"gauges\": {\"g\": null}, \"roofline\": {}, "
                "\"counters\": {}",
           ok + ", \"meta\": {}, \"gauges\": {}, \"counters\": {}, "
                "\"roofline\": {\"r\": {\"modeled_s\": 1}}"}) {
    std::FILE* f = std::fopen((dir.path + "/stream.done").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(("{\"schema\": \"fcma.tlstream.v1\", " + body + "}\n").c_str(),
               f);
    std::fclose(f);
    const tls::StreamRead read = tls::read_stream_dir(dir.path);
    EXPECT_FALSE(read.done) << body;
    ASSERT_EQ(read.warnings.size(), 1u) << body;
    EXPECT_NE(read.warnings[0].find("stream.done"), std::string::npos);
  }
}

// --- Chrome view --------------------------------------------------------

// The view is a pure function of the read: lanes (tid = lane id) named by
// the segment headers, events time-sorted across lanes, dropped_events
// from the manifest.
TEST(TimelineView, RendersLanesEventsAndDropsFromTheStream) {
  const StreamDir dir("tls_view");
  const auto used = std::make_shared<std::atomic<std::uint64_t>>(0);
  {
    tls::SegmentWriter a(test_config(dir.path), used, 0, "main", 7);
    tls::SegmentWriter b(test_config(dir.path), used, 3, "sched/worker0", 7);
    EXPECT_TRUE(a.append({"late", 5000, 6000, 1, 0}));
    EXPECT_TRUE(b.append({"early", 1000, 2500, 2, 1}));
  }
  tls::write_done_manifest(dir.path, 7, 2, 4, 2, Metrics{});
  const std::string json =
      tls::timeline_view_json(tls::read_stream_dir(dir.path));
  EXPECT_NE(json.find("\"schema\": \"fcma.timeline.v1\", "
                      "\"dropped_events\": 4"),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\": 0, \"name\": \"thread_name\", \"args\": "
                      "{\"name\": \"main\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\": 3, \"name\": \"thread_name\", \"args\": "
                      "{\"name\": \"sched/worker0\"}"),
            std::string::npos);
  const std::size_t early = json.find(
      "{\"ph\": \"X\", \"pid\": 1, \"tid\": 3, \"name\": \"early\", "
      "\"ts\": 1.000, \"dur\": 1.500, \"args\": {\"span\": "
      "\"0000000000000002\", \"parent\": \"0000000000000001\"}}");
  const std::size_t late = json.find("\"name\": \"late\", \"ts\": 5.000");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(early, late);  // sorted by start time, not by lane
}

// --- span classes, trace ids, SLO grammar -------------------------------

TEST(SpanClass, FoldsWorkerRankSegments) {
  EXPECT_EQ(tls::span_class_of("cluster/worker3/task"), "cluster/worker/task");
  EXPECT_EQ(tls::span_class_of("cluster/worker12/task/svm"),
            "cluster/worker/task/svm");
  EXPECT_EQ(tls::span_class_of("sched/worker0"), "sched/worker");
  // No digits (or non-digits) after "worker": not a rank segment.
  EXPECT_EQ(tls::span_class_of("cluster/worker/task"), "cluster/worker/task");
  EXPECT_EQ(tls::span_class_of("workerbee/task"), "workerbee/task");
  EXPECT_EQ(tls::span_class_of("stage/correlation"), "stage/correlation");
  EXPECT_EQ(tls::span_class_of(""), "");
}

TEST(TraceHex, IsSixteenLowercaseHexDigits) {
  EXPECT_EQ(tls::trace_hex(0), "0000000000000000");
  EXPECT_EQ(tls::trace_hex(0xABCDEF0123456789ull), "abcdef0123456789");
}

TEST(SloRules, ParseQuantilesUnitsAndLists) {
  const auto rules = tls::parse_slo_rules(
      "cluster/task:p99<250ms,stage/correlation:p50<2s,comm:p95<750us");
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].span_class, "cluster/task");
  EXPECT_DOUBLE_EQ(rules[0].quantile, 0.99);
  EXPECT_DOUBLE_EQ(rules[0].limit_s, 0.25);
  EXPECT_DOUBLE_EQ(rules[1].quantile, 0.50);
  EXPECT_DOUBLE_EQ(rules[1].limit_s, 2.0);
  EXPECT_DOUBLE_EQ(rules[2].quantile, 0.95);
  EXPECT_DOUBLE_EQ(rules[2].limit_s, 750e-6);
  EXPECT_EQ(tls::parse_slo_rules("a:p99<1ns")[0].limit_s, 1e-9);
  EXPECT_TRUE(tls::parse_slo_rules("").empty());
}

TEST(SloRules, RejectBadSyntaxWithClearErrors) {
  EXPECT_THROW((void)tls::parse_slo_rules("no-colon"), Error);
  EXPECT_THROW((void)tls::parse_slo_rules("a:p90<1ms"), Error);  // bad q
  EXPECT_THROW((void)tls::parse_slo_rules("a:p99=1ms"), Error);  // no '<'
  EXPECT_THROW((void)tls::parse_slo_rules("a:p99<1min"), Error);  // bad unit
  EXPECT_THROW((void)tls::parse_slo_rules("a:p99<fastms"), Error);
  // A limit no latency can reach could never be violated.
  EXPECT_THROW((void)tls::parse_slo_rules("task:p99<infs"), Error);
  EXPECT_THROW((void)tls::parse_slo_rules("task:p99<1e999ms"), Error);
  EXPECT_THROW((void)tls::parse_slo_rules("task:p99<nans"), Error);
}

TEST(SloRules, MatchExactlyOrAsPathSuffix) {
  const tls::SloRule rule = tls::parse_slo_rules("task:p99<1s")[0];
  EXPECT_TRUE(tls::rule_matches(rule, "task"));
  EXPECT_TRUE(tls::rule_matches(rule, "cluster/task"));
  EXPECT_TRUE(tls::rule_matches(rule, "cluster/worker/task"));
  EXPECT_FALSE(tls::rule_matches(rule, "cluster/task/svm"));
  EXPECT_FALSE(tls::rule_matches(rule, "multitask"));  // not a path suffix
  const tls::SloRule full = tls::parse_slo_rules("cluster/task:p99<1s")[0];
  EXPECT_TRUE(tls::rule_matches(full, "cluster/task"));
  EXPECT_FALSE(tls::rule_matches(full, "task"));
}

// --- Timeline spill integration -----------------------------------------

/// Arms a fresh per-test stream (tests may shrink the ring first: sinks
/// are created at their thread's first record) and enables tracing.
class StreamingTimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    global().reset();
    Timeline::global().reset();
    Timeline::global().set_ring_capacity(1u << 16);
    new_run_id();
    dir_ = ::testing::TempDir() + "tls_" +
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
    Timeline::global().set_ring_capacity(1u << 16);
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string dir_;
};

// The satellite-1 exactness claim: a ring 20x smaller than the event count
// spills instead of dropping, and the merged stream holds every event.
TEST_F(StreamingTimelineTest, OverflowSpillsAndMergeIsCountExact) {
  Timeline::global().set_ring_capacity(16);
  ASSERT_TRUE(streaming());
  constexpr std::size_t kSpans = 300;
  for (std::size_t i = 0; i < kSpans; ++i) {
    const Span s("spill/span");
  }
  Timeline::global().finalize_stream();
  EXPECT_EQ(Timeline::global().events_dropped(), 0u);
  EXPECT_EQ(Timeline::global().events_streamed(), kSpans);
  const tls::StreamRead read = tls::read_stream_dir(dir_);
  EXPECT_TRUE(read.done);
  EXPECT_EQ(read.done_events, kSpans);
  EXPECT_EQ(read.done_dropped, 0u);
  EXPECT_EQ(read.events.size(), kSpans);
  for (const auto& ev : read.events) {
    EXPECT_EQ(ev.trace_id, run_id());
    EXPECT_EQ(ev.label, "spill/span");
    EXPECT_NE(ev.span, 0u);
  }
}

// A lane whose segment the disk refuses: every span it recorded is
// dropped, counted, and the manifest reports none of them as written.
TEST_F(StreamingTimelineTest, FailedSegmentWritesCountAsDropped) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Timeline::global().set_ring_capacity(16);
  // The test thread records first, so it owns lane 0.
  std::filesystem::create_symlink("/dev/full", dir_ + "/lane0-0.tls.part");
  for (int i = 0; i < 40; ++i) {
    const Span s("full/span");
  }
  Timeline::global().finalize_stream();
  EXPECT_EQ(Timeline::global().events_streamed(), 0u);
  EXPECT_EQ(Timeline::global().events_dropped(), 40u);
  // /dev/full reads as endless zeros: take the lane out (under either
  // name, should a regression have promoted it) before reading.
  std::error_code ec;
  std::filesystem::remove(dir_ + "/lane0-0.tls.part", ec);
  std::filesystem::remove(dir_ + "/lane0-0.tls", ec);
  const tls::StreamRead read = tls::read_stream_dir(dir_);
  EXPECT_TRUE(read.done);
  EXPECT_EQ(read.done_events, 0u);
  EXPECT_EQ(read.done_dropped, 40u);
}

TEST_F(StreamingTimelineTest, FinalizeIsIdempotentAndLaterSpillsDrop) {
  Timeline::global().set_ring_capacity(16);
  for (int i = 0; i < 40; ++i) {
    const Span s("fin/span");
  }
  Timeline::global().finalize_stream();
  const tls::StreamRead first = tls::read_stream_dir(dir_);
  EXPECT_TRUE(first.done);
  EXPECT_EQ(first.done_events, 40u);
  // Post-finalize records can fill the emptied ring but never spill: the
  // manifest's totals must stay the truth about the segments.
  for (int i = 0; i < 20; ++i) {
    const Span s("fin/late");
  }
  EXPECT_EQ(Timeline::global().events_dropped(), 4u);  // 16 re-ring, 4 drop
  Timeline::global().finalize_stream();  // idempotent: no second manifest
  const tls::StreamRead second = tls::read_stream_dir(dir_);
  EXPECT_EQ(second.done_events, first.done_events);
  EXPECT_EQ(second.events.size(), first.events.size());
}

// --- span-context propagation -------------------------------------------

TEST_F(StreamingTimelineTest, SpanIdsNestAndScopedParentAdopts) {
  EXPECT_EQ(current_span(), 0u);
  {
    const Span outer("ctx/outer");
    ASSERT_NE(outer.id(), 0u);
    EXPECT_EQ(current_span(), outer.id());
    {
      const Span inner("ctx/inner");
      EXPECT_NE(inner.id(), outer.id());
      EXPECT_EQ(current_span(), inner.id());
    }
    EXPECT_EQ(current_span(), outer.id());
    {
      const ScopedParent remote(777);  // adopt a remote rank's span
      EXPECT_EQ(current_span(), 777u);
    }
    EXPECT_EQ(current_span(), outer.id());
  }
  EXPECT_EQ(current_span(), 0u);
}

TEST_F(StreamingTimelineTest, CommStampsSenderSpanContextAtSendTime) {
  cluster::Comm comm(2);
  {
    const Span s("send/span");
    comm.send(0, 1, cluster::Tag::kUser, {1});
    const cluster::Message m = comm.recv(1);
    EXPECT_EQ(m.ctx.trace_id, run_id());
    EXPECT_EQ(m.ctx.parent_span, s.id());
    EXPECT_EQ(m.ctx.edge_seq, 0u);
    EXPECT_GT(m.ctx.sent_ns, 0u);
  }
  comm.send(0, 1, cluster::Tag::kUser, {2});  // outside any span
  const cluster::Message m2 = comm.recv(1);
  EXPECT_EQ(m2.ctx.parent_span, 0u);
  EXPECT_EQ(m2.ctx.edge_seq, 1u);  // per-(from,to) sequence advanced
  comm.send(1, 0, cluster::Tag::kUser, {3});  // different edge: fresh seq
  EXPECT_EQ(comm.recv(0).ctx.edge_seq, 0u);
  set_enabled(false);
  comm.send(0, 1, cluster::Tag::kUser, {4});
  const cluster::Message off = comm.recv(1);
  EXPECT_EQ(off.ctx.trace_id, 0u);  // tracing off: all-zero context
  EXPECT_EQ(off.ctx.sent_ns, 0u);
  set_enabled(true);
}

TEST_F(StreamingTimelineTest, DelayedMessageKeepsItsOriginalSenderContext) {
  cluster::FaultPlan plan;
  plan.delay = 1.0;
  plan.delay_messages = 1;
  cluster::FaultyComm comm(2, plan);
  std::uint64_t first_span = 0;
  {
    const Span a("delay/a");
    first_span = a.id();
    comm.send(0, 1, cluster::Tag::kUser, {1});  // deferred
  }
  {
    const Span b("delay/b");
    comm.send(0, 1, cluster::Tag::kUser, {2});  // deferred; matures {1}
  }
  // {1} was flushed to the inbox during {2}'s send, while span b was
  // current — but its context must still name span a, stamped at the
  // original send.
  const cluster::Message m = comm.recv(1);
  EXPECT_EQ(m.payload[0], 1);
  EXPECT_EQ(m.ctx.parent_span, first_span);
}

// --- cluster: merged cross-rank timeline --------------------------------

/// Per-lane monotonicity: within one lane the reader's (seq, file-order)
/// merge must never step backwards in end time — each lane records at
/// span-close time, sequentially.
void expect_lane_monotonic(const std::vector<tls::StreamEvent>& events) {
  std::map<std::size_t, std::uint64_t> last_end;
  for (const auto& ev : events) {
    EXPECT_GE(ev.end_ns, ev.start_ns);
    const auto it = last_end.find(ev.lane_id);
    if (it != last_end.end()) {
      EXPECT_GE(ev.end_ns, it->second)
          << "lane " << ev.lane_id << " went backwards at " << ev.label;
    }
    last_end[ev.lane_id] = ev.end_ns;
  }
}

TEST_F(StreamingTimelineTest, ClusterRunStitchesOneCrossRankTimeline) {
  Timeline::global().set_ring_capacity(256);  // small: forces mid-run spills

  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 64;
  const fmri::Dataset dataset = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs epochs = fmri::normalize_epochs(dataset);
  cluster::DriverOptions opts;
  opts.workers = 2;
  opts.voxels_per_task = 8;
  const core::Scoreboard board =
      cluster::run_cluster_analysis(epochs, dataset.voxels(), opts, nullptr);
  EXPECT_TRUE(board.complete());
  Timeline::global().finalize_stream();

  const tls::StreamRead read = tls::read_stream_dir(dir_);
  EXPECT_TRUE(read.done);
  EXPECT_EQ(read.done_dropped, 0u);  // streaming: nothing may drop
  EXPECT_EQ(read.events.size(), read.done_events);
  ASSERT_FALSE(read.events.empty());

  // Every event belongs to this run's trace.
  for (const auto& ev : read.events) EXPECT_EQ(ev.trace_id, run_id());

  // The critical-path span classes all materialized.
  std::set<std::string> classes;
  std::map<std::uint64_t, std::size_t> span_lane;
  for (const auto& ev : read.events) {
    classes.insert(tls::span_class_of(ev.label));
    if (ev.span != 0) span_lane.emplace(ev.span, ev.lane_id);
  }
  EXPECT_TRUE(classes.count("cluster/dispatch"));
  EXPECT_TRUE(classes.count("cluster/comm/assign"));
  EXPECT_TRUE(classes.count("cluster/queue"));
  EXPECT_TRUE(classes.count("cluster/worker/task"));
  EXPECT_TRUE(classes.count("cluster/comm/result"));

  // No orphan parents: every referenced parent span is in the merge, and at
  // least one edge crosses ranks (a worker event under a master span).
  std::size_t cross_lane = 0;
  for (const auto& ev : read.events) {
    if (ev.parent == 0) continue;
    const auto it = span_lane.find(ev.parent);
    ASSERT_NE(it, span_lane.end()) << "orphan parent under " << ev.label;
    if (it->second != ev.lane_id) ++cross_lane;
  }
  EXPECT_GT(cross_lane, 0u);
  expect_lane_monotonic(read.events);
}

// --- follow readers racing writers (TSan gate) --------------------------

TEST_F(StreamingTimelineTest, FollowReaderRacesWritersWithoutTornReads) {
  Timeline::global().set_ring_capacity(64);
  std::atomic<bool> stop{false};
  // The follow reader: polls the stream dir exactly like `fcma report
  // --follow`, asserting every snapshot is a clean prefix — well-formed
  // events, monotonic per lane.  Mid-rotation "unreadable segment"
  // warnings are expected; torn events are not.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const tls::StreamRead snap = tls::read_stream_dir(dir_);
      expect_lane_monotonic(snap.events);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  constexpr std::size_t kSpans = 2000;
  {
    threading::ThreadPool pool(4);
    threading::parallel_for_each(pool, 0, kSpans, [](std::size_t) {
      const Span s("race/span");
    });
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  Timeline::global().finalize_stream();
  const tls::StreamRead read = tls::read_stream_dir(dir_);
  EXPECT_TRUE(read.done);
  EXPECT_EQ(read.done_dropped, 0u);
  std::size_t race_spans = 0;
  for (const auto& ev : read.events) {
    if (ev.label == "race/span") ++race_spans;
  }
  EXPECT_EQ(race_spans, kSpans);  // exactness under concurrency
  expect_lane_monotonic(read.events);
}

}  // namespace
}  // namespace fcma::trace
