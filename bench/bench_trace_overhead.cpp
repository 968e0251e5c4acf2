// Prices continuous profiling (PR 9): the identical serial pipeline sweep
// with tracing fully off vs streaming every span to fcma.tlstream.v1
// segment files.  Two measurement choices keep a small delta resolvable on
// shared hardware:
//
//  * Both variants run interleaved inside ONE process as back-to-back
//    pairs, alternating which leg of each pair goes first, and the
//    overhead is the median of the per-pair streamed/untraced wall-clock
//    ratios — process-level A/B timing swings ±10% between invocations
//    (DVFS, CPU contention), while the two legs of one pair sample the
//    same machine state, so their ratio cancels the machine's mood and
//    the median discards bursts that land inside a single leg.
//  * The workload is the single-threaded stage 1-3 pipeline, not the
//    cluster farm: the farm's scheduler/heartbeat jitter on a loaded box
//    dwarfs the tracing cost being measured.  The span record + ring
//    publish + spill path priced here is per-thread and identical to what
//    every cluster rank runs.
//
// The streamed leg uses a deliberately small ring (--ring) so segments
// spill continuously mid-run — the always-on production shape, not a
// single flush at exit — and the timed window includes finalize_stream()
// because publishing the manifest is part of the streaming cost.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <vector>

#include "bench_common.hpp"
#include "common/timeline.hpp"

using namespace fcma;

int main(int argc, char** argv) {
  const fcma::bench::MetricsSidecar metrics(argv[0]);
  Cli cli("bench_trace_overhead",
          "continuous-profiling cost: untraced vs streamed pipeline sweep");
  cli.add_flag("voxels", "128", "scaled brain size");
  cli.add_flag("subjects", "4", "scaled subject count");
  cli.add_flag("task", "8", "voxels per task (small = more spans per rep)");
  cli.add_flag("reps", "3", "interleaved untraced/streamed pairs");
  cli.add_flag("ring", "64", "per-thread ring capacity (small = spill "
                             "continuously mid-run)");
  cli.add_flag("stream-dir", "", "stream segment root (default "
                                 "<argv0>.stream, wiped per invocation)");
  if (!cli.parse(argc, argv)) return 0;

  bench::print_preamble(
      "Tracing overhead: untraced vs streamed pipeline, interleaved A/B");
  const bench::Workload w = bench::make_workload(
      fmri::face_scene_spec(), static_cast<std::size_t>(cli.get_int("voxels")),
      static_cast<std::int32_t>(cli.get_int("subjects")));
  const core::PipelineConfig config = core::PipelineConfig::optimized();
  const auto task_voxels = static_cast<std::uint32_t>(cli.get_int("task"));
  const auto total = static_cast<std::uint32_t>(w.dataset.voxels());
  const int reps = cli.get_int("reps");
  const auto ring = static_cast<std::size_t>(cli.get_int("ring"));
  std::string stream_root = cli.get("stream-dir");
  if (stream_root.empty()) stream_root = std::string(argv[0]) + ".stream";
  std::filesystem::remove_all(stream_root);

  // One full sweep over the brain, serial, returning an accuracy checksum
  // so the two variants can be compared for identity.
  auto sweep = [&] {
    double checksum = 0.0;
    for (std::uint32_t first = 0; first < total; first += task_voxels) {
      const core::VoxelTask task{first,
                                 std::min(task_voxels, total - first)};
      const core::TaskResult r = core::run_task(w.epochs, task, config);
      for (const double a : r.accuracy) checksum += a;
    }
    return checksum;
  };
  auto wall = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  auto& timeline = trace::Timeline::global();

  // One untraced leg: the main switch is off, so spans, counters and comm
  // span contexts all collapse to no-ops.
  double sum_off = 0.0;
  auto run_off = [&] {
    trace::set_enabled(false);
    return wall([&] { sum_off = sweep(); });
  };
  // One streamed leg: fresh sinks and run id per rep (reset() detaches the
  // previous rep's lanes, so every rep streams into its own directory).
  double sum_on = 0.0;
  std::uint64_t streamed_events = 0;
  std::uint64_t streamed_dropped = 0;
  int rep_seq = 0;
  auto run_on = [&] {
    const std::string dir = stream_root + "/rep" + std::to_string(rep_seq++);
    timeline.reset();
    timeline.set_ring_capacity(ring);
    trace::new_run_id();
    trace::set_enabled(true);
    trace::set_stream_dir(dir);
    const double s = wall([&] {
      sum_on = sweep();
      timeline.finalize_stream();
    });
    streamed_events = timeline.events_streamed();
    streamed_dropped += timeline.events_dropped();
    trace::set_stream_dir("");
    return s;
  };

  std::vector<double> off_s;
  std::vector<double> on_s;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep % 2 == 0) {
      off_s.push_back(run_off());
      on_s.push_back(run_on());
    } else {
      on_s.push_back(run_on());
      off_s.push_back(run_off());
    }
  }
  // The sidecar's own dump below needs the main switch back on.
  trace::set_enabled(true);

  if (std::abs(sum_off - sum_on) > 1e-12) {
    std::fprintf(stderr,
                 "trace_overhead: streamed sweep checksum %.17g != untraced "
                 "%.17g — tracing must not change results\n",
                 sum_on, sum_off);
    return 1;
  }
  if (streamed_dropped != 0) {
    std::fprintf(stderr,
                 "trace_overhead: %llu events dropped with streaming armed "
                 "(continuous profiling must not drop)\n",
                 static_cast<unsigned long long>(streamed_dropped));
    return 1;
  }

  const double min_off = *std::min_element(off_s.begin(), off_s.end());
  const double min_on = *std::min_element(on_s.begin(), on_s.end());
  std::vector<double> ratios(off_s.size());
  for (std::size_t i = 0; i < off_s.size(); ++i) {
    ratios[i] = on_s[i] / off_s[i];
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  const double median_ratio =
      ratios.size() % 2 != 0 ? ratios[mid]
                             : 0.5 * (ratios[mid - 1] + ratios[mid]);
  const double pct = 100.0 * (median_ratio - 1.0);

  Table t("wall clock over " + std::to_string(reps) + " interleaved pairs");
  t.header({"variant", "min wall (s)", "events", "dropped"});
  t.row({"untraced", Table::num(min_off, 3), "0", "0"});
  t.row({"streamed", Table::num(min_on, 3),
         Table::count(static_cast<long long>(streamed_events)), "0"});
  t.print();

  std::printf("trace_overhead pct=%.2f baseline_s=%.3f streaming_s=%.3f "
              "events=%llu dropped=%llu\n",
              pct, min_off, min_on,
              static_cast<unsigned long long>(streamed_events),
              static_cast<unsigned long long>(streamed_dropped));
  trace::gauge_set("trace/baseline_wall_s", min_off);
  trace::gauge_set("trace/streaming_wall_s", min_on);
  trace::gauge_set("trace/overhead_pct", pct);
  trace::gauge_set("trace/streamed_events",
                   static_cast<double>(streamed_events));
  return 0;
}
