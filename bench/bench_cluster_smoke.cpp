// Small real-driver cluster run for the observability smoke sweep: runs the
// master-worker task farm (cluster/driver.hpp) with actual threads at a
// reduced brain size and reports the straggler/load-imbalance view — per-rank
// busy seconds, max/mean busy, and the imbalance ratio — that the driver
// publishes as cluster/* gauges.  The metrics sidecar therefore captures the
// same numbers machine-readably for bench_smoke.sh.
#include "bench_common.hpp"
#include "cluster/driver.hpp"

using namespace fcma;

int main(int argc, char** argv) {
  const fcma::bench::MetricsSidecar metrics(argv[0]);
  Cli cli("bench_cluster_smoke",
          "cluster observability smoke: real task farm + straggler report");
  cli.add_flag("voxels", "512", "scaled brain size");
  cli.add_flag("subjects", "4", "scaled subject count");
  cli.add_flag("workers", "3", "worker ranks");
  cli.add_flag("task", "32", "voxels per task");
  cli.add_flag("lease-timeout", "10.0", "seconds before a silent lease expires");
  cli.add_flag("fault-seed", "0", "fault-injection decision seed");
  cli.add_flag("fault-drop", "0", "P(drop) per message");
  cli.add_flag("fault-kill-rank", "0", "worker rank to crash (0 = none)");
  cli.add_flag("fault-kill-after", "0", "tasks the victim completes first");
  if (!cli.parse(argc, argv)) return 0;

  bench::print_preamble(
      "Cluster smoke: dynamic task farm with per-rank busy attribution");
  const bench::Workload w = bench::make_workload(
      fmri::face_scene_spec(), static_cast<std::size_t>(cli.get_int("voxels")),
      static_cast<std::int32_t>(cli.get_int("subjects")));

  cluster::DriverOptions options;
  options.workers = static_cast<std::size_t>(cli.get_int("workers"));
  options.voxels_per_task = static_cast<std::size_t>(cli.get_int("task"));
  options.lease_timeout_s = cli.get_double("lease-timeout");
  options.faults.seed = static_cast<std::uint64_t>(cli.get_int("fault-seed"));
  options.faults.drop = cli.get_double("fault-drop");
  options.faults.kill_rank =
      static_cast<std::size_t>(cli.get_int("fault-kill-rank"));
  options.faults.kill_after_tasks =
      static_cast<std::size_t>(cli.get_int("fault-kill-after"));
  cluster::DriverStats stats;
  const core::Scoreboard board = run_cluster_analysis(
      w.epochs, w.dataset.voxels(), options, &stats);

  Table t("per-rank busy time (dynamic farm)");
  t.header({"rank", "busy (s)", "share of max"});
  const double max_busy = stats.max_worker_busy_s();
  for (std::size_t r = 0; r < stats.worker_busy_s.size(); ++r) {
    const double busy = stats.worker_busy_s[r];
    t.row({"worker" + std::to_string(r + 1), Table::num(busy, 3),
           Table::num(max_busy > 0.0 ? 100.0 * busy / max_busy : 0.0, 0) +
               "%"});
  }
  t.print();

  Table s("load balance");
  s.header({"metric", "value"});
  s.row({"tasks dispatched", Table::count(static_cast<long long>(
                                 stats.tasks_dispatched))});
  s.row({"batches", Table::count(static_cast<long long>(stats.batches))});
  s.row({"max busy (s)", Table::num(max_busy, 3)});
  s.row({"mean busy (s)", Table::num(stats.mean_worker_busy_s(), 3)});
  s.row({"imbalance (max/mean)", Table::num(stats.imbalance_ratio(), 3)});
  s.print();

  // Recovery view: all zeros on a clean run, the cost of the fault-injected
  // variant otherwise.  The same numbers land in the metrics sidecar as the
  // cluster/* counters plus the gauges below.
  Table r("fault recovery");
  r.header({"metric", "value"});
  r.row({"workers died",
         Table::count(static_cast<long long>(stats.workers_died))});
  r.row({"tasks requeued",
         Table::count(static_cast<long long>(stats.tasks_requeued))});
  r.row({"retries", Table::count(static_cast<long long>(stats.retries))});
  r.row({"heartbeat misses",
         Table::count(static_cast<long long>(stats.heartbeat_misses))});
  r.row({"recovery wall (s)", Table::num(stats.recovery_wall_s, 3)});
  r.row({"resurrections",
         Table::count(static_cast<long long>(stats.resurrections))});
  r.print();
  trace::gauge_set("cluster/workers_died",
                   static_cast<double>(stats.workers_died));
  trace::gauge_set("cluster/recovery_wall_s", stats.recovery_wall_s);

  std::printf("scored %zu voxels across %zu ranks\n", board.scored(),
              options.workers);
  return 0;
}
