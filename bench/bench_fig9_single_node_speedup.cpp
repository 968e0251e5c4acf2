// Reproduces Fig 9: per-voxel speedup of the optimized implementation over
// the baseline for a single worker task on one Xeon Phi coprocessor.
//
// Paper values: 5.24x (face-scene), 16.39x (attention).  The attention gap
// is larger because its SVM stage dominates and the baseline's LibSVM both
// runs slowly and starves threads (only 60 voxels fit in memory).
#include <iterator>
#include <optional>

#include "bench_common.hpp"
#include "fcma/memory_model.hpp"
#include "fcma/task.hpp"
#include "threading/thread_pool.hpp"

using namespace fcma;

namespace {

struct DatasetRow {
  fmri::DatasetSpec paper;
  const char* paper_speedup;
};

}  // namespace

int main(int argc, char** argv) {
  const fcma::bench::MetricsSidecar metrics(argv[0]);
  Cli cli("bench_fig9_single_node_speedup",
          "Fig 9: optimized vs baseline per-voxel time on the Phi");
  cli.add_flag("voxels", "4096", "scaled brain size for calibration");
  cli.add_flag("subjects", "6", "scaled subject count for calibration");
  cli.add_flag("calib-task", "8", "task voxels in the calibration run");
  cli.add_flag("threads", "0",
               "threads for workload generation and calibration, the "
               "caller included (0 = hardware concurrency)");
  cli.add_flag("grain-task", "8",
               "voxels per task in the small-grain sweep (0 = skip the "
               "sweep)");
  if (!cli.parse(argc, argv)) return 0;

  bench::print_preamble(
      "Fig 9 reproduction: single-coprocessor optimized-vs-baseline speedup");
  const auto arch = archsim::Phi5110P();
  const DatasetRow rows[] = {
      {fmri::face_scene_spec(), "5.24x"},
      {fmri::attention_spec(), "16.39x"},
  };
  constexpr std::size_t kRows = std::size(rows);

  // The expensive pieces — synthesizing the two scaled datasets and the
  // four instrumented calibration runs — are independent, so spread them
  // over the pool and print the table serially afterwards.  Every unit is
  // deterministic, so the table is identical at any thread count.
  threading::ThreadPool pool(
      static_cast<std::size_t>(cli.get_int("threads")));
  std::optional<bench::Workload> workloads[kRows];
  threading::parallel_for_each(pool, 0, kRows, [&](std::size_t i) {
    workloads[i] = bench::make_workload(
        rows[i].paper, static_cast<std::size_t>(cli.get_int("voxels")),
        static_cast<std::int32_t>(cli.get_int("subjects")));
  });
  const auto calib_task = static_cast<std::size_t>(cli.get_int("calib-task"));
  std::optional<cluster::CalibratedCost> costs[2 * kRows];
  threading::parallel_for_each(pool, 0, 2 * kRows, [&](std::size_t u) {
    const core::PipelineConfig config = u % 2 == 0
                                            ? core::PipelineConfig::baseline()
                                            : core::PipelineConfig::optimized();
    costs[u] = bench::calibrate(*workloads[u / 2], config, calib_task);
  });

  Table t("Fig 9: per-voxel processing time on the modeled Phi 5110P "
          "(baseline normalized to 1)");
  t.header({"dataset", "baseline task", "optimized task", "base ms/voxel",
            "opt ms/voxel", "speedup", "paper"});
  for (std::size_t i = 0; i < kRows; ++i) {
    const DatasetRow& row = rows[i];
    const cluster::CalibratedCost& base_cost = *costs[2 * i];
    const cluster::CalibratedCost& opt_cost = *costs[2 * i + 1];

    // Paper task sizes follow the memory model: the baseline fits 120
    // (face-scene) / 60 (attention) voxels; the optimized path takes 240.
    const std::size_t base_task =
        row.paper.name == "face-scene" ? 120 : 60;
    const std::size_t opt_task = 240;
    const auto base_dims = bench::paper_dims(row.paper, base_task);
    const auto opt_dims = bench::paper_dims(row.paper, opt_task);
    // Thread starvation: baseline stage 3 runs one thread per voxel.
    const double base_pv =
        base_cost.task_seconds(base_dims, arch,
                               static_cast<int>(base_task)) /
        static_cast<double>(base_task) * 1e3;
    const double opt_pv =
        opt_cost.task_seconds(opt_dims, arch, 240) /
        static_cast<double>(opt_task) * 1e3;
    t.row({row.paper.name, Table::count(static_cast<long long>(base_task)),
           Table::count(static_cast<long long>(opt_task)),
           Table::num(base_pv, 1), Table::num(opt_pv, 1),
           Table::num(base_pv / opt_pv, 2) + "x", row.paper_speedup});
  }
  t.print();

  // Small-grain sweep: run the real pipeline over the face-scene workload
  // with tiny tasks, the regime where per-task dispatch overhead and load
  // imbalance dominate.  The wall-clock goes to stdout and (as a trace
  // gauge) into the metrics sidecar.
  const auto grain = static_cast<std::size_t>(cli.get_int("grain-task"));
  if (grain > 0) {
    const bench::Workload& w = *workloads[0];
    core::PipelineConfig config = core::PipelineConfig::optimized();
    config.pool = &pool;
    const auto tasks = core::partition_voxels(w.dataset.voxels(), grain);
    WallTimer timer;
    const auto results = core::run_tasks(w.epochs, tasks, config);
    const double wall = timer.seconds();
    std::printf(
        "\nsmall-grain sweep (%s, %zu tasks of %zu voxels, %zu threads): "
        "%.3f s wall\n",
        w.spec.name.c_str(), tasks.size(), grain, pool.size(), wall);
    trace::gauge_set("bench/fig9/small_grain_wall_s", wall);
    (void)results;
  }
  return 0;
}
