// Cluster demonstration: the master-worker task farm of paper SS3.1.1.
//
// Part 1 runs the *real* protocol with real threads over the in-process
// message-passing layer and verifies the distributed scoreboard matches a
// single-node run.  Part 2 puts the same task structure on the virtual-time
// simulator to project elapsed time and speedup on a 96-coprocessor
// cluster, Fig 8-style.
//
// Build & run:  ./build/examples/cluster_scaling
#include <cstdio>
#include <numeric>

#include "archsim/arch_model.hpp"
#include "cluster/cost_model.hpp"
#include "cluster/driver.hpp"
#include "cluster/sim.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "fcma/task.hpp"
#include "fmri/presets.hpp"
#include "fmri/synthetic.hpp"

int main() {
  using namespace fcma;

  // Trace the run into a stream: its views pick up comm message/byte
  // counters and the per-worker task latency spans from part 1's real
  // protocol run.
  trace::set_stream_dir("cluster_scaling.stream");
  trace::set_enabled(true);

  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 256;
  spec.informative = 32;
  const fmri::Dataset dataset = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs epochs = fmri::normalize_epochs(dataset);

  // ---- Part 1: real threads, real messages -----------------------------
  std::printf("part 1: master + 4 workers over the message-passing layer\n");
  cluster::DriverOptions options;
  options.workers = 4;
  options.voxels_per_task = 32;
  cluster::DriverStats stats;
  WallTimer timer;
  const core::Scoreboard distributed =
      cluster::run_cluster_analysis(epochs, dataset.voxels(), options,
                                    &stats);
  std::printf("  %zu tasks, %zu messages, %.2f s; recovery of planted "
              "voxels: %.0f%%\n",
              stats.tasks_dispatched, stats.messages, timer.seconds(),
              100.0 * distributed.recovery_rate(
                          dataset.informative_voxels()));
  std::printf("  traced: %lld comm messages, %lld payload bytes\n\n",
              static_cast<long long>(
                  trace::global().counter("comm/messages")),
              static_cast<long long>(trace::global().counter("comm/bytes")));
  trace::dump_now();  // cluster_scaling.stream/{trace,timeline}.json

  // ---- Part 2: virtual-time projection to a 96-node cluster ------------
  std::printf("part 2: virtual 48-node cluster, paper-scale face-scene\n");
  memsim::Instrument ins;
  const auto calib = core::run_task_instrumented(
      epochs, core::VoxelTask{0, 16}, core::PipelineConfig::optimized(),
      ins);
  const cluster::CalibratedCost cost(
      calib, cluster::TaskDims{16, dataset.voxels(),
                               dataset.epochs().size(),
                               dataset.subjects()});

  const fmri::DatasetSpec paper = fmri::face_scene_spec();
  const auto arch = archsim::Phi5110P();
  const auto tasks = core::partition_voxels(paper.voxels, 120);
  std::vector<double> task_seconds;
  for (const auto& task : tasks) {
    task_seconds.push_back(cost.task_seconds(
        cluster::TaskDims{task.count, paper.voxels, paper.epochs_total,
                          paper.subjects},
        arch, 240));
  }
  cluster::FarmConfig farm;
  farm.broadcast_bytes = static_cast<double>(paper.voxels) * 2592 * 4;
  farm.fold_overhead_s = 1.0;
  std::printf("  %zu tasks/fold, %.1f s of node compute per fold\n",
              tasks.size(),
              std::accumulate(task_seconds.begin(), task_seconds.end(), 0.0));
  std::printf("  nodes | elapsed (18 folds) | speedup | efficiency\n");
  double t1 = 0.0;
  for (const std::size_t nodes : {1u, 8u, 24u, 48u, 96u}) {
    farm.workers = nodes;
    const auto outcome = cluster::simulate_task_farm(
        farm, task_seconds, static_cast<std::size_t>(paper.subjects));
    if (nodes == 1) t1 = outcome.makespan_s;
    std::printf("  %5zu | %18.0f | %6.1fx | %.2f\n", nodes,
                outcome.makespan_s, t1 / outcome.makespan_s,
                outcome.efficiency(nodes));
  }
  return 0;
}
