// Tests for the cluster substrate: the in-process communicator, the real
// master-worker driver, the virtual-time task-farm simulator, and the
// calibrated cost model.
#include <gtest/gtest.h>

#include <thread>

#include "cluster/comm.hpp"
#include "cluster/cost_model.hpp"
#include "cluster/driver.hpp"
#include "cluster/sim.hpp"
#include "fcma/memory_model.hpp"
#include "fcma/pipeline.hpp"
#include "fcma/task.hpp"
#include "fmri/dataset_view.hpp"
#include "fmri/presets.hpp"
#include "fmri/synthetic.hpp"

namespace fcma::cluster {
namespace {

TEST(Comm, SendRecvRoundtrip) {
  Comm comm(2);
  comm.send(0, 1, Tag::kUser, {1, 2, 3});
  const Message m = comm.recv(1);
  EXPECT_EQ(m.source, 0u);
  EXPECT_EQ(m.tag, Tag::kUser);
  EXPECT_EQ(m.payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Comm, FifoPerInbox) {
  Comm comm(2);
  comm.send(0, 1, Tag::kUser, {1});
  comm.send(0, 1, Tag::kUser, {2});
  EXPECT_EQ(comm.recv(1).payload[0], 1);
  EXPECT_EQ(comm.recv(1).payload[0], 2);
}

TEST(Comm, HasMessageProbe) {
  Comm comm(2);
  EXPECT_FALSE(comm.has_message(1));
  comm.send(0, 1, Tag::kUser, {});
  EXPECT_TRUE(comm.has_message(1));
}

TEST(Comm, RecvBlocksUntilSend) {
  Comm comm(2);
  std::thread sender([&comm] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    comm.send(0, 1, Tag::kUser, {42});
  });
  const Message m = comm.recv(1);  // must block, then receive
  sender.join();
  EXPECT_EQ(m.payload[0], 42);
}

TEST(Comm, RankRangeChecked) {
  Comm comm(2);
  EXPECT_THROW(comm.send(0, 5, Tag::kUser, {}), Error);
  EXPECT_THROW((void)comm.recv(7), Error);
}

TEST(Codec, PodRoundtrip) {
  const core::VoxelTask task{17, 42};
  const auto task2 = decode<core::VoxelTask>(encode(task));
  EXPECT_EQ(task2.first, 17u);
  EXPECT_EQ(task2.count, 42u);
}

TEST(Codec, VectorRoundtrip) {
  const std::vector<double> v{1.5, -2.5, 3.25};
  EXPECT_EQ(decode_vector<double>(encode_vector(v)), v);
  EXPECT_TRUE(decode_vector<double>({}).empty());
}

TEST(Codec, SizeMismatchThrows) {
  std::vector<std::uint8_t> bad(3);
  EXPECT_THROW(decode<core::VoxelTask>(bad), Error);
  EXPECT_THROW(decode_vector<double>(bad), Error);
}

// ---------------------------------------------------------------------------
// Real-thread master-worker driver
// ---------------------------------------------------------------------------

TEST(Driver, DistributedMatchesSingleNode) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 64;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);

  // Single-node result.
  core::Scoreboard single(d.voxels());
  const core::VoxelTask all{0, static_cast<std::uint32_t>(d.voxels())};
  single.add(core::run_task(ne, all, core::PipelineConfig::optimized()));

  // 3 workers, 10-voxel tasks.
  DriverOptions opts;
  opts.workers = 3;
  opts.voxels_per_task = 10;
  DriverStats stats;
  const core::Scoreboard distributed =
      run_cluster_analysis(ne, d.voxels(), opts, &stats);

  EXPECT_TRUE(distributed.complete());
  EXPECT_EQ(stats.tasks_dispatched, 7u);  // ceil(64/10)
  for (std::uint32_t v = 0; v < d.voxels(); ++v) {
    EXPECT_NEAR(single.accuracy_of(v), distributed.accuracy_of(v), 1e-9);
  }
}

// Serial single-node reference over the same task partition the driver
// uses: the determinism contract says moving tasks between ranks must not
// change a single bit of any voxel's score.
core::Scoreboard single_node_reference(const fmri::NormalizedEpochs& ne,
                                       std::size_t voxels,
                                       std::size_t voxels_per_task) {
  core::Scoreboard board(voxels);
  for (const auto& task : core::partition_voxels(voxels, voxels_per_task)) {
    board.add(core::run_task(ne, task, core::PipelineConfig::optimized()));
  }
  return board;
}

void expect_bit_identical(const core::Scoreboard& reference,
                          const core::Scoreboard& distributed,
                          std::size_t voxels) {
  for (std::uint32_t v = 0; v < voxels; ++v) {
    EXPECT_EQ(reference.accuracy_of(v), distributed.accuracy_of(v)) << v;
  }
}

TEST(Driver, SingleWorkerIsBitIdenticalToSingleNode) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 64;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  DriverOptions opts;
  opts.workers = 1;
  opts.voxels_per_task = 16;
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(ne, d.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_EQ(stats.tasks_dispatched, 4u);
  expect_bit_identical(single_node_reference(ne, d.voxels(), 16), board,
                       d.voxels());
}

TEST(Driver, MoreWorkersThanTasksIsBitIdentical) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 64;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  DriverOptions opts;
  opts.workers = 6;
  opts.voxels_per_task = 32;  // only 2 tasks for 6 workers
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(ne, d.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_EQ(stats.tasks_dispatched, 2u);
  // The 4 surplus workers are released with an immediate shutdown.
  EXPECT_EQ(stats.batches, 2u);
  expect_bit_identical(single_node_reference(ne, d.voxels(), 32), board,
                       d.voxels());
}

TEST(Driver, NonDividingGrainIsBitIdentical) {
  // 61 voxels in tasks of 7: nine tasks, the last only 5 voxels.
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 61;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  DriverOptions opts;
  opts.workers = 3;
  opts.voxels_per_task = 7;
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(ne, d.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_EQ(stats.tasks_dispatched, 9u);  // ceil(61/7)
  expect_bit_identical(single_node_reference(ne, d.voxels(), 7), board,
                       d.voxels());
}

TEST(Driver, ExplicitBatchingDispatchesInBatchesAndStaysBitIdentical) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 64;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  DriverOptions opts;
  opts.workers = 2;
  opts.voxels_per_task = 2;  // 32 tasks: the auto batch is 32 / (2 * 4) = 4
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(ne, d.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_EQ(stats.tasks_dispatched, 32u);
  // Batching means strictly fewer assignment messages than tasks; refills
  // are pulled by work requests.
  EXPECT_LT(stats.batches, stats.tasks_dispatched);
  EXPECT_GE(stats.work_requests, 1u);
  expect_bit_identical(single_node_reference(ne, d.voxels(), 2), board,
                       d.voxels());
}

TEST(Driver, ZeroGrainIsAnError) {
  // The grain comes from core::open_epoch_run; the driver has no rule of
  // its own for a missing one.
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 32;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  DriverOptions opts;
  opts.workers = 2;
  opts.voxels_per_task = 0;
  EXPECT_THROW((void)run_cluster_analysis(ne, d.voxels(), opts), Error);
}

// ---------------------------------------------------------------------------
// Budgeted lanes: open_epoch_run(..., workers) sizes a streamed farm
// ---------------------------------------------------------------------------

// A 64-voxel farm whose worker ranks stream one budgeted source, opened as
// `fcma cluster --memory-budget` opens it: every rank a lane, each planned
// over budget / workers.
constexpr std::size_t kFarmBudget = std::size_t{1} << 20;

class BudgetedFarm {
 public:
  BudgetedFarm(std::size_t workers, std::size_t grain)
      : dataset_(tiny_dataset()),
        view_(dataset_),
        run_(core::open_epoch_run(view_, kFarmBudget, grain, workers)) {
    // The rule only narrows: these grains fit a lane's plan.
    EXPECT_EQ(run_.voxels_per_task, grain);
    EXPECT_NE(dynamic_cast<core::StreamedEpochs*>(run_.epochs.get()),
              nullptr);
  }

  [[nodiscard]] core::EpochSource& epochs() { return *run_.epochs; }
  [[nodiscard]] std::size_t voxels() const { return dataset_.voxels(); }

  // The resident single-node scores: every voxel's accuracy is independent
  // of the task partition, the source and the lane count.
  [[nodiscard]] core::Scoreboard reference() const {
    core::Scoreboard board(voxels());
    board.add(core::run_task(
        fmri::normalize_epochs(dataset_),
        core::VoxelTask{0, static_cast<std::uint32_t>(voxels())},
        core::PipelineConfig::optimized()));
    return board;
  }

 private:
  static fmri::Dataset tiny_dataset() {
    fmri::DatasetSpec spec = fmri::tiny_spec();
    spec.voxels = 64;
    return fmri::generate_synthetic(spec);
  }

  fmri::Dataset dataset_;
  fmri::InMemoryView view_;
  core::EpochRun run_;
};

TEST(BudgetedLanes, ThreeLaneRunDispatchesTasksThatFitOneLanesPlan) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 64;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::InMemoryView view(d);
  const std::size_t lanes = 3;
  const std::size_t budget = 480u << 10;
  const std::size_t m = d.epochs().size();
  const core::BudgetPlan lane = core::plan_residency(
      m, d.epochs_per_subject(), d.voxels(), d.epochs().front().length,
      budget / lanes);
  const core::EpochRun run = core::open_epoch_run(view, budget, 0, lanes);
  ASSERT_GT(run.voxels_per_task, 1u);
  ASSERT_LT(run.voxels_per_task, d.voxels());
  EXPECT_EQ(run.group_voxels, lane.group_voxels);
  // Each worker holds a task whole, so a task's correlation must fit the
  // in-flight share of one lane's plan.
  const std::size_t lane_corr_bytes =
      lane.group_voxels * m * d.voxels() * sizeof(float);
  for (const core::VoxelTask& task :
       core::partition_voxels(d.voxels(), run.voxels_per_task)) {
    EXPECT_LE(std::size_t{task.count} * m * d.voxels() * sizeof(float),
              lane_corr_bytes);
  }

  DriverOptions opts;
  opts.workers = lanes;
  opts.voxels_per_task = run.voxels_per_task;
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(*run.epochs, d.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_EQ(stats.tasks_dispatched,
            (d.voxels() + run.voxels_per_task - 1) / run.voxels_per_task);
  expect_bit_identical(
      single_node_reference(fmri::normalize_epochs(d), d.voxels(), d.voxels()),
      board, d.voxels());
}

TEST(BudgetedLanes, KilledWorkerIsBitIdenticalOnAStreamedSource) {
  // As DriverRecovery's kill test: 32 two-voxel tasks in two-task batches.
  BudgetedFarm farm(3, 2);
  DriverOptions opts;
  opts.workers = 3;
  opts.voxels_per_task = 2;
  opts.lease_timeout_s = 0.5;
  opts.faults.kill_rank = 2;
  opts.faults.kill_after_tasks = 1;
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(farm.epochs(), farm.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_EQ(stats.workers_died, 1u);
  EXPECT_GE(stats.tasks_requeued, 1u);
  expect_bit_identical(farm.reference(), board, farm.voxels());
}

TEST(BudgetedLanes, DroppedMessagesAreBitIdenticalOnAStreamedSource) {
  BudgetedFarm farm(2, 4);
  DriverOptions opts;
  opts.workers = 2;
  opts.voxels_per_task = 4;
  opts.faults.seed = 5;
  opts.faults.drop = 0.2;
  opts.max_task_retries = 64;
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(farm.epochs(), farm.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_GE(stats.retries, 1u);
  expect_bit_identical(farm.reference(), board, farm.voxels());
}

TEST(BudgetedLanes, DuplicatedDeliveryIsBitIdenticalOnAStreamedSource) {
  BudgetedFarm farm(2, 8);
  DriverOptions opts;
  opts.workers = 2;
  opts.voxels_per_task = 8;
  opts.faults.seed = 11;
  opts.faults.duplicate = 1.0;
  const core::Scoreboard board =
      run_cluster_analysis(farm.epochs(), farm.voxels(), opts);
  EXPECT_TRUE(board.complete());
  expect_bit_identical(farm.reference(), board, farm.voxels());
}

TEST(BudgetedLanes, ResumeIsBitIdenticalOnAStreamedSource) {
  BudgetedFarm farm(2, 8);
  // The first four of eight tasks already scored.
  core::Scoreboard partial(farm.voxels());
  const auto tasks = core::partition_voxels(farm.voxels(), 8);
  for (std::size_t t = 0; t < 4; ++t) {
    partial.add(core::run_task(farm.epochs(), tasks[t],
                               core::PipelineConfig::optimized()));
  }
  DriverOptions opts;
  opts.workers = 2;
  opts.voxels_per_task = 8;
  opts.resume = &partial;
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(farm.epochs(), farm.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_EQ(stats.tasks_dispatched, 4u);
  expect_bit_identical(farm.reference(), board, farm.voxels());
}

// ---------------------------------------------------------------------------
// Virtual-time simulator
// ---------------------------------------------------------------------------

FarmConfig farm(std::size_t workers) {
  FarmConfig c;
  c.workers = workers;
  c.broadcast_bytes = 1e9;
  return c;
}

TEST(Sim, SingleWorkerMakespanIsSumOfTasks) {
  const std::vector<double> tasks(10, 2.0);
  const FarmOutcome o = simulate_task_farm(farm(1), tasks, 1);
  EXPECT_NEAR(o.makespan_s, 20.0, 1.5);  // + broadcast + messages
  EXPECT_DOUBLE_EQ(o.compute_s, 20.0);
}

TEST(Sim, SpeedupIsMonotonicInWorkers) {
  const std::vector<double> tasks(288, 4.0);  // face-scene-like task count
  double prev = 1e18;
  for (const std::size_t w : {1u, 8u, 16u, 32u, 64u, 96u}) {
    const FarmOutcome o = simulate_task_farm(farm(w), tasks, 3);
    EXPECT_LT(o.makespan_s, prev) << w << " workers";
    prev = o.makespan_s;
  }
}

TEST(Sim, NearLinearSpeedupInTheEasyRegime) {
  const std::vector<double> tasks(512, 5.0);
  const double t1 = simulate_task_farm(farm(1), tasks, 1).makespan_s;
  const double t16 = simulate_task_farm(farm(16), tasks, 1).makespan_s;
  const double speedup = t1 / t16;
  EXPECT_GT(speedup, 14.0);
  EXPECT_LE(speedup, 16.1);
}

TEST(Sim, QuantizationLimitsSpeedupWhenTasksAreFew) {
  // 100 equal tasks on 96 workers: two waves for 4 workers -> speedup
  // capped at 50x.
  const std::vector<double> tasks(100, 10.0);
  const double t1 = simulate_task_farm(farm(1), tasks, 1).makespan_s;
  const double t96 = simulate_task_farm(farm(96), tasks, 1).makespan_s;
  EXPECT_LT(t1 / t96, 51.0);
  EXPECT_GT(t1 / t96, 45.0);
}

TEST(Sim, CommunicationFloorCapsTinyWorkloads) {
  // Online-analysis regime: many tiny tasks — master serialization floors
  // the makespan regardless of worker count.
  const std::vector<double> tasks(500, 0.002);
  const double t48 = simulate_task_farm(farm(48), tasks, 1).makespan_s;
  const double t96 = simulate_task_farm(farm(96), tasks, 1).makespan_s;
  EXPECT_LT(t48 / t96, 1.5);  // nowhere near 2x
}

TEST(Sim, BatchingLiftsTheCommunicationFloor) {
  // Same tiny-task regime as above, but the master hands out 10 tasks per
  // assignment message: the per-assignment latency amortizes 10x, so the
  // serialization floor drops and the makespan strictly improves.
  const std::vector<double> tasks(2000, 0.0005);
  FarmConfig per_task = farm(48);
  FarmConfig batched = farm(48);
  batched.tasks_per_request = 10;
  const double t1 = simulate_task_farm(per_task, tasks, 1).makespan_s;
  const double t10 = simulate_task_farm(batched, tasks, 1).makespan_s;
  EXPECT_LT(t10, t1);
}

TEST(Sim, BatchOfOneMatchesDefault) {
  const std::vector<double> tasks(64, 0.5);
  FarmConfig explicit_one = farm(8);
  explicit_one.tasks_per_request = 1;
  const double t_default = simulate_task_farm(farm(8), tasks, 2).makespan_s;
  const double t_one = simulate_task_farm(explicit_one, tasks, 2).makespan_s;
  EXPECT_DOUBLE_EQ(t_default, t_one);
}

TEST(Sim, ZeroBatchIsRejected) {
  FarmConfig c = farm(2);
  c.tasks_per_request = 0;
  EXPECT_THROW((void)simulate_task_farm(c, std::vector<double>{1.0}, 1),
               Error);
}

TEST(Sim, FoldsAreBarriers) {
  // One straggler task per fold: folds serialize behind it.
  std::vector<double> tasks(10, 1.0);
  tasks[0] = 20.0;
  const FarmOutcome one_fold = simulate_task_farm(farm(10), tasks, 1);
  const FarmOutcome four_folds = simulate_task_farm(farm(10), tasks, 4);
  EXPECT_NEAR(four_folds.makespan_s, 4.0 * one_fold.makespan_s,
              0.2 * one_fold.makespan_s + 1.0);
}

TEST(Sim, EfficiencyBetweenZeroAndOne) {
  const std::vector<double> tasks(64, 1.0);
  const FarmOutcome o = simulate_task_farm(farm(8), tasks, 2);
  const double eff = o.efficiency(8);
  EXPECT_GT(eff, 0.5);
  EXPECT_LE(eff, 1.0);
}

TEST(Sim, RejectsDegenerateInput) {
  EXPECT_THROW((void)simulate_task_farm(farm(0), std::vector<double>{1.0}, 1),
               Error);
  EXPECT_THROW((void)simulate_task_farm(farm(2), std::vector<double>{}, 1),
               Error);
  EXPECT_THROW(
      (void)simulate_task_farm(farm(2), std::vector<double>{-1.0}, 1), Error);
}

TEST(NetworkModel, TransferTimeComposition) {
  NetworkModel net;
  net.latency_s = 1e-4;
  net.bandwidth_bytes_per_s = 1e9;
  EXPECT_NEAR(net.transfer_s(1e9), 1.0001, 1e-6);
  EXPECT_NEAR(net.transfer_s(0), 1e-4, 1e-12);
}

// ---------------------------------------------------------------------------
// Calibrated cost model
// ---------------------------------------------------------------------------

TEST(CostModel, WorkUnitsScaleWithDims) {
  const TaskDims small{10, 1000, 24, 4};
  TaskDims big = small;
  big.brain_voxels *= 2;
  EXPECT_DOUBLE_EQ(work_units(big).corr_norm,
                   2.0 * work_units(small).corr_norm);
  big = small;
  big.epochs *= 3;
  EXPECT_DOUBLE_EQ(work_units(big).kernel, 9.0 * work_units(small).kernel);
  EXPECT_DOUBLE_EQ(work_units(big).svm, 9.0 * work_units(small).svm);
}

TEST(CostModel, ExtrapolatesEventsAcrossDims) {
  // Calibrate at one size, predict another, and compare against a real
  // instrumented run at the target size: the cross-scale error of the
  // stage-1 traffic terms should be modest.
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 96;
  const fmri::Dataset d_small = fmri::generate_synthetic(spec);
  spec.voxels = 192;
  spec.informative = 24;
  spec.seed = 7;  // same seed family
  const fmri::Dataset d_big = fmri::generate_synthetic(spec);

  const auto run = [](const fmri::Dataset& d, std::uint32_t count) {
    const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
    memsim::Instrument ins;
    return core::run_task_instrumented(
        ne, core::VoxelTask{0, count}, core::PipelineConfig::optimized(),
        ins);
  };
  const auto small_run = run(d_small, 8);
  const auto big_run = run(d_big, 16);

  const TaskDims small_dims{8, 96, 32, 4};
  const TaskDims big_dims{16, 192, 32, 4};
  const CalibratedCost cost(small_run, small_dims);
  const auto predicted = cost.estimate_events(big_dims);
  const auto actual = big_run.total();
  EXPECT_NEAR(static_cast<double>(predicted.mem_refs),
              static_cast<double>(actual.mem_refs),
              0.35 * static_cast<double>(actual.mem_refs));
  EXPECT_NEAR(static_cast<double>(predicted.flops),
              static_cast<double>(actual.flops),
              0.35 * static_cast<double>(actual.flops));
}

TEST(CostModel, MoreWorkMeansMoreTime) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 96;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  memsim::Instrument ins;
  const auto run = core::run_task_instrumented(
      ne, core::VoxelTask{0, 8}, core::PipelineConfig::optimized(), ins);
  const TaskDims calib{8, 96, 32, 4};
  const CalibratedCost cost(run, calib);
  const archsim::ArchModel phi = archsim::Phi5110P();
  TaskDims big = calib;
  big.brain_voxels = 34470;
  EXPECT_GT(cost.task_seconds(big, phi), cost.task_seconds(calib, phi));
}

TEST(CostModel, ThreadStarvationSlowsSvmStage) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 96;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  memsim::Instrument ins;
  const auto run = core::run_task_instrumented(
      ne, core::VoxelTask{0, 8}, core::PipelineConfig::baseline(), ins);
  const TaskDims calib{8, 96, 32, 4};
  const CalibratedCost cost(run, calib);
  const archsim::ArchModel phi = archsim::Phi5110P();
  EXPECT_GT(cost.task_seconds(calib, phi, 60),
            cost.task_seconds(calib, phi, 240));
}

}  // namespace
}  // namespace fcma::cluster
