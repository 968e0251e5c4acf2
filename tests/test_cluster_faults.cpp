// Tests for the heterogeneous / fault-injected cluster simulation and the
// KNL architecture preset.
#include <gtest/gtest.h>

#include <limits>

#include "archsim/arch_model.hpp"
#include "cluster/sim.hpp"
#include "common/error.hpp"

namespace fcma::cluster {
namespace {

FarmConfig basic_config() {
  FarmConfig c;
  c.broadcast_bytes = 0.0;
  c.task_overhead_s = 0.0;
  return c;
}

std::vector<WorkerProfile> uniform_workers(std::size_t n) {
  return std::vector<WorkerProfile>(n, WorkerProfile{});
}

TEST(FaultSim, UniformWorkersMatchHomogeneousModel) {
  const std::vector<double> tasks(64, 2.0);
  FarmConfig config = basic_config();
  config.workers = 8;
  const double homogeneous =
      simulate_task_farm(config, tasks, 2).makespan_s;
  const auto workers = uniform_workers(8);
  const double heterogeneous =
      simulate_task_farm(config, tasks, 2, workers).base.makespan_s;
  EXPECT_NEAR(heterogeneous, homogeneous, 0.05 * homogeneous);
}

TEST(FaultSim, StragglerSlowsTheFarm) {
  const std::vector<double> tasks(64, 2.0);
  FarmConfig config = basic_config();
  auto workers = uniform_workers(8);
  const double uniform =
      simulate_task_farm(config, tasks, 1, workers).base.makespan_s;
  workers[3].speed = 0.25;  // one node at quarter speed
  const double straggler =
      simulate_task_farm(config, tasks, 1, workers).base.makespan_s;
  EXPECT_GT(straggler, uniform);
  // The task farm self-balances: nowhere near the 4x a static split costs.
  EXPECT_LT(straggler, 2.0 * uniform);
}

TEST(FaultSim, FasterNodesShortenMakespan) {
  const std::vector<double> tasks(64, 2.0);
  FarmConfig config = basic_config();
  auto workers = uniform_workers(8);
  const double uniform =
      simulate_task_farm(config, tasks, 1, workers).base.makespan_s;
  for (auto& w : workers) w.speed = 2.0;
  const double fast =
      simulate_task_farm(config, tasks, 1, workers).base.makespan_s;
  EXPECT_NEAR(fast, uniform / 2.0, 0.15 * uniform);
}

TEST(FaultSim, DeadWorkerTasksAreReassignedAndCompleted) {
  const std::vector<double> tasks(40, 2.0);
  FarmConfig config = basic_config();
  auto workers = uniform_workers(4);
  workers[0].fails_at = 3.0;  // dies during its second task
  const FarmOutcomeEx outcome =
      simulate_task_farm(config, tasks, 1, workers);
  EXPECT_EQ(outcome.workers_lost, 1u);
  EXPECT_GE(outcome.tasks_reassigned, 1u);
  // All work still completed (compute_s counts every finished task).
  EXPECT_NEAR(outcome.base.compute_s, 40 * 2.0, 1e-6);
  // And the loss costs time vs the healthy cluster.
  const double healthy =
      simulate_task_farm(config, tasks, 1, uniform_workers(4))
          .base.makespan_s;
  EXPECT_GT(outcome.base.makespan_s, healthy);
}

TEST(FaultSim, NodeDeadFromStartActsLikeSmallerCluster) {
  const std::vector<double> tasks(60, 1.0);
  FarmConfig config = basic_config();
  auto workers = uniform_workers(6);
  workers[5].fails_at = 0.0;
  const double five_alive =
      simulate_task_farm(config, tasks, 1, uniform_workers(5))
          .base.makespan_s;
  const double with_dead =
      simulate_task_farm(config, tasks, 1, workers).base.makespan_s;
  EXPECT_NEAR(with_dead, five_alive, 0.15 * five_alive);
}

TEST(FaultSim, AllWorkersDeadThrows) {
  const std::vector<double> tasks(4, 1.0);
  FarmConfig config = basic_config();
  auto workers = uniform_workers(2);
  workers[0].fails_at = 0.0;
  workers[1].fails_at = 0.0;
  EXPECT_THROW((void)simulate_task_farm(config, tasks, 1, workers),
               Error);
}

TEST(FaultSim, DetectionLatencyDelaysReassignment) {
  const std::vector<double> tasks(8, 2.0);
  FarmConfig slow_detect = basic_config();
  slow_detect.failure_detect_s = 30.0;
  FarmConfig fast_detect = basic_config();
  fast_detect.failure_detect_s = 0.5;
  auto workers = uniform_workers(2);
  workers[0].fails_at = 1.0;
  const double slow =
      simulate_task_farm(slow_detect, tasks, 1, workers).base.makespan_s;
  const double fast =
      simulate_task_farm(fast_detect, tasks, 1, workers).base.makespan_s;
  EXPECT_LE(fast, slow);
}

TEST(FaultSim, RecoveryOverheadIsZeroWithoutFailures) {
  const std::vector<double> tasks(32, 1.0);
  FarmConfig config = basic_config();
  const auto workers = uniform_workers(4);
  const FarmOutcomeEx outcome =
      simulate_task_farm(config, tasks, 2, workers);
  EXPECT_EQ(outcome.workers_lost, 0u);
  EXPECT_DOUBLE_EQ(outcome.recovery_overhead_s, 0.0);
}

TEST(FaultSim, RecoveryOverheadChargedPerDeath) {
  const std::vector<double> tasks(40, 2.0);
  FarmConfig config = basic_config();
  auto workers = uniform_workers(4);
  workers[0].fails_at = 3.0;
  const FarmOutcomeEx outcome =
      simulate_task_farm(config, tasks, 1, workers);
  EXPECT_EQ(outcome.workers_lost, 1u);
  // At least the detection window; at most detection + one full task of
  // wasted partial compute per reassignment.
  EXPECT_GE(outcome.recovery_overhead_s, config.failure_detect_s);
  EXPECT_LE(outcome.recovery_overhead_s,
            static_cast<double>(outcome.tasks_reassigned) *
                (config.failure_detect_s + 2.0) + 1e-9);
}

TEST(FaultSim, RecoveryOverheadGrowsWithDetectionLatency) {
  const std::vector<double> tasks(8, 2.0);
  FarmConfig slow_detect = basic_config();
  slow_detect.failure_detect_s = 30.0;
  FarmConfig fast_detect = basic_config();
  fast_detect.failure_detect_s = 0.5;
  auto workers = uniform_workers(2);
  workers[0].fails_at = 1.0;
  const double slow =
      simulate_task_farm(slow_detect, tasks, 1, workers).recovery_overhead_s;
  const double fast =
      simulate_task_farm(fast_detect, tasks, 1, workers).recovery_overhead_s;
  EXPECT_GT(slow, fast);
}

TEST(FaultSim, RejectsBadProfiles) {
  const std::vector<double> tasks(4, 1.0);
  FarmConfig config = basic_config();
  std::vector<WorkerProfile> workers{WorkerProfile{0.0, 1e9}};
  EXPECT_THROW((void)simulate_task_farm(config, tasks, 1, workers),
               Error);
  EXPECT_THROW((void)simulate_task_farm(config, tasks, 1,
                                        std::span<const WorkerProfile>{}),
               Error);
}

// ---------------------------------------------------------------------------
// KNL forward-port model (paper's conclusion: "migrated ... to KNL")
// ---------------------------------------------------------------------------

TEST(Knl, PeakMatchesDatasheet) {
  // 68 cores x 16 lanes x 2 flops x 2 VPUs x 1.4 GHz ~ 6.1 TFLOPS SP.
  EXPECT_NEAR(archsim::PhiKnl7250().peak_sp_gflops(), 6092.8, 1.0);
  EXPECT_EQ(archsim::PhiKnl7250().max_threads(), 272);
}

TEST(Knl, OutrunsKncOnTheSameEvents) {
  const memsim::KernelEvents events{.flops = 1ull << 32,
                                    .vpu_instructions = 1ull << 28,
                                    .vpu_elements = 1ull << 32,
                                    .mem_refs = 1ull << 28,
                                    .l1_misses = 1ull << 24,
                                    .l2_misses = 1ull << 23};
  const double knc = archsim::Phi5110P().modeled_seconds(events);
  const double knl = archsim::PhiKnl7250().modeled_seconds(events);
  EXPECT_LT(knl, knc / 2.0);
}

}  // namespace
}  // namespace fcma::cluster
