// Tests for the EpochSource data plane: streamed panels must be bit-
// identical to the resident path — serial or pooled, in-memory or shard-
// backed, whole-brain or partitioned — and the cache must respect its
// byte budget.  Also covers the plan_residency budget split and run_tasks'
// single level of pool work.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/error.hpp"
#include "fcma/corr_norm.hpp"
#include "fcma/epoch_source.hpp"
#include "fcma/memory_model.hpp"
#include "fcma/pipeline.hpp"
#include "fmri/dataset_view.hpp"
#include "fmri/presets.hpp"
#include "fmri/shard_store.hpp"
#include "fmri/synthetic.hpp"
#include "threading/thread_pool.hpp"

namespace fcma::core {
namespace {

fmri::Dataset small_dataset() {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 40;
  spec.subjects = 3;
  spec.epochs_total = 12;
  return fmri::generate_synthetic(spec);
}

std::size_t panel_bytes(const fmri::Dataset& d) {
  return d.voxels() * static_cast<std::size_t>(d.epochs().front().length) *
         sizeof(float);
}

void expect_panels_equal(EpochSource& a, EpochSource& b) {
  ASSERT_EQ(a.meta().size(), b.meta().size());
  for (std::size_t m = 0; m < a.meta().size(); ++m) {
    const auto la = a.acquire(m, m + 1);
    const auto lb = b.acquire(m, m + 1);
    const linalg::Matrix& pa = la.epoch(m);
    const linalg::Matrix& pb = lb.epoch(m);
    ASSERT_EQ(pa.rows(), pb.rows());
    ASSERT_EQ(pa.cols(), pb.cols());
    EXPECT_EQ(std::memcmp(pa.row(0), pb.row(0),
                          pa.rows() * pa.ld() * sizeof(float)),
              0)
        << "epoch " << m;
  }
}

TEST(StreamedEpochs, PanelsMatchResidentBitForBit) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  ResidentEpochs resident(norm);
  const fmri::InMemoryView view(d);
  // Budget of one subject run + 1 — the floor — forces constant eviction.
  StreamedEpochs streamed(
      view, {(d.epochs_per_subject() + 1) * panel_bytes(d), nullptr});
  expect_panels_equal(resident, streamed);
}

TEST(StreamedEpochs, ShardBackedPanelsMatchResident) {
  const fmri::Dataset d = small_dataset();
  const auto stem = (std::filesystem::temp_directory_path() /
                     ("fcma_src_test_" + std::to_string(::getpid())))
                        .string();
  fmri::write_shard_store(stem, d);
  const auto view = fmri::open_shard_store(stem, "store");
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  ResidentEpochs resident(norm);
  StreamedEpochs streamed(*view, {2 * panel_bytes(d), nullptr});
  expect_panels_equal(resident, streamed);
  for (const auto& shard : view->shards()) {
    std::filesystem::remove(shard.path);
  }
  std::filesystem::remove(stem + ".shards");
  std::filesystem::remove(stem + ".epochs");
}

TEST(StreamedEpochs, CacheStaysWithinBudget) {
  const fmri::Dataset d = small_dataset();
  const fmri::InMemoryView view(d);
  const std::size_t budget = (d.epochs_per_subject() + 1) * panel_bytes(d);
  StreamedEpochs streamed(view, {budget, nullptr});
  for (std::size_t m = 0; m < streamed.meta().size(); ++m) {
    const auto lease = streamed.acquire(m, m + 1);
    EXPECT_LE(streamed.resident_bytes(), budget);
  }
  // After the sweep nothing is pinned, so the cache must still be within
  // budget and strictly smaller than the dataset.
  EXPECT_LE(streamed.resident_bytes(), budget);
  EXPECT_LT(streamed.resident_panels(), streamed.meta().size());
}

TEST(StreamedEpochs, SubsetSelectsAndReordersEpochs) {
  const fmri::Dataset d = small_dataset();
  const fmri::InMemoryView view(d);
  const std::vector<std::size_t> subset{4, 5, 6, 7, 0, 1, 2, 3};
  StreamedEpochs streamed(view, subset, {0, nullptr});
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d, subset);
  ASSERT_EQ(streamed.meta().size(), subset.size());
  for (std::size_t m = 0; m < subset.size(); ++m) {
    EXPECT_EQ(streamed.meta()[m].start, norm.meta[m].start);
    const auto lease = streamed.acquire(m, m + 1);
    const linalg::Matrix& panel = lease.epoch(m);
    EXPECT_EQ(std::memcmp(panel.row(0), norm.per_epoch[m].row(0),
                          panel.rows() * panel.ld() * sizeof(float)),
              0);
  }
}

TEST(StreamedEpochs, PooledPrefetchIsBitIdentical) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView view(d);
  threading::ThreadPool pool(2);
  const std::size_t budget = (d.epochs_per_subject() + 1) * panel_bytes(d);
  StreamedEpochs streamed(view, {budget, &pool});
  ResidentEpochs resident(norm);
  for (std::size_t m = 0; m < streamed.meta().size(); ++m) {
    streamed.prefetch(m + 1, m + 3);
    const auto ls = streamed.acquire(m, m + 1);
    const auto lr = resident.acquire(m, m + 1);
    EXPECT_EQ(std::memcmp(ls.epoch(m).row(0), lr.epoch(m).row(0),
                          ls.epoch(m).rows() * ls.epoch(m).ld() *
                              sizeof(float)),
              0);
  }
}

TEST(StreamedEpochs, RunTaskMatchesResidentExactly) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView view(d);
  const VoxelTask task{0, static_cast<std::uint32_t>(d.voxels())};
  const PipelineConfig config = PipelineConfig::optimized();

  const TaskResult want = run_task(norm, task, config);
  StreamedEpochs streamed(
      view, {(d.epochs_per_subject() + 1) * panel_bytes(d), nullptr});
  const TaskResult got = run_task(streamed, task, config);
  ASSERT_EQ(got.accuracy.size(), want.accuracy.size());
  for (std::size_t v = 0; v < want.accuracy.size(); ++v) {
    EXPECT_EQ(got.accuracy[v], want.accuracy[v]) << "voxel " << v;
  }
}

TEST(StreamedEpochs, PartitionedGroupedRunMatchesWholeBrain) {
  // Grain invariance: per-voxel accuracies do not depend on how the brain
  // is partitioned into tasks or groups — the invariant the budgeted CLI
  // paths rely on for byte-identical reports.
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView view(d);
  const PipelineConfig config = PipelineConfig::optimized();

  const TaskResult whole = run_task_grouped(
      norm, VoxelTask{0, static_cast<std::uint32_t>(d.voxels())}, config, 16);

  StreamedEpochs streamed(
      view, {(d.epochs_per_subject() + 1) * panel_bytes(d), nullptr});
  std::vector<double> accuracy(d.voxels(), 0.0);
  for (const VoxelTask& task : partition_voxels(d.voxels(), 13)) {
    const TaskResult part = run_task_grouped(streamed, task, config, 5);
    for (std::size_t v = 0; v < part.accuracy.size(); ++v) {
      accuracy[task.first + v] = part.accuracy[v];
    }
  }
  for (std::size_t v = 0; v < d.voxels(); ++v) {
    EXPECT_EQ(accuracy[v], whole.accuracy[v]) << "voxel " << v;
  }
}

// The grouped pipeline's pooled stages 1-2 (column panels across the pool,
// one serial syrk per voxel) against the pool-less run, over the whole
// configuration space: N = 1100 gives three column panels, the last a
// ragged 76 wide; pools of 1-4 threads; groups of 1, 7 and the whole task;
// resident panels and streamed ones under a budget that forces evictions.
class PooledGroupedPipeline : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PooledGroupedPipeline, IsBitIdenticalToThePoolLessRun) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 1100;
  spec.informative = 32;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView view(d);
  const VoxelTask task{500, 20};
  const PipelineConfig serial = PipelineConfig::optimized();
  const TaskResult want = run_task_grouped(norm, task, serial, task.count);
  ResidentEpochs resident(norm);
  const std::vector<linalg::Matrix> want_kernels =
      grouped_kernels(resident, task, serial, task.count);

  threading::ThreadPool pool(GetParam());
  PipelineConfig pooled = serial;
  pooled.pool = &pool;

  // Stage 1+2 output itself, byte for byte.
  const std::size_t m = norm.meta.size();
  linalg::Matrix corr_serial(task.count * m, d.voxels());
  linalg::Matrix corr_pooled(task.count * m, d.voxels());
  optimized_correlate_normalize(resident, task, corr_serial.view(),
                                NormMode::kMerged);
  optimized_correlate_normalize(resident, task, corr_pooled.view(),
                                NormMode::kMerged, &pool);
  EXPECT_EQ(std::memcmp(corr_serial.data(), corr_pooled.data(),
                        corr_serial.rows() * corr_serial.ld() * sizeof(float)),
            0);

  const std::size_t budget = (d.epochs_per_subject() + 1) * panel_bytes(d);
  for (const std::size_t group : {std::size_t{1}, std::size_t{7},
                                  static_cast<std::size_t>(task.count)}) {
    SCOPED_TRACE("group " + std::to_string(group));
    StreamedEpochs streamed(view, {budget, &pool});
    // Kernel matrices byte for byte: SVM accuracies alone would hide a
    // last-bit change in them.
    for (EpochSource* source : {static_cast<EpochSource*>(&resident),
                                static_cast<EpochSource*>(&streamed)}) {
      const auto kernels = grouped_kernels(*source, task, pooled, group);
      ASSERT_EQ(kernels.size(), want_kernels.size());
      for (std::size_t v = 0; v < kernels.size(); ++v) {
        EXPECT_EQ(std::memcmp(kernels[v].data(), want_kernels[v].data(),
                              m * m * sizeof(float)),
                  0)
            << "voxel " << v;
      }
    }
    const TaskResult from_resident =
        run_task_grouped(resident, task, pooled, group);
    const TaskResult from_streamed =
        run_task_grouped(streamed, task, pooled, group);
    EXPECT_LT(streamed.resident_panels(), streamed.meta().size());
    ASSERT_EQ(from_resident.accuracy.size(), want.accuracy.size());
    ASSERT_EQ(from_streamed.accuracy.size(), want.accuracy.size());
    for (std::size_t v = 0; v < want.accuracy.size(); ++v) {
      EXPECT_EQ(from_resident.accuracy[v], want.accuracy[v]) << "voxel " << v;
      EXPECT_EQ(from_streamed.accuracy[v], want.accuracy[v]) << "voxel " << v;
    }
    EXPECT_EQ(from_resident.svm_iterations, want.svm_iterations);
    EXPECT_EQ(from_streamed.svm_iterations, want.svm_iterations);
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, PooledGroupedPipeline,
                         ::testing::Values(1, 2, 3, 4));

// run_tasks spreads whole tasks over the pool and runs each task's stages
// inline on its worker: one scheduler task per FCMA task, nothing nested
// below it.  Resident panels keep the count exact (a streamed source's
// prefetch also runs on the pool).
TEST(RunTasks, SpawnsOnePoolTaskPerTask) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  ResidentEpochs resident(norm);
  const std::vector<VoxelTask> tasks = partition_voxels(d.voxels(), 8);
  ASSERT_EQ(tasks.size(), 5u);
  threading::ThreadPool pool(3);
  PipelineConfig config = PipelineConfig::optimized();
  config.pool = &pool;
  const std::uint64_t before = pool.scheduler().stats().executed;
  const std::vector<TaskResult> results = run_tasks(resident, tasks, config);
  EXPECT_EQ(pool.scheduler().stats().executed - before, tasks.size());
  EXPECT_EQ(results.size(), tasks.size());
}

// Pooled run_tasks against the serial loop of run_task, over pools of 1-4
// threads, on resident panels and on streamed ones under a budget that
// forces evictions.
class PooledRunTasks : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PooledRunTasks, MatchesTheSerialLoop) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView view(d);
  const std::vector<VoxelTask> tasks = partition_voxels(d.voxels(), 7);
  const PipelineConfig serial = PipelineConfig::optimized();
  std::vector<TaskResult> want;
  for (const VoxelTask& task : tasks) {
    want.push_back(run_task(norm, task, serial));
  }

  threading::ThreadPool pool(GetParam());
  PipelineConfig pooled = serial;
  pooled.pool = &pool;
  ResidentEpochs resident(norm);
  StreamedEpochs streamed(
      view, {(d.epochs_per_subject() + 1) * panel_bytes(d), &pool});
  for (EpochSource* source : {static_cast<EpochSource*>(&resident),
                              static_cast<EpochSource*>(&streamed)}) {
    const std::vector<TaskResult> got = run_tasks(*source, tasks, pooled);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t t = 0; t < want.size(); ++t) {
      ASSERT_EQ(got[t].accuracy.size(), want[t].accuracy.size());
      for (std::size_t v = 0; v < want[t].accuracy.size(); ++v) {
        EXPECT_EQ(got[t].accuracy[v], want[t].accuracy[v])
            << "task " << t << " voxel " << v;
      }
      EXPECT_EQ(got[t].svm_iterations, want[t].svm_iterations);
    }
  }
  EXPECT_LT(streamed.resident_panels(), streamed.meta().size());
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, PooledRunTasks,
                         ::testing::Values(1, 2, 3, 4));

// Counts epoch_panel calls: one per panel load.
class CountingView final : public fmri::DatasetView {
 public:
  explicit CountingView(const fmri::DatasetView& inner) : inner_(inner) {}
  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  [[nodiscard]] std::size_t voxels() const override { return inner_.voxels(); }
  [[nodiscard]] std::size_t timepoints() const override {
    return inner_.timepoints();
  }
  [[nodiscard]] std::int32_t subjects() const override {
    return inner_.subjects();
  }
  [[nodiscard]] const std::vector<fmri::Epoch>& epochs() const override {
    return inner_.epochs();
  }
  [[nodiscard]] Panel epoch_panel(std::size_t idx) const override {
    loads_.fetch_add(1, std::memory_order_relaxed);
    return inner_.epoch_panel(idx);
  }
  [[nodiscard]] std::size_t loads() const { return loads_.load(); }

 private:
  const fmri::DatasetView& inner_;
  mutable std::atomic<std::size_t> loads_{0};
};

// Checks the cache's footprint each time the pipeline pins a range.
class FootprintCheckingSource final : public EpochSource {
 public:
  FootprintCheckingSource(StreamedEpochs& inner, std::size_t panel)
      : inner_(inner), panel_(panel) {}
  [[nodiscard]] const std::vector<fmri::Epoch>& meta() const override {
    return inner_.meta();
  }
  [[nodiscard]] std::size_t voxels() const override { return inner_.voxels(); }
  [[nodiscard]] Lease acquire(std::size_t first, std::size_t last) override {
    Lease lease = inner_.acquire(first, last);
    EXPECT_LE(inner_.resident_bytes(),
              inner_.budget_bytes() + (last - first) * panel_);
    return lease;
  }
  void prefetch(std::size_t first, std::size_t last) override {
    inner_.prefetch(first, last);
  }

 private:
  StreamedEpochs& inner_;
  std::size_t panel_;
};

TEST(StreamedEpochs, EvictedPanelBuffersAreRecycled) {
  // A pooled grouped run sweeps every subject run once per group, so it
  // loads far more panels than the budget holds.  Each load past the budget
  // takes over the evicted panel's buffer: the cache allocates the panels
  // that fit at once and never holds more than the budget plus what the
  // pipeline has pinned.
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView inner(d);
  const CountingView view(inner);
  const std::size_t panel = panel_bytes(d);
  const std::size_t budget = (d.epochs_per_subject() + 1) * panel;
  threading::ThreadPool pool(3);
  PipelineConfig config = PipelineConfig::optimized();
  config.pool = &pool;
  const VoxelTask task{0, static_cast<std::uint32_t>(d.voxels())};

  StreamedEpochs streamed(view, {budget, &pool});
  FootprintCheckingSource checked(streamed, panel);
  const TaskResult got = run_task_grouped(checked, task, config, 5);

  EXPECT_EQ(streamed.panel_allocations(), budget / panel);
  EXPECT_GT(view.loads(), 2 * streamed.panel_allocations());
  EXPECT_LE(streamed.resident_bytes(), budget);
  const TaskResult want = run_task_grouped(norm, task, config, 5);
  for (std::size_t v = 0; v < want.accuracy.size(); ++v) {
    EXPECT_EQ(got.accuracy[v], want.accuracy[v]) << "voxel " << v;
  }
}

TEST(BudgetPlan, IsDeterministicAndWithinBudget) {
  const BudgetPlan plan = plan_residency(/*total_epochs=*/96,
                                         /*epochs_per_subject=*/12,
                                         /*brain_voxels=*/4096,
                                         /*epoch_length=*/64,
                                         /*budget_bytes=*/64u << 20);
  const BudgetPlan again = plan_residency(96, 12, 4096, 64, 64u << 20);
  EXPECT_EQ(plan.panel_cache_bytes, again.panel_cache_bytes);
  EXPECT_EQ(plan.group_voxels, again.group_voxels);
  EXPECT_EQ(plan.voxels_per_task, again.voxels_per_task);

  EXPECT_GT(plan.group_voxels, 0u);
  EXPECT_GE(plan.voxels_per_task, plan.group_voxels);
  // Panel cache floor: one subject run + one prefetched panel.
  const std::size_t panel = 4096 * 64 * sizeof(float);
  EXPECT_GE(plan.panel_cache_bytes, 13 * panel);
  // The planned pieces stay within the planning fraction of the budget.
  const std::size_t corr = plan.group_voxels *
                           corr_bytes_per_voxel(96, 4096);
  EXPECT_LE(plan.panel_cache_bytes + corr, (64u << 20) * 5 / 8);
}

TEST(BudgetPlan, ImpossibleBudgetThrows) {
  EXPECT_THROW((void)plan_residency(96, 12, 4096, 64, 1u << 20), Error);
  EXPECT_THROW((void)plan_residency(96, 12, 4096, 64, 0), Error);
  EXPECT_THROW((void)plan_residency(0, 12, 4096, 64, 1u << 30), Error);
}

}  // namespace
}  // namespace fcma::core
