// Tests for the EpochSource data plane: streamed row leases must be
// bit-identical to the resident path — serial or pooled, in-memory or
// shard-backed, whole-brain, column-swept or partitioned — the row buffers
// must respect their byte budget, and the column sweep must read each
// panel row once per task.  Also covers the plan_residency budget split,
// run_tasks' single level of pool work, the leases of offline's
// selected-voxel features and each thread's one spare correlation block.
#include <gtest/gtest.h>

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/timeline.hpp"
#include "common/tlstream.hpp"
#include "common/trace.hpp"
#include "fcma/corr_norm.hpp"
#include "fcma/epoch_source.hpp"
#include "fcma/memory_model.hpp"
#include "fcma/offline.hpp"
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

// A shard store of `d` in a fresh temporary directory, removed with it.
class TempShardStore {
 public:
  TempShardStore(const fmri::Dataset& d, const std::string& tag)
      : dir_(std::filesystem::temp_directory_path() /
             (tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    fmri::write_shard_store((dir_ / "store").string(), d);
    view_ = fmri::open_shard_store((dir_ / "store").string(), "store");
  }
  TempShardStore(const TempShardStore&) = delete;
  TempShardStore& operator=(const TempShardStore&) = delete;
  ~TempShardStore() {
    view_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] const fmri::ShardStoreView& view() const { return *view_; }

 private:
  std::filesystem::path dir_;
  std::unique_ptr<fmri::ShardStoreView> view_;
};

// Row by row: the two views may differ in leading dimension.
void expect_views_equal(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                        std::size_t m) {
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.cols, b.cols);
  for (std::size_t r = 0; r < a.rows; ++r) {
    EXPECT_EQ(std::memcmp(a.row(r), b.row(r), a.cols * sizeof(float)), 0)
        << "epoch " << m << " row " << r;
  }
}

void expect_panels_equal(EpochSource& a, EpochSource& b) {
  ASSERT_EQ(a.meta().size(), b.meta().size());
  for (std::size_t m = 0; m < a.meta().size(); ++m) {
    const auto la = a.acquire(m, m + 1);
    const auto lb = b.acquire(m, m + 1);
    ASSERT_EQ(la.epoch(m).rows, a.voxels());
    expect_views_equal(la.epoch(m), lb.epoch(m), m);
  }
}

TEST(StreamedEpochs, PanelsMatchResidentBitForBit) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  ResidentEpochs resident(norm);
  const fmri::InMemoryView view(d);
  // Budget of one subject run + 1 — the plan's floor.
  StreamedEpochs streamed(
      view, {(d.epochs_per_subject() + 1) * panel_bytes(d)});
  expect_panels_equal(resident, streamed);
}

TEST(StreamedEpochs, ShardBackedPanelsMatchResident) {
  const fmri::Dataset d = small_dataset();
  const TempShardStore store(d, "fcma_src_test");
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  ResidentEpochs resident(norm);
  StreamedEpochs streamed(store.view(), {2 * panel_bytes(d)});
  expect_panels_equal(resident, streamed);
}

TEST(StreamedEpochs, RowLeasesMatchResidentRows) {
  // Every row range of every epoch range equals the same rows of the
  // resident panels bit for bit: whole, single, unaligned, ragged at the
  // end and empty rows; one epoch, a subject run, a range across subjects
  // and all epochs.  Streamed from memory and from shards, and through the
  // default form that narrows acquire() (ResidentEpochs).
  const fmri::Dataset d = small_dataset();
  const TempShardStore store(d, "fcma_row_lease_test");
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView memory(d);
  const std::size_t budget = 2 * panel_bytes(d);
  ResidentEpochs resident(norm);
  StreamedEpochs from_memory(memory, {budget});
  StreamedEpochs from_shards(store.view(), {budget});
  const std::size_t n = d.voxels();
  const std::size_t m_total = norm.meta.size();
  const std::size_t per = d.epochs_per_subject();
  const std::pair<std::size_t, std::size_t> row_ranges[] = {
      {0, n}, {0, 1}, {13, 29}, {n - 7, n}, {5, 5}};
  const std::pair<std::size_t, std::size_t> epoch_ranges[] = {
      {3, 4}, {per, 2 * per}, {per - 2, per + 3}, {0, m_total}};
  for (EpochSource* source : {static_cast<EpochSource*>(&resident),
                              static_cast<EpochSource*>(&from_memory),
                              static_cast<EpochSource*>(&from_shards)}) {
    for (const auto& [first, last] : epoch_ranges) {
      for (const auto& [r0, r1] : row_ranges) {
        SCOPED_TRACE("epochs [" + std::to_string(first) + ", " +
                     std::to_string(last) + ") rows [" + std::to_string(r0) +
                     ", " + std::to_string(r1) + ")");
        const EpochSource::RowLease lease =
            source->acquire_rows(first, last, r0, r1);
        for (std::size_t m = first; m < last; ++m) {
          const linalg::ConstMatrixView rows = lease.epoch(m);
          const linalg::Matrix& panel = norm.per_epoch[m];
          ASSERT_EQ(rows.rows, r1 - r0);
          ASSERT_EQ(rows.cols, panel.cols());
          for (std::size_t r = 0; r < rows.rows; ++r) {
            EXPECT_EQ(std::memcmp(rows.row(r), panel.row(r0 + r),
                                  rows.cols * sizeof(float)),
                      0)
                << "epoch " << m << " row " << r0 + r;
          }
        }
      }
    }
    EXPECT_THROW((void)source->acquire_rows(0, 1, 0, n + 1), Error);
    EXPECT_THROW((void)source->acquire_rows(0, 1, 9, 8), Error);
    EXPECT_THROW((void)source->acquire_rows(0, m_total + 1, 0, 1), Error);
    EXPECT_THROW((void)source->acquire_rows(2, 1, 0, 1), Error);
  }
  // Released row buffers stay spares within the budget.
  EXPECT_LE(from_memory.resident_bytes(), budget);
  EXPECT_LE(from_shards.resident_bytes(), budget);
}

TEST(StreamedEpochs, CacheStaysWithinBudget) {
  const fmri::Dataset d = small_dataset();
  const fmri::InMemoryView view(d);
  const std::size_t budget = (d.epochs_per_subject() + 1) * panel_bytes(d);
  StreamedEpochs streamed(view, {budget});
  for (std::size_t m = 0; m < streamed.meta().size(); ++m) {
    const auto lease = streamed.acquire(m, m + 1);
    EXPECT_LE(streamed.resident_bytes(), budget);
  }
  // After the sweep nothing is leased: the spares stay within budget.
  EXPECT_LE(streamed.resident_bytes(), budget);
}

TEST(StreamedEpochs, SubsetSelectsAndReordersEpochs) {
  const fmri::Dataset d = small_dataset();
  const fmri::InMemoryView view(d);
  const std::vector<std::size_t> subset{4, 5, 6, 7, 0, 1, 2, 3};
  StreamedEpochs streamed(view, subset, {0});
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d, subset);
  ASSERT_EQ(streamed.meta().size(), subset.size());
  for (std::size_t m = 0; m < subset.size(); ++m) {
    EXPECT_EQ(streamed.meta()[m].start, norm.meta[m].start);
    const auto lease = streamed.acquire(m, m + 1);
    expect_views_equal(lease.epoch(m), norm.per_epoch[m].view(), m);
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
      view, {(d.epochs_per_subject() + 1) * panel_bytes(d)});
  const TaskResult got = run_task(streamed, task, config);
  ASSERT_EQ(got.accuracy.size(), want.accuracy.size());
  for (std::size_t v = 0; v < want.accuracy.size(); ++v) {
    EXPECT_EQ(got.accuracy[v], want.accuracy[v]) << "voxel " << v;
  }
}

TEST(StreamedEpochs, PartitionedGroupedRunMatchesWholeBrain) {
  // Grain invariance: per-voxel accuracies do not depend on how the brain
  // is partitioned into tasks or groups — the invariant the budgeted CLI
  // paths rely on for byte-identical reports.  For the merged stages, the
  // separated ones and the baseline, whose stages lease every row of one
  // epoch at a time, with the SVMs on a pool; the row buffers stay within
  // the budget throughout.
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView view(d);
  const std::size_t budget = (d.epochs_per_subject() + 1) * panel_bytes(d);
  threading::ThreadPool pool(3);
  PipelineConfig separated = PipelineConfig::optimized();
  separated.norm_mode = NormMode::kSeparated;
  for (PipelineConfig config :
       {PipelineConfig::optimized(), separated, PipelineConfig::baseline()}) {
    SCOPED_TRACE(config.impl == Impl::kBaseline ? "baseline"
                 : config.norm_mode == NormMode::kMerged ? "merged"
                                                         : "separated");
    const TaskResult whole = run_task_grouped(
        norm, VoxelTask{0, static_cast<std::uint32_t>(d.voxels())}, config,
        16);

    config.pool = &pool;
    StreamedEpochs streamed(view, {budget});
    std::vector<double> accuracy(d.voxels(), 0.0);
    for (const VoxelTask& task : partition_voxels(d.voxels(), 13)) {
      const TaskResult part = run_task_grouped(streamed, task, config, 5);
      for (std::size_t v = 0; v < part.accuracy.size(); ++v) {
        accuracy[task.first + v] = part.accuracy[v];
      }
      EXPECT_LE(streamed.resident_bytes(), budget);
    }
    for (std::size_t v = 0; v < d.voxels(); ++v) {
      EXPECT_EQ(accuracy[v], whole.accuracy[v]) << "voxel " << v;
    }
  }
}

TEST(ColumnSweep, OneWidthPerLane) {
  // One rule: a block of kSweepPanelCols columns per lane (the whole brain
  // when narrower), and the widest voxel group whose blocks stay within
  // group_voxels x N columns, clamped to [1, task].
  constexpr std::size_t n = 3500;
  EXPECT_EQ(kSweepPanelCols, 384u);
  EXPECT_EQ(column_sweep(20, n, 20, 1).block, 384u);
  EXPECT_EQ(column_sweep(20, n, 20, 1).group, 20u);
  EXPECT_EQ(column_sweep(20, n, 20, 2).block, 768u);
  EXPECT_EQ(column_sweep(20, n, 20, 2).group, 20u);
  EXPECT_EQ(column_sweep(20, n, 20, 4).block, 1536u);
  EXPECT_EQ(column_sweep(20, n, 20, 4).group, 20u);
  // A pool wider than N / 384 sweeps the brain as one block.
  EXPECT_EQ(column_sweep(20, n, 20, 10).block, n);
  EXPECT_EQ(column_sweep(20, n, 20, 10).group, 20u);
  // A group cap that splits the task: 1 x 3500 columns hold 9 voxels'
  // 384-column blocks, 2 voxels' 1536-column blocks and 1 whole voxel.
  EXPECT_EQ(column_sweep(20, n, 1, 1).group, 9u);
  EXPECT_EQ(column_sweep(20, n, 1, 4).group, 2u);
  EXPECT_EQ(column_sweep(20, n, 1, 10).group, 1u);
  EXPECT_EQ(column_sweep(20, n, 7, 4).group, 15u);
  // An empty task still gets a valid group; a brain narrower than one
  // panel is one block.
  EXPECT_EQ(column_sweep(0, n, 20, 1).group, 1u);
  EXPECT_EQ(column_sweep(20, 100, 20, 4).block, 100u);
  EXPECT_THROW((void)column_sweep(20, n, 0, 1), Error);
  EXPECT_THROW((void)column_sweep(20, 0, 20, 1), Error);
  EXPECT_THROW((void)column_sweep(20, n, 20, 0), Error);
}

TEST(ColumnSweep, InFlightCorrelationNeverExceedsTheCap) {
  // Whatever the task, brain, cap and pool, a group x block holds at most
  // group_voxels x N columns of an epoch row — group_voxels x M x N floats
  // of correlation — and every block but the last starts and ends on a
  // panel edge.
  for (const std::size_t task : {1u, 7u, 20u, 64u, 1000u, 8192u}) {
    for (const std::size_t n : {1u, 100u, 384u, 1100u, 3500u, 8192u}) {
      for (const std::size_t cap : {1u, 2u, 7u, 9u, 64u, 8192u}) {
        for (const std::size_t lanes : {1u, 2u, 3u, 4u, 16u}) {
          const ColumnSweep sweep = column_sweep(task, n, cap, lanes);
          SCOPED_TRACE(std::to_string(task) + " " + std::to_string(n) + " " +
                       std::to_string(cap) + " " + std::to_string(lanes));
          EXPECT_GE(sweep.group, 1u);
          EXPECT_LE(sweep.group, task);
          EXPECT_LE(sweep.group * sweep.block, cap * n);
          EXPECT_EQ(sweep.block, std::min(n, kSweepPanelCols * lanes));
        }
      }
    }
  }
}

// The grouped pipeline's pooled column sweep ((panel, voxel block) units
// across the pool, one serial syrk accumulation per voxel and block)
// against the pool-less whole-brain run, over the whole configuration
// space: pools of 1-4 lanes sweep N = 3500 in blocks of 384, 768, 1152 and
// 1536 columns, whose ragged last blocks are 44 or 428 wide (a ragged
// panel of 44 columns, and a ragged last syrk panel of 44); groups that
// split the task into voxel groups (1, and 7 on four lanes) or sweep it
// whole (9, 18, 20); resident panels and streamed ones under the plan's
// row-lease budget.
class PooledGroupedPipeline : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PooledGroupedPipeline, IsBitIdenticalToThePoolLessRun) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 3500;
  spec.informative = 32;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView view(d);
  const VoxelTask task{500, 20};
  EXPECT_EQ(column_sweep(task.count, d.voxels(), 1, GetParam()).block,
            kSweepPanelCols * GetParam());
  EXPECT_LT(column_sweep(task.count, d.voxels(), 1, GetParam()).group,
            task.count);
  EXPECT_EQ(column_sweep(task.count, d.voxels(), 9, GetParam()).group,
            task.count);
  const PipelineConfig serial = PipelineConfig::optimized();
  const TaskResult want = run_task_grouped(norm, task, serial, task.count);
  ResidentEpochs resident(norm);

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
  // The reference kernels: one whole-brain syrk per voxel.
  std::vector<linalg::Matrix> want_kernels;
  for (std::size_t v = 0; v < task.count; ++v) {
    want_kernels.emplace_back(m, m);
    compute_voxel_kernel(corr_serial.view(), m, v, Impl::kOptimized,
                         want_kernels.back().view());
  }

  const std::size_t budget = (d.epochs_per_subject() + 1) * panel_bytes(d);
  for (const std::size_t group :
       {std::size_t{1}, std::size_t{7}, std::size_t{9}, std::size_t{18},
        static_cast<std::size_t>(task.count)}) {
    SCOPED_TRACE("group " + std::to_string(group));
    StreamedEpochs streamed(view, {budget});
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
    EXPECT_LE(streamed.resident_bytes(), budget);
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
// inline on its lane: one pool index per FCMA task, nothing nested below
// it, from resident panels or streamed rows alike.
TEST(RunTasks, SpawnsOnePoolTaskPerTask) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView view(d);
  ResidentEpochs resident(norm);
  StreamedEpochs streamed(
      view, {(d.epochs_per_subject() + 1) * panel_bytes(d)});
  const std::vector<VoxelTask> tasks = partition_voxels(d.voxels(), 8);
  ASSERT_EQ(tasks.size(), 5u);
  threading::ThreadPool pool(3);
  PipelineConfig config = PipelineConfig::optimized();
  config.pool = &pool;
  for (EpochSource* source : {static_cast<EpochSource*>(&resident),
                              static_cast<EpochSource*>(&streamed)}) {
    const std::uint64_t before = pool.scheduler().stats().executed;
    const std::vector<TaskResult> results = run_tasks(*source, tasks, config);
    EXPECT_EQ(pool.scheduler().stats().executed - before, tasks.size());
    EXPECT_EQ(results.size(), tasks.size());
  }
}

// Pooled run_tasks against the serial loop of run_task, over pools of 1-4
// threads, on resident panels and on streamed ones under the plan's
// row-lease budget.
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
  const std::size_t budget = (d.epochs_per_subject() + 1) * panel_bytes(d);
  StreamedEpochs streamed(view, {budget});
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
  EXPECT_LE(streamed.resident_bytes(), budget);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, PooledRunTasks,
                         ::testing::Values(1, 2, 3, 4));

// Counts epoch_panel calls (one per panel load) and the most subjects
// whose panels were held at once.
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
    Panel panel = inner_.epoch_panel(idx);
    const std::int32_t subject = inner_.epochs()[idx].subject;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++held_[subject];
      max_subjects_ = std::max(max_subjects_, held_.size());
    }
    // The panel's own keep-alive lives on in the deleter's capture.
    panel.keepalive = std::shared_ptr<const void>(
        this, [this, subject, inner = panel.keepalive](const void*) {
          std::lock_guard<std::mutex> lock(mu_);
          if (--held_[subject] == 0) held_.erase(subject);
        });
    return panel;
  }
  [[nodiscard]] std::size_t loads() const { return loads_.load(); }
  [[nodiscard]] std::size_t max_subjects_held() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_subjects_;
  }

 private:
  const fmri::DatasetView& inner_;
  mutable std::atomic<std::size_t> loads_{0};
  mutable std::mutex mu_;
  mutable std::map<std::int32_t, std::size_t> held_;  ///< panels per subject
  mutable std::size_t max_subjects_ = 0;
};

// Counts the reads of every (epoch, voxel row) through a source's leases.
class RowCountingSource final : public EpochSource {
 public:
  explicit RowCountingSource(EpochSource& inner)
      : inner_(inner),
        voxels_(inner.voxels()),
        reads_(inner.meta().size() * voxels_, 0) {}
  [[nodiscard]] const std::vector<fmri::Epoch>& meta() const override {
    return inner_.meta();
  }
  [[nodiscard]] std::size_t voxels() const override { return voxels_; }
  [[nodiscard]] RowLease acquire(std::size_t first,
                                 std::size_t last) override {
    count(first, last, 0, voxels_);
    return inner_.acquire(first, last);
  }
  [[nodiscard]] RowLease acquire_rows(
      std::size_t first, std::size_t last, std::size_t r0, std::size_t r1,
      threading::ThreadPool* pool = nullptr) override {
    count(first, last, r0, r1);
    return inner_.acquire_rows(first, last, r0, r1, pool);
  }
  [[nodiscard]] std::size_t reads(std::size_t m, std::size_t row) const {
    return reads_[m * voxels_ + row];
  }
  [[nodiscard]] std::size_t leases() const { return leases_; }

 private:
  void count(std::size_t first, std::size_t last, std::size_t r0,
             std::size_t r1) {
    std::lock_guard<std::mutex> lock(mu_);
    ++leases_;
    for (std::size_t m = first; m < last; ++m) {
      for (std::size_t r = r0; r < r1; ++r) ++reads_[m * voxels_ + r];
    }
  }

  EpochSource& inner_;
  std::size_t voxels_;
  std::mutex mu_;
  std::vector<std::size_t> reads_;
  std::size_t leases_ = 0;
};

// Arms a trace stream in a fresh directory for the test's scope; stop()
// finalizes it and returns every recorded event.
class TracedScope {
 public:
  explicit TracedScope(const std::string& tag)
      : dir_(::testing::TempDir() + tag) {
    std::filesystem::remove_all(dir_);
    trace::global().reset();
    trace::Timeline::global().reset();
    trace::set_stream_dir(dir_);
    trace::set_enabled(true);
  }
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;
  ~TracedScope() { (void)stop(); }

  std::vector<trace::tlstream::StreamEvent> stop() {
    if (stopped_) return {};
    stopped_ = true;
    trace::set_enabled(false);
    trace::Timeline::global().finalize_stream();
    trace::tlstream::StreamRead read = trace::tlstream::read_stream_dir(dir_);
    trace::set_stream_dir("");
    trace::global().reset();
    trace::Timeline::global().reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    return std::move(read.events);
  }

 private:
  std::string dir_;
  bool stopped_ = false;
};

TEST(StreamedEpochs, TracedTaskRecordsOneFillSpanPerLease) {
  // Every streamed lease records its shard reads and normalization as one
  // epoch_fill span under the task: the task-row lease and each block's
  // lease of each subject run.
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 3500;
  spec.informative = 32;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const TempShardStore store(d, "fcma_fill_span_test");
  threading::ThreadPool pool(2);
  PipelineConfig config = PipelineConfig::optimized();
  config.pool = &pool;
  const VoxelTask task{100, 20};
  const std::size_t group_voxels = 9;  // five 768-column blocks, one group
  const ColumnSweep sweep =
      column_sweep(task.count, d.voxels(), group_voxels, pool.size());
  ASSERT_EQ(sweep.group, task.count);
  const std::size_t blocks = (d.voxels() + sweep.block - 1) / sweep.block;
  ASSERT_EQ(blocks, 5u);

  TracedScope traced("fcma_fill_span_stream");
  StreamedEpochs streamed(store.view(), {});
  RowCountingSource counted(streamed);
  (void)run_task_grouped(counted, task, config, group_voxels);
  const auto events = traced.stop();

  std::size_t fills = 0;
  for (const auto& ev : events) fills += ev.label == "task/epoch_fill";
  EXPECT_EQ(counted.leases(),
            1 + blocks * static_cast<std::size_t>(d.subjects()));
  EXPECT_EQ(fills, counted.leases());
}

TEST(StreamedEpochs, CorrelationSpanLeavesOutLeaseFills) {
  // The fused sweep's synthetic correlation + normalization spans cover
  // its compute time only: no stage span overlaps a lease fill, and with
  // the fills recorded inside the call, all of them add up to no more
  // than the call's wall time.
  const fmri::Dataset d = small_dataset();
  const TempShardStore store(d, "fcma_fill_wall_test");
  const VoxelTask task{4, 6};
  const std::size_t m = d.epochs().size();
  linalg::Matrix out(task.count * m, d.voxels());

  TracedScope traced("fcma_fill_wall_stream");
  StreamedEpochs streamed(store.view(), {});
  const auto rows =
      streamed.acquire_rows(0, m, task.first, task.first + task.count);
  const std::uint64_t start = trace::now_ns();
  correlate_normalize_block(streamed, rows, task, 0, d.voxels(), out.view(),
                            nullptr);
  const std::uint64_t end = trace::now_ns();
  const auto events = traced.stop();

  std::vector<trace::tlstream::StreamEvent> fills;
  std::vector<trace::tlstream::StreamEvent> stages;
  for (const auto& ev : events) {
    if (ev.label == "epoch_fill" && ev.start_ns >= start) fills.push_back(ev);
    if (ev.label == "correlation" || ev.label == "normalization") {
      EXPECT_GE(ev.start_ns, start);
      EXPECT_LE(ev.end_ns, end);
      stages.push_back(ev);
    }
  }
  const auto runs = static_cast<std::size_t>(d.subjects());
  EXPECT_EQ(fills.size(), runs);
  EXPECT_EQ(stages.size(), 2 * runs);
  std::uint64_t total_ns = 0;
  for (const auto& fill : fills) {
    total_ns += fill.end_ns - fill.start_ns;
    for (const auto& stage : stages) {
      EXPECT_TRUE(stage.end_ns <= fill.start_ns ||
                  stage.start_ns >= fill.end_ns)
          << stage.label << " [" << stage.start_ns << ", " << stage.end_ns
          << ") overlaps a fill [" << fill.start_ns << ", " << fill.end_ns
          << ")";
    }
  }
  EXPECT_GT(total_ns, 0u);
  for (const auto& stage : stages) total_ns += stage.end_ns - stage.start_ns;
  EXPECT_LE(total_ns, end - start);
}

TEST(StreamedEpochs, PooledLeaseMatchesSerialAndResident) {
  // A lease taken with a pool maps its panels in order on the calling
  // thread and normalizes its epochs across the pool: pools of 1-4
  // threads give the serial lease's bits, the resident rows, and the same
  // shard loads, over one epoch, a subject run, a range across subjects
  // and all epochs.
  const fmri::Dataset d = small_dataset();
  const TempShardStore store(d, "fcma_pooled_lease_test");
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  ResidentEpochs resident(norm);
  const std::size_t n = d.voxels();
  const std::size_t m_total = norm.meta.size();
  const std::size_t per = d.epochs_per_subject();
  const std::pair<std::size_t, std::size_t> epoch_ranges[] = {
      {3, 4}, {per, 2 * per}, {per - 2, per + 3}, {0, m_total}};
  const std::pair<std::size_t, std::size_t> row_ranges[] = {
      {0, n}, {13, 29}, {n - 7, n}};
  // Every leased row, in range order, and the shard loads of the leases.
  const auto lease_all = [&](EpochSource& source,
                             threading::ThreadPool* pool,
                             std::int64_t* shard_loads) {
    TracedScope traced("fcma_pooled_lease_stream");
    std::vector<float> rows;
    for (const auto& [first, last] : epoch_ranges) {
      for (const auto& [r0, r1] : row_ranges) {
        const EpochSource::RowLease lease =
            source.acquire_rows(first, last, r0, r1, pool);
        for (std::size_t m = first; m < last; ++m) {
          const linalg::ConstMatrixView view = lease.epoch(m);
          for (std::size_t r = 0; r < view.rows; ++r) {
            rows.insert(rows.end(), view.row(r), view.row(r) + view.cols);
          }
        }
      }
    }
    *shard_loads = trace::global().counter("io/shard_loads");
    return rows;
  };
  std::int64_t resident_loads = 0;
  const std::vector<float> want = lease_all(resident, nullptr,
                                            &resident_loads);
  std::int64_t serial_loads = 0;
  std::vector<float> serial;
  {
    StreamedEpochs streamed(store.view(), {2 * panel_bytes(d)});
    serial = lease_all(streamed, nullptr, &serial_loads);
  }
  ASSERT_EQ(serial.size(), want.size());
  EXPECT_EQ(std::memcmp(serial.data(), want.data(),
                        want.size() * sizeof(float)),
            0);
  EXPECT_GT(serial_loads, 0);
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE("pool of " + std::to_string(threads));
    threading::ThreadPool pool(threads);
    const CountingView view(store.view());
    StreamedEpochs streamed(view, {2 * panel_bytes(d)});
    std::int64_t pooled_loads = 0;
    const std::vector<float> pooled = lease_all(streamed, &pool,
                                                &pooled_loads);
    ASSERT_EQ(pooled.size(), want.size());
    EXPECT_EQ(std::memcmp(pooled.data(), want.data(),
                          want.size() * sizeof(float)),
              0);
    EXPECT_EQ(pooled_loads, serial_loads);
    // One subject's panels at a time, so at most one shard stays mapped.
    EXPECT_EQ(view.max_subjects_held(), 1u);
    EXPECT_LE(streamed.resident_bytes(), 2 * panel_bytes(d));
  }
}

TEST(StreamedEpochs, SweepReadsEachRowOncePerTask) {
  // A streamed multi-block task reads the brain once: each block's rows
  // of each subject run once, and the task's own rows once more for the
  // task-row lease.  Each lease maps a subject's shard once, so the task
  // maps at most subjects x (blocks + 1) shards — a whole-panel sweep per
  // voxel group maps one per panel load.
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 3500;
  spec.informative = 32;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const TempShardStore store(d, "fcma_sweep_count_test");
  const CountingView view(store.view());
  const VoxelTask task{100, 20};
  const std::size_t group_voxels = 9;
  threading::ThreadPool pool(3);
  const ColumnSweep sweep =
      column_sweep(task.count, d.voxels(), group_voxels, pool.size());
  ASSERT_EQ(sweep.group, task.count);
  const std::size_t blocks = (d.voxels() + sweep.block - 1) / sweep.block;
  ASSERT_EQ(blocks, 4u);  // three lanes: blocks of 1152 and a ragged 44
  PipelineConfig config = PipelineConfig::optimized();
  config.pool = &pool;

  const std::string dir = ::testing::TempDir() + "fcma_sweep_count_stream";
  std::filesystem::remove_all(dir);
  trace::global().reset();
  trace::Timeline::global().reset();
  trace::set_stream_dir(dir);
  trace::set_enabled(true);
  TaskResult got;
  std::unique_ptr<RowCountingSource> counted;
  {
    StreamedEpochs streamed(
        view, {(d.epochs_per_subject() + 1) * panel_bytes(d), &pool});
    counted = std::make_unique<RowCountingSource>(streamed);
    got = run_task_grouped(*counted, task, config, group_voxels);
  }
  const std::int64_t shard_loads = trace::global().counter("io/shard_loads");
  trace::set_enabled(false);
  trace::Timeline::global().finalize_stream();
  trace::set_stream_dir("");
  trace::global().reset();
  trace::Timeline::global().reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  const std::size_t m_total = d.epochs().size();
  std::size_t wrong = 0;
  for (std::size_t m = 0; m < m_total; ++m) {
    for (std::size_t r = 0; r < d.voxels(); ++r) {
      const bool own = r >= task.first && r < task.first + task.count;
      if (counted->reads(m, r) != (own ? 2u : 1u)) ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(view.loads(), m_total * (blocks + 1));
  EXPECT_GT(shard_loads, 0);
  EXPECT_LE(static_cast<std::size_t>(shard_loads),
            static_cast<std::size_t>(d.subjects()) * (blocks + 1));
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const TaskResult want = run_task_grouped(norm, task, config, task.count);
  ASSERT_EQ(got.accuracy.size(), want.accuracy.size());
  for (std::size_t v = 0; v < want.accuracy.size(); ++v) {
    EXPECT_EQ(got.accuracy[v], want.accuracy[v]) << "voxel " << v;
  }
}

TEST(StreamedEpochs, PoolLessTaskSweepsOnePanelPerBlock) {
  // A pool-less task sweeps one 384-column panel per block, however much
  // correlation its cap would let it hold: a 20-voxel task over a
  // 3500-voxel brain leases its own rows once and each subject run's rows
  // once in each of ten blocks, with the pooled run's results.
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 3500;
  spec.informative = 32;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const TempShardStore store(d, "fcma_pool_less_sweep_test");
  const VoxelTask task{100, 20};
  const PipelineConfig serial = PipelineConfig::optimized();
  StreamedEpochs streamed(store.view(), {});
  RowCountingSource counted(streamed);
  const TaskResult got = run_task_grouped(counted, task, serial, task.count);
  const std::size_t blocks =
      (d.voxels() + kSweepPanelCols - 1) / kSweepPanelCols;
  ASSERT_EQ(blocks, 10u);
  EXPECT_EQ(counted.leases(),
            1 + blocks * static_cast<std::size_t>(d.subjects()));

  threading::ThreadPool pool(2);
  PipelineConfig pooled = serial;
  pooled.pool = &pool;
  const TaskResult want =
      run_task_grouped(fmri::normalize_epochs(d), task, pooled, task.count);
  ASSERT_EQ(got.accuracy.size(), want.accuracy.size());
  for (std::size_t v = 0; v < want.accuracy.size(); ++v) {
    EXPECT_EQ(got.accuracy[v], want.accuracy[v]) << "voxel " << v;
  }
  EXPECT_EQ(got.svm_iterations, want.svm_iterations);
}

// One whole-brain syrk per voxel of `task`: the kernels every sweep must
// reproduce bit for bit.
std::vector<linalg::Matrix> whole_brain_kernels(EpochSource& epochs,
                                                const VoxelTask& task) {
  const std::size_t m = epochs.meta().size();
  linalg::Matrix corr(task.count * m, epochs.voxels());
  optimized_correlate_normalize(epochs, task, corr.view(), NormMode::kMerged);
  std::vector<linalg::Matrix> kernels;
  for (std::size_t v = 0; v < task.count; ++v) {
    kernels.emplace_back(m, m);
    compute_voxel_kernel(corr.view(), m, v, Impl::kOptimized,
                         kernels.back().view());
  }
  return kernels;
}

void expect_kernels_equal(const std::vector<linalg::Matrix>& got,
                          const std::vector<linalg::Matrix>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_EQ(std::memcmp(got[v].data(), want[v].data(),
                          want[v].rows() * want[v].cols() * sizeof(float)),
              0)
        << "voxel " << v;
  }
}

// Runs `nested` inside its third row lease.  In a swept task the first
// lease is the task's own rows and the second subject run 0's rows of
// block 0, so the third lands inside correlate_normalize_block after run
// 0's correlations are written to the task's block.
class NestingSource final : public EpochSource {
 public:
  NestingSource(EpochSource& inner, std::function<void()> nested)
      : inner_(inner), nested_(std::move(nested)) {}
  [[nodiscard]] const std::vector<fmri::Epoch>& meta() const override {
    return inner_.meta();
  }
  [[nodiscard]] std::size_t voxels() const override {
    return inner_.voxels();
  }
  [[nodiscard]] RowLease acquire(std::size_t first,
                                 std::size_t last) override {
    return inner_.acquire(first, last);
  }
  [[nodiscard]] RowLease acquire_rows(
      std::size_t first, std::size_t last, std::size_t r0, std::size_t r1,
      threading::ThreadPool* pool = nullptr) override {
    if (++calls_ == 3) nested_();
    return inner_.acquire_rows(first, last, r0, r1, pool);
  }

 private:
  EpochSource& inner_;
  std::function<void()> nested_;
  std::size_t calls_ = 0;
};

TEST(CorrelationBlock, NestedTaskOnTheSameThreadGetsItsOwnBlock) {
  // A task that runs a larger one on its own thread mid-block, as an
  // EpochSource may do from its acquire: the nested task must not reuse
  // (or regrow) the block the outer task is still writing.
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 3500;
  spec.informative = 32;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  ResidentEpochs resident(norm);
  ResidentEpochs other(norm);
  const PipelineConfig serial = PipelineConfig::optimized();
  const VoxelTask outer{500, 20};
  const VoxelTask inner{1000, 40};
  ASSERT_EQ(column_sweep(outer.count, d.voxels(), 9, 1).block, 384u);

  std::vector<linalg::Matrix> inner_kernels;
  NestingSource nesting(resident, [&] {
    inner_kernels = grouped_kernels(other, inner, serial, inner.count);
  });
  const auto outer_kernels = grouped_kernels(nesting, outer, serial, 9);
  ASSERT_EQ(inner_kernels.size(), inner.count);
  expect_kernels_equal(outer_kernels, whole_brain_kernels(resident, outer));
  expect_kernels_equal(inner_kernels, whole_brain_kernels(resident, inner));
}

TEST(CorrelationBlock, RetainedHeapIsBounded) {
  // A thread keeps at most one spare correlation block: after the largest
  // block, smaller tasks reuse it and the heap in use does not grow.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
#elif !defined(__GLIBC__) || __GLIBC__ < 2 || \
    (__GLIBC__ == 2 && __GLIBC_MINOR__ < 33)
  GTEST_SKIP() << "mallinfo2 needs glibc 2.33";
#else
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 3500;
  spec.informative = 32;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  ResidentEpochs resident(norm);
  const PipelineConfig serial = PipelineConfig::optimized();
  const auto in_use = [] {
    const struct mallinfo2 info = ::mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  // Pool-less blocks of count x M x 384 floats: 3.8, 1.9, 0.9 and
  // 0.5 MiB.
  const auto run = [&](std::uint32_t count) {
    return run_task_grouped(resident, VoxelTask{0, count}, serial, count);
  };
  EXPECT_EQ(run(80).accuracy.size(), 80u);
  const std::size_t after_largest = in_use();
  for (const std::uint32_t count : {40u, 20u, 10u}) {
    EXPECT_EQ(run(count).accuracy.size(), count);
  }
  EXPECT_LT(in_use(), after_largest + (std::size_t{1} << 20));
#endif
}

TEST(CorrelationBlock, PoolLessTaskRetainsOnePanelPerVoxel) {
  // A pool-less run_task keeps one spare block of count x M x 384 floats
  // on its thread, not a whole-brain count x M x N one (8.5 MiB here).  A
  // fresh thread starts with no spare block.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
#elif !defined(__GLIBC__) || __GLIBC__ < 2 || \
    (__GLIBC__ == 2 && __GLIBC_MINOR__ < 33)
  GTEST_SKIP() << "mallinfo2 needs glibc 2.33";
#else
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 3500;
  spec.informative = 32;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  ResidentEpochs resident(norm);
  const VoxelTask task{0, 20};
  const auto in_use = [] {
    const struct mallinfo2 info = ::mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  std::size_t before = 0;
  std::size_t after = 0;
  std::thread([&] {
    before = in_use();
    EXPECT_EQ(run_task(resident, task, PipelineConfig::optimized())
                  .accuracy.size(),
              task.count);
    after = in_use();
  }).join();
  // The block itself, plus the allocator's rounding of one mapping.
  const std::size_t block =
      task.count * norm.meta.size() * kSweepPanelCols * sizeof(float);
  EXPECT_LE(after, before + block + (std::size_t{64} << 10));
#endif
}

TEST(SelectedFeatures, StreamedLeasesEachSubjectRunOnce) {
  // Offline's selected-voxel features lease the rows spanning the selected
  // voxels once per subject run: one panel load per epoch, one shard
  // mapping per subject, and the same bits as the resident features.
  const fmri::Dataset d = small_dataset();
  const TempShardStore store(d, "fcma_features_count_test");
  const CountingView view(store.view());
  const std::vector<std::uint32_t> selected{31, 2, 17, 9, 30};
  const std::size_t budget = (d.epochs_per_subject() + 1) * panel_bytes(d);

  const std::string dir = ::testing::TempDir() + "fcma_features_stream";
  std::filesystem::remove_all(dir);
  trace::global().reset();
  trace::Timeline::global().reset();
  trace::set_stream_dir(dir);
  trace::set_enabled(true);
  linalg::Matrix got;
  std::size_t bytes = 0;
  {
    StreamedEpochs streamed(view, {budget});
    got = selected_correlation_features(streamed, selected);
    bytes = streamed.resident_bytes();
  }
  const std::int64_t shard_loads = trace::global().counter("io/shard_loads");
  trace::set_enabled(false);
  trace::Timeline::global().finalize_stream();
  trace::set_stream_dir("");
  trace::global().reset();
  trace::Timeline::global().reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  EXPECT_EQ(view.loads(), d.epochs().size());
  EXPECT_GT(shard_loads, 0);
  EXPECT_LE(static_cast<std::size_t>(shard_loads),
            static_cast<std::size_t>(d.subjects()));
  EXPECT_LE(bytes, budget);
  const linalg::Matrix want =
      selected_correlation_features(fmri::normalize_epochs(d), selected);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t e = 0; e < want.rows(); ++e) {
    EXPECT_EQ(std::memcmp(got.row(e), want.row(e),
                          want.cols() * sizeof(float)),
              0)
        << "epoch " << e;
  }
}

TEST(SelectedFeatures, RejectsAVoxelPastTheBrain) {
  // A selected index equal to the brain size names no row; the row lease
  // rejects it instead of reading past the panel.
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView view(d);
  StreamedEpochs streamed(
      view, {(d.epochs_per_subject() + 1) * panel_bytes(d)});
  const auto past = static_cast<std::uint32_t>(d.voxels());
  const std::vector<std::uint32_t> selected{3, past};
  EXPECT_THROW((void)selected_correlation_features(norm, selected), Error);
  EXPECT_THROW((void)selected_correlation_features(streamed, selected), Error);
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
  // Row-lease floor: every row of one subject run, plus one panel.
  const std::size_t panel = 4096 * 64 * sizeof(float);
  EXPECT_GE(plan.panel_cache_bytes, 13 * panel);
  // The planned pieces stay within the planning fraction of the budget.
  const std::size_t corr = plan.group_voxels *
                           corr_bytes_per_voxel(96, 4096);
  EXPECT_LE(plan.panel_cache_bytes + corr, (64u << 20) * 5 / 8);
}

TEST(BudgetPlan, TaskRunsInOnePass) {
  // The row leases take their floor, and a task of the planned grain is
  // swept whole (one voxel group) by a pool of up to four lanes: at the
  // face-scene bench shape with a 64 MiB budget, 8 voxels are one task in
  // one pass.
  const std::size_t panel = 8192 * 12 * sizeof(float);
  const BudgetPlan plan = plan_residency(216, 12, 8192, 12, 64u << 20);
  EXPECT_EQ(plan.panel_cache_bytes, 13 * panel);
  EXPECT_GE(plan.voxels_per_task, 8u);
  for (std::size_t lanes = 1; lanes <= 4; ++lanes) {
    const ColumnSweep sweep =
        column_sweep(plan.voxels_per_task, 8192, plan.group_voxels, lanes);
    EXPECT_EQ(sweep.group, plan.voxels_per_task) << lanes << " lanes";
    EXPECT_EQ(sweep.block, kSweepPanelCols * lanes);
  }
}

TEST(BudgetPlan, HugeBudgetDoesNotWrap) {
  // 3435973837 GiB (3.2 EiB) is past 2^64 / 5 bytes, where budget * 5
  // wrapped to 1 GiB and planned like a 128 MiB budget.  It must plan at
  // least as generously as 1 GiB: the whole brain's correlation fits.
  const std::size_t huge = std::size_t{3435973837} << 30;
  const BudgetPlan plan = plan_residency(216, 12, 8192, 12, huge);
  const BudgetPlan gib = plan_residency(216, 12, 8192, 12, std::size_t{1} << 30);
  EXPECT_EQ(plan.budget_bytes, huge);
  EXPECT_GE(plan.group_voxels, gib.group_voxels);
  EXPECT_GE(plan.voxels_per_task, gib.voxels_per_task);
  EXPECT_GE(plan.group_voxels, 8192u);
  EXPECT_GE(plan.voxels_per_task, 8192u);
  EXPECT_NO_THROW((void)plan_residency(216, 12, 8192, 12, SIZE_MAX));
  // A shape whose working set overflows size_t saturates and throws.
  EXPECT_THROW((void)plan_residency(SIZE_MAX / 2, 12, 8192, 12, SIZE_MAX),
               Error);
}

TEST(BudgetPlan, ImpossibleBudgetThrows) {
  EXPECT_THROW((void)plan_residency(96, 12, 4096, 64, 1u << 20), Error);
  EXPECT_THROW((void)plan_residency(96, 12, 4096, 64, 0), Error);
  EXPECT_THROW((void)plan_residency(0, 12, 4096, 64, 1u << 30), Error);
}

}  // namespace
}  // namespace fcma::core
