// Tests for the EpochSource data plane: streamed row leases must be
// bit-identical to the resident path — serial or pooled, in-memory or
// shard-backed, whole-brain, column-swept or partitioned — the row buffers
// must respect their byte budget, and the column sweep must read each
// panel row once per task.  Also covers the plan_residency budget split,
// run_tasks' single level of pool work and the leases of offline's
// selected-voxel features.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/timeline.hpp"
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

// The grouped pipeline's pooled column sweep (column panels across the
// pool, one serial syrk accumulation per voxel and block) against the
// pool-less whole-brain run, over the whole configuration space: N = 3500
// sweeps in blocks of 1536, 1536 and a ragged 428 (whose last gemm panel is
// a ragged 428 and last syrk panel a ragged 44); pools of 1-4 threads;
// groups that split the task into voxel groups (1, 7), sweep it whole in
// 1536- or 3072-column blocks (9, 18) or in one block (20); resident panels
// and streamed ones under the plan's row-lease budget.
class PooledGroupedPipeline : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PooledGroupedPipeline, IsBitIdenticalToThePoolLessRun) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 3500;
  spec.informative = 32;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
  const fmri::InMemoryView view(d);
  const VoxelTask task{500, 20};
  EXPECT_EQ(column_sweep(task.count, d.voxels(), 1).group, 2u);
  EXPECT_EQ(column_sweep(task.count, d.voxels(), 7).group, 15u);
  EXPECT_EQ(column_sweep(task.count, d.voxels(), 7).block, 1536u);
  EXPECT_EQ(column_sweep(task.count, d.voxels(), 9).group, task.count);
  EXPECT_EQ(column_sweep(task.count, d.voxels(), 9).block, 1536u);
  EXPECT_EQ(column_sweep(task.count, d.voxels(), 18).block, 3072u);
  EXPECT_EQ(column_sweep(task.count, d.voxels(), 20).block, d.voxels());
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
// inline on its worker: one scheduler task per FCMA task, nothing nested
// below it, from resident panels or streamed rows alike.
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
  [[nodiscard]] RowLease acquire_rows(std::size_t first, std::size_t last,
                                      std::size_t r0,
                                      std::size_t r1) override {
    count(first, last, r0, r1);
    return inner_.acquire_rows(first, last, r0, r1);
  }
  [[nodiscard]] std::size_t reads(std::size_t m, std::size_t row) const {
    return reads_[m * voxels_ + row];
  }

 private:
  void count(std::size_t first, std::size_t last, std::size_t r0,
             std::size_t r1) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t m = first; m < last; ++m) {
      for (std::size_t r = r0; r < r1; ++r) ++reads_[m * voxels_ + r];
    }
  }

  EpochSource& inner_;
  std::size_t voxels_;
  std::mutex mu_;
  std::vector<std::size_t> reads_;
};

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
  const ColumnSweep sweep = column_sweep(task.count, d.voxels(), group_voxels);
  ASSERT_EQ(sweep.group, task.count);
  const std::size_t blocks = (d.voxels() + sweep.block - 1) / sweep.block;
  ASSERT_EQ(blocks, 3u);
  threading::ThreadPool pool(3);
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
  // swept whole (one voxel group) in kSweepBlockCols-multiple blocks: at
  // the face-scene bench shape with a 64 MiB budget, 8 voxels are one
  // task in one pass.
  const std::size_t panel = 8192 * 12 * sizeof(float);
  const BudgetPlan plan = plan_residency(216, 12, 8192, 12, 64u << 20);
  EXPECT_EQ(plan.panel_cache_bytes, 13 * panel);
  EXPECT_GE(plan.voxels_per_task, 8u);
  const ColumnSweep sweep =
      column_sweep(plan.voxels_per_task, 8192, plan.group_voxels);
  EXPECT_EQ(sweep.group, plan.voxels_per_task);
  EXPECT_EQ(sweep.block % kSweepBlockCols, 0u);
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
