// Tests for the grouped (memory-bounded) pipeline, mask serialization, and
// the report renderer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "fcma/offline.hpp"
#include "fcma/online.hpp"
#include "fcma/pipeline.hpp"
#include "fcma/report.hpp"
#include "fcma/scoreboard.hpp"
#include "fmri/io.hpp"
#include "fmri/presets.hpp"
#include "fmri/synthetic.hpp"

namespace fcma {
namespace {

fmri::Dataset small_dataset() {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 96;
  spec.informative = 16;
  return fmri::generate_synthetic(spec);
}

// ---------------------------------------------------------------------------
// run_task_grouped
// ---------------------------------------------------------------------------

// The monolithic pipeline, composed serially from the public stage calls:
// stages 1+2 over the whole task, then per voxel its kernel matrix and a
// cross-validation.  An independent reference for the task driver.
std::vector<double> monolithic_accuracies(
    const fmri::NormalizedEpochs& ne, const core::VoxelTask& task,
    const std::vector<std::vector<std::size_t>>& folds) {
  const std::size_t m = ne.meta.size();
  linalg::Matrix corr =
      core::make_corr_buffer(task, m, ne.per_epoch.front().rows());
  core::optimized_correlate_normalize(ne, task, corr.view(),
                                      core::NormMode::kMerged);
  const auto labels = core::epoch_labels(ne.meta);
  std::vector<double> accuracy;
  for (std::size_t v = 0; v < task.count; ++v) {
    linalg::Matrix kernel(m, m);
    core::compute_voxel_kernel(corr.view(), m, v, core::Impl::kOptimized,
                               kernel.view());
    accuracy.push_back(svm::cross_validate(svm::SolverKind::kPhiSvm,
                                           kernel.view(), labels, folds,
                                           svm::TrainOptions{})
                           .accuracy());
  }
  return accuracy;
}

class GroupSizes : public ::testing::TestWithParam<int> {};

TEST_P(GroupSizes, GroupedMatchesMonolithicPipeline) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const core::VoxelTask task{8, 40};
  const std::vector<double> want =
      monolithic_accuracies(ne, task, core::epoch_loso_folds(ne.meta));
  const core::TaskResult grouped = core::run_task_grouped(
      ne, task, core::PipelineConfig::optimized(),
      static_cast<std::size_t>(GetParam()));
  ASSERT_EQ(grouped.accuracy.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_EQ(grouped.accuracy[v], want[v]) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GroupSizes,
                         ::testing::Values(1, 7, 16, 40, 100));

TEST(GroupedPipeline, WorksWithBaselineImplAndThreads) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const core::VoxelTask task{0, 24};
  core::PipelineConfig config = core::PipelineConfig::baseline();
  const auto serial = core::run_task_grouped(ne, task, config, 8);
  threading::ThreadPool pool(3);
  config.pool = &pool;
  const auto threaded = core::run_task_grouped(ne, task, config, 8);
  for (std::size_t v = 0; v < serial.accuracy.size(); ++v) {
    EXPECT_EQ(serial.accuracy[v], threaded.accuracy[v]);
  }
}

TEST(GroupedPipeline, HonorsCustomFolds) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const auto folds = core::kfold_groups(ne.meta.size(), 4);
  core::PipelineConfig config = core::PipelineConfig::optimized();
  config.cv_folds = &folds;
  const core::VoxelTask task{0, 8};
  const std::vector<double> want = monolithic_accuracies(ne, task, folds);
  const auto grouped = core::run_task_grouped(ne, task, config, 3);
  const auto whole = core::run_task(ne, task, config);
  ASSERT_EQ(grouped.accuracy.size(), want.size());
  ASSERT_EQ(whole.accuracy.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_EQ(grouped.accuracy[v], want[v]) << v;
    EXPECT_EQ(whole.accuracy[v], want[v]) << v;
  }
}

TEST(GroupedPipeline, GroupBeyondUint32IsOneGroup) {
  // A group size beyond the 32-bit voxel range must not wrap the group
  // offset: any group >= task.count is one group.
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const core::VoxelTask task{4, 12};
  const core::PipelineConfig config = core::PipelineConfig::optimized();
  const auto huge = core::run_task_grouped(ne, task, config, 1ull << 32);
  const auto whole = core::run_task_grouped(ne, task, config, task.count);
  ASSERT_EQ(huge.accuracy.size(), whole.accuracy.size());
  for (std::size_t v = 0; v < whole.accuracy.size(); ++v) {
    EXPECT_EQ(huge.accuracy[v], whole.accuracy[v]) << v;
  }
}

TEST(GroupedPipeline, RejectsZeroGroup) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  EXPECT_THROW((void)core::run_task_grouped(
                   ne, core::VoxelTask{0, 4},
                   core::PipelineConfig::optimized(), 0),
               Error);
}

// ---------------------------------------------------------------------------
// Mask serialization
// ---------------------------------------------------------------------------

TEST(MaskIo, Roundtrip) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fcma_mask_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const fmri::BrainMask mask =
      fmri::BrainMask::ellipsoid(fmri::VolumeGeometry{9, 11, 7});
  const std::string path = (dir / "brain.fcmm").string();
  fmri::save_mask(path, mask);
  const fmri::BrainMask loaded = fmri::load_mask(path);
  EXPECT_EQ(loaded.voxels(), mask.voxels());
  EXPECT_EQ(loaded.geometry().nx, 9);
  EXPECT_EQ(loaded.geometry().ny, 11);
  EXPECT_EQ(loaded.geometry().nz, 7);
  for (std::uint32_t m = 0; m < mask.voxels(); m += 5) {
    EXPECT_EQ(loaded.grid_index(m), mask.grid_index(m));
  }
  std::filesystem::remove_all(dir);
}

TEST(MaskIo, RejectsWrongMagic) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fcma_mask2_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const fmri::Dataset d = small_dataset();
  const std::string path = (dir / "act.fcmb").string();
  fmri::save_activity(path, d.data());
  EXPECT_THROW(fmri::load_mask(path), Error);  // FCMB != FCMM
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

struct ReportFixture {
  fmri::VolumetricDataset vol;
  core::Scoreboard board;

  ReportFixture()
      : vol(make_vol()), board(vol.dataset.voxels()) {
    const fmri::NormalizedEpochs ne = fmri::normalize_epochs(vol.dataset);
    board.add(core::run_task(
        ne,
        core::VoxelTask{0, static_cast<std::uint32_t>(vol.dataset.voxels())},
        core::PipelineConfig::optimized()));
  }

  static fmri::VolumetricDataset make_vol() {
    fmri::DatasetSpec spec = fmri::tiny_spec();
    spec.informative = 16;
    return fmri::generate_synthetic_volumetric(
        spec, fmri::VolumeGeometry{10, 10, 6}, 2);
  }
};

TEST(Report, ContainsRankedVoxelsAndClusters) {
  const ReportFixture fx;
  core::ReportOptions opts;
  opts.cv_total = fx.vol.dataset.epochs().size();
  opts.top_voxels = 5;
  const auto selected = fx.board.top_voxels(16);
  const std::string report =
      core::render_report(fx.board, selected, &fx.vol.mask, opts);
  EXPECT_NE(report.find("top voxels"), std::string::npos);
  EXPECT_NE(report.find("ROI clusters"), std::string::npos);
  EXPECT_NE(report.find("p (binomial)"), std::string::npos);
  // The best voxel's id appears in the table.
  EXPECT_NE(report.find(std::to_string(fx.board.ranked().front().voxel)),
            std::string::npos);
}

TEST(Report, OmitsPvaluesWithoutCvTotal) {
  const ReportFixture fx;
  core::ReportOptions opts;
  opts.cv_total = 0;
  const std::string report = core::render_report(
      fx.board, fx.board.top_voxels(8), nullptr, opts);
  EXPECT_EQ(report.find("p (binomial)"), std::string::npos);
  EXPECT_EQ(report.find("ROI clusters"), std::string::npos);
}

TEST(Report, OfflineSummaryRendersFolds) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 96;
  spec.informative = 16;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  core::OfflineOptions opts;
  opts.top_k = 12;
  const core::OfflineResult result = core::run_offline_analysis(d, opts);
  const std::string report = core::render_offline_report(
      result, d.voxels(), nullptr, core::ReportOptions{});
  EXPECT_NE(report.find("per-fold results"), std::string::npos);
  EXPECT_NE(report.find("mean held-out accuracy"), std::string::npos);
  EXPECT_NE(report.find("reliable voxels"), std::string::npos);
}

TEST(Report, WriteReportRoundtrips) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fcma_report_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "analysis.txt").string();
  core::write_report(path, "hello analysis\n");
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "hello analysis");
  std::filesystem::remove_all(dir);
  EXPECT_THROW(core::write_report("/nonexistent/dir/x.txt", "y"), Error);
}

}  // namespace
}  // namespace fcma
