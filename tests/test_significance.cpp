// Tests for statistical significance machinery: exact binomial tails,
// multiple-comparison control, permutation testing, and the significance-
// driven voxel selection layer.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "fcma/corr_norm.hpp"
#include "fcma/selection.hpp"
#include "fmri/presets.hpp"
#include "fmri/synthetic.hpp"
#include "stats/significance.hpp"

namespace fcma {
namespace {

TEST(Binomial, LogChooseKnownValues) {
  EXPECT_NEAR(std::exp(stats::log_choose(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(stats::log_choose(10, 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(stats::log_choose(10, 10)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(stats::log_choose(52, 5)), 2598960.0, 1.0);
}

TEST(Binomial, LogChooseRejectsBadArgs) {
  EXPECT_THROW((void)stats::log_choose(3, 4), Error);
}

TEST(Binomial, SurvivalFunctionKnownValues) {
  // Fair coin, 10 flips: P(X >= 8) = (45 + 10 + 1) / 1024.
  EXPECT_NEAR(stats::binomial_sf(8, 10, 0.5), 56.0 / 1024.0, 1e-12);
  // P(X >= 0) = 1; P(X >= n) = p^n.
  EXPECT_DOUBLE_EQ(stats::binomial_sf(0, 10, 0.5), 1.0);
  EXPECT_NEAR(stats::binomial_sf(10, 10, 0.5), std::pow(0.5, 10), 1e-15);
  EXPECT_DOUBLE_EQ(stats::binomial_sf(11, 10, 0.5), 0.0);
}

TEST(Binomial, SurvivalFunctionMonotoneInK) {
  double prev = 1.1;
  for (std::size_t k = 0; k <= 20; ++k) {
    const double p = stats::binomial_sf(k, 20, 0.5);
    EXPECT_LE(p, prev);
    prev = p;
  }
}

TEST(Binomial, AsymmetricChanceLevel) {
  // P(X >= 2 | n=3, p=0.9) = 3*0.81*0.1 + 0.729 = 0.972.
  EXPECT_NEAR(stats::binomial_sf(2, 3, 0.9), 0.972, 1e-12);
}

TEST(Binomial, AccuracyPvalueScalesWithEvidence) {
  // 60% accuracy: far more convincing over 500 epochs than over 10.
  const double small = stats::accuracy_pvalue(6, 10);
  const double large = stats::accuracy_pvalue(300, 500);
  EXPECT_GT(small, 0.3);
  EXPECT_LT(large, 1e-4);
}

TEST(MultipleComparisons, BonferroniScalesAlpha) {
  const std::vector<double> p{0.004, 0.011, 0.2, 0.0001};
  const auto pass = stats::bonferroni(p, 0.05);  // threshold 0.0125
  EXPECT_EQ(pass, (std::vector<bool>{true, true, false, true}));
}

TEST(MultipleComparisons, BhKnownExample) {
  // Classic BH example: m = 6, q = 0.25; thresholds r/m * q.
  const std::vector<double> p{0.01, 0.04, 0.03, 0.005, 0.55, 0.34};
  const auto pass = stats::benjamini_hochberg(p, 0.25);
  // sorted: .005 .01 .03 .04 .34 .55 vs .0417 .0833 .125 .1667 .2083 .25:
  // largest passing rank = 4 -> the four smallest pass.
  EXPECT_EQ(pass, (std::vector<bool>{true, true, true, true, false, false}));
}

TEST(MultipleComparisons, BhNeverLessPowerfulThanBonferroni) {
  Rng rng(5);
  std::vector<double> p(200);
  for (auto& v : p) v = rng.uniform();
  p[3] = 1e-8;
  p[7] = 1e-6;
  const auto bh = stats::benjamini_hochberg(p, 0.05);
  const auto bf = stats::bonferroni(p, 0.05);
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (bf[i]) {
      EXPECT_TRUE(bh[i]) << i;
    }
  }
}

TEST(MultipleComparisons, EmptyInputs) {
  EXPECT_TRUE(stats::benjamini_hochberg({}, 0.05).empty());
  EXPECT_TRUE(stats::bonferroni({}, 0.05).empty());
}

TEST(Permutation, PvalueCountsTail) {
  const std::vector<double> nulls{0.4, 0.5, 0.45, 0.55, 0.5};
  // 1 null >= 0.55 -> (1+1)/(5+1).
  EXPECT_NEAR(stats::permutation_pvalue(0.55, nulls), 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(stats::permutation_pvalue(0.99, nulls), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(stats::permutation_pvalue(0.0, nulls), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Significance-driven selection over real pipeline output
// ---------------------------------------------------------------------------

struct SelectionFixture {
  fmri::Dataset dataset;
  core::Scoreboard board;
  std::size_t cv_total;

  SelectionFixture()
      : dataset(make_dataset()), board(dataset.voxels()), cv_total(0) {
    const fmri::NormalizedEpochs ne = fmri::normalize_epochs(dataset);
    const core::VoxelTask all{
        0, static_cast<std::uint32_t>(dataset.voxels())};
    board.add(core::run_task(ne, all, core::PipelineConfig::optimized()));
    cv_total = dataset.epochs().size();
  }

  static fmri::Dataset make_dataset() {
    fmri::DatasetSpec spec = fmri::tiny_spec();
    spec.voxels = 128;
    spec.informative = 20;
    spec.subjects = 6;
    spec.epochs_total = 72;
    return fmri::generate_synthetic(spec);
  }
};

TEST(Selection, PvaluesReflectAccuracies) {
  const SelectionFixture fx;
  const auto pvalues = core::accuracy_pvalues(fx.board, fx.cv_total);
  ASSERT_EQ(pvalues.size(), fx.dataset.voxels());
  const auto ranked = fx.board.ranked();
  // Highest accuracy -> smallest p-value; lowest -> largest.
  EXPECT_LT(pvalues[ranked.front().voxel], pvalues[ranked.back().voxel]);
  for (const double p : pvalues) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(Selection, FdrFindsPlantedVoxelsOnly) {
  const SelectionFixture fx;
  const auto selected = core::significant_voxels(
      fx.board, fx.cv_total, 0.05, core::Correction::kFdr);
  EXPECT_GE(selected.size(), 10u);  // most planted voxels survive
  // Precision: selected voxels should be overwhelmingly planted.
  std::size_t hits = 0;
  const auto& truth = fx.dataset.informative_voxels();
  for (const auto v : selected) {
    hits += std::binary_search(truth.begin(), truth.end(), v);
  }
  EXPECT_GE(static_cast<double>(hits) /
                static_cast<double>(selected.size()),
            0.8);
}

TEST(Selection, BonferroniIsStricterThanFdr) {
  const SelectionFixture fx;
  const auto fdr = core::significant_voxels(fx.board, fx.cv_total, 0.05,
                                            core::Correction::kFdr);
  const auto bon = core::significant_voxels(
      fx.board, fx.cv_total, 0.05, core::Correction::kBonferroni);
  EXPECT_LE(bon.size(), fdr.size());
  const auto none = core::significant_voxels(fx.board, fx.cv_total, 0.05,
                                             core::Correction::kNone);
  EXPECT_GE(none.size(), fdr.size());
}

TEST(Selection, PermutationNullCentersAtChance) {
  const SelectionFixture fx;
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(fx.dataset);
  const std::size_t m = ne.per_epoch.size();
  // Null distribution for one *noise* voxel.
  std::uint32_t noise_voxel = 0;
  const auto& truth = fx.dataset.informative_voxels();
  while (std::binary_search(truth.begin(), truth.end(), noise_voxel)) {
    ++noise_voxel;
  }
  const core::VoxelTask one{noise_voxel, 1};
  linalg::Matrix buf =
      core::make_corr_buffer(one, m, fx.dataset.voxels());
  core::optimized_correlate_normalize(ne, one, buf.view(),
                                      core::NormMode::kMerged);
  linalg::Matrix kernel(m, m);
  core::compute_voxel_kernel(buf.view(), m, 0, core::Impl::kOptimized,
                             kernel.view());
  const auto folds = core::epoch_loso_folds(ne.meta);
  Rng rng(99);
  const auto nulls = core::permutation_null_accuracies(
      kernel.view(), ne.meta, folds, svm::SolverKind::kPhiSvm,
      svm::TrainOptions{}, 30, rng);
  ASSERT_EQ(nulls.size(), 30u);
  double mean = 0.0;
  for (const double a : nulls) mean += a;
  mean /= 30.0;
  EXPECT_NEAR(mean, 0.5, 0.12);
}

TEST(Selection, PermutationPvalueSeparatesSignalFromNoise) {
  const SelectionFixture fx;
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(fx.dataset);
  const std::size_t m = ne.per_epoch.size();
  const auto folds = core::epoch_loso_folds(ne.meta);
  const auto& truth = fx.dataset.informative_voxels();

  auto voxel_pvalue = [&](std::uint32_t voxel) {
    const core::VoxelTask one{voxel, 1};
    linalg::Matrix buf =
        core::make_corr_buffer(one, m, fx.dataset.voxels());
    core::optimized_correlate_normalize(ne, one, buf.view(),
                                        core::NormMode::kMerged);
    linalg::Matrix kernel(m, m);
    core::compute_voxel_kernel(buf.view(), m, 0, core::Impl::kOptimized,
                               kernel.view());
    const auto labels = core::epoch_labels(ne.meta);
    const double observed =
        svm::cross_validate(svm::SolverKind::kPhiSvm, kernel.view(), labels,
                            folds, svm::TrainOptions{})
            .accuracy();
    Rng rng(7);
    const auto nulls = core::permutation_null_accuracies(
        kernel.view(), ne.meta, folds, svm::SolverKind::kPhiSvm,
        svm::TrainOptions{}, 24, rng);
    return stats::permutation_pvalue(observed, nulls);
  };

  EXPECT_LE(voxel_pvalue(truth.front()), 0.05);
  std::uint32_t noise_voxel = 0;
  while (std::binary_search(truth.begin(), truth.end(), noise_voxel)) {
    ++noise_voxel;
  }
  EXPECT_GT(voxel_pvalue(noise_voxel), 0.05);
}

}  // namespace
}  // namespace fcma
