// Tests for the t statistics and the seed-based connectivity comparator —
// including the paper's central motivating claim: the seed approach is
// biased toward its seed while FCMA is not.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "fcma/pipeline.hpp"
#include "fcma/scoreboard.hpp"
#include "fcma/seed_analysis.hpp"
#include "fmri/presets.hpp"
#include "fmri/synthetic.hpp"
#include "stats/significance.hpp"

namespace fcma {
namespace {

// ---------------------------------------------------------------------------
// Student-t machinery
// ---------------------------------------------------------------------------

TEST(StudentT, IncompleteBetaKnownValues) {
  // I_x(1,1) = x; I_x(2,2) = x^2 (3 - 2x).
  EXPECT_NEAR(stats::incomplete_beta(1, 1, 0.3), 0.3, 1e-10);
  EXPECT_NEAR(stats::incomplete_beta(2, 2, 0.5), 0.5, 1e-10);
  EXPECT_NEAR(stats::incomplete_beta(2, 2, 0.25), 0.25 * 0.25 * 2.5, 1e-10);
  EXPECT_DOUBLE_EQ(stats::incomplete_beta(3, 4, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats::incomplete_beta(3, 4, 1.0), 1.0);
}

TEST(StudentT, IncompleteBetaSymmetry) {
  for (double x : {0.1, 0.35, 0.6, 0.9}) {
    EXPECT_NEAR(stats::incomplete_beta(2.5, 4.0, x),
                1.0 - stats::incomplete_beta(4.0, 2.5, 1.0 - x), 1e-10);
  }
}

TEST(StudentT, SurvivalKnownQuantiles) {
  // Classic t-table values: P(T >= t) one-sided.
  EXPECT_NEAR(stats::student_t_sf(0.0, 7), 0.5, 1e-12);
  EXPECT_NEAR(stats::student_t_sf(2.086, 20), 0.025, 5e-4);
  EXPECT_NEAR(stats::student_t_sf(1.812, 10), 0.05, 5e-4);
  EXPECT_NEAR(stats::student_t_sf(6.314, 1), 0.05, 5e-4);
  // Negative t mirrors.
  EXPECT_NEAR(stats::student_t_sf(-2.086, 20), 0.975, 5e-4);
}

TEST(StudentT, ApproachesNormalForLargeDf) {
  // z = 1.96 -> 0.025 one-sided in the normal limit.
  EXPECT_NEAR(stats::student_t_sf(1.96, 100000), 0.025, 5e-4);
}

TEST(StudentT, OneSampleTestDetectsShift) {
  Rng rng(3);
  std::vector<double> x(40);
  for (auto& v : x) v = 0.5 + rng.gaussian();
  const auto shifted = stats::one_sample_t_test(x);
  EXPECT_LT(shifted.pvalue, 0.05);
  for (auto& v : x) v -= 0.5;  // recentre -> null
  const auto null = stats::one_sample_t_test(x);
  EXPECT_GT(null.pvalue, 0.05);
}

TEST(StudentT, PairedTestCancelsSharedVariance) {
  // Strongly correlated pairs with a small systematic offset: the paired
  // test should detect it where the unpaired means are noisy.
  Rng rng(11);
  std::vector<double> a(30);
  std::vector<double> b(30);
  for (std::size_t i = 0; i < 30; ++i) {
    const double shared = 5.0 * rng.gaussian();
    a[i] = shared + 0.2 + 0.1 * rng.gaussian();
    b[i] = shared + 0.1 * rng.gaussian();
  }
  const auto r = stats::paired_t_test(a, b);
  EXPECT_LT(r.pvalue, 0.01);
  EXPECT_GT(r.t, 0.0);
}

TEST(StudentT, DegenerateInputsHandled) {
  const std::vector<double> constant{2.0, 2.0, 2.0};
  const auto same = stats::one_sample_t_test(constant, 2.0);
  EXPECT_DOUBLE_EQ(same.pvalue, 1.0);
  const auto off = stats::one_sample_t_test(constant, 1.0);
  EXPECT_DOUBLE_EQ(off.pvalue, 0.0);
  EXPECT_THROW((void)stats::one_sample_t_test(std::vector<double>{1.0}),
               Error);
}

// ---------------------------------------------------------------------------
// Seed analysis vs FCMA
// ---------------------------------------------------------------------------

struct SeedFixture {
  fmri::Dataset dataset;
  fmri::NormalizedEpochs epochs;
  std::set<std::uint32_t> truth;

  SeedFixture() : dataset(make()), epochs(fmri::normalize_epochs(dataset)) {
    truth.insert(dataset.informative_voxels().begin(),
                 dataset.informative_voxels().end());
  }
  static fmri::Dataset make() {
    fmri::DatasetSpec spec = fmri::tiny_spec();
    spec.voxels = 128;
    spec.informative = 20;
    spec.subjects = 6;
    spec.epochs_total = 72;
    return fmri::generate_synthetic(spec);
  }
  [[nodiscard]] std::uint32_t noise_voxel() const {
    std::uint32_t v = 0;
    while (truth.count(v)) ++v;
    return v;
  }
};

TEST(SeedAnalysis, InformativeSeedLightsUpItsPartners) {
  const SeedFixture fx;
  // Planted groups alternate through the sorted informative list: partners
  // of informative[0] (group A) are the odd-indexed informative voxels.
  const auto& inf = fx.dataset.informative_voxels();
  const std::uint32_t seed = inf[0];
  const core::SeedContrast contrast =
      core::seed_contrast_map(fx.epochs, seed);
  const auto hits = core::seed_significant_voxels(contrast, 0.05);
  EXPECT_GE(hits.size(), 5u);
  // Everything significant should be informative (group B partners whose
  // coupling to the seed flips between conditions).
  std::size_t informative_hits = 0;
  for (const auto v : hits) informative_hits += fx.truth.count(v);
  EXPECT_GE(static_cast<double>(informative_hits) /
                static_cast<double>(hits.size()),
            0.8);
  // And the contrast is positive: coupled under label 0, so delta
  // (label1 - label0) is negative for partners.
  for (const auto v : hits) {
    if (fx.truth.count(v)) {
      EXPECT_LT(contrast.delta_z[v], 0.0);
    }
  }
}

TEST(SeedAnalysis, NoiseSeedSeesNothing) {
  const SeedFixture fx;
  const core::SeedContrast contrast =
      core::seed_contrast_map(fx.epochs, fx.noise_voxel());
  const auto hits = core::seed_significant_voxels(contrast, 0.05);
  // The paper's point: with the "wrong" seed, the planted interactions are
  // invisible to the classical analysis.
  EXPECT_LE(hits.size(), 2u);
}

TEST(SeedAnalysis, FcmaFindsWhatTheWrongSeedMisses) {
  const SeedFixture fx;
  // Seed analysis from a noise seed: blind (previous test).  FCMA over the
  // same data: recovers the planted set without any seed choice.
  core::Scoreboard board(fx.dataset.voxels());
  board.add(core::run_task(
      fx.epochs,
      core::VoxelTask{0, static_cast<std::uint32_t>(fx.dataset.voxels())},
      core::PipelineConfig::optimized()));
  EXPECT_GT(board.recovery_rate(fx.dataset.informative_voxels()), 0.8);
}

TEST(SeedAnalysis, SeedEntryIsNeutral) {
  const SeedFixture fx;
  const std::uint32_t seed = 5;
  const core::SeedContrast c = core::seed_contrast_map(fx.epochs, seed);
  EXPECT_DOUBLE_EQ(c.delta_z[seed], 0.0);
  EXPECT_DOUBLE_EQ(c.pvalue[seed], 1.0);
  EXPECT_EQ(c.delta_z.size(), fx.dataset.voxels());
}

TEST(SeedAnalysis, RejectsBadSeed) {
  const SeedFixture fx;
  EXPECT_THROW(core::seed_contrast_map(
                   fx.epochs,
                   static_cast<std::uint32_t>(fx.dataset.voxels())),
               Error);
}

}  // namespace
}  // namespace fcma
