// Tests for the statistical primitives: the eq.2/3 reduction (normalize +
// dot == Pearson), Fisher transform, z-scoring, and the block normalization
// kernel against a naive reimplementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "linalg/simd.hpp"
#include "memsim/instrument.hpp"
#include "stats/normalization.hpp"
#include "stats/stats.hpp"

namespace fcma::stats {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(-2.0f, 2.0f);
  return v;
}

TEST(Stats, MeanOfKnownSequence) {
  std::vector<float> v{1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::span<const float>{}), 0.0);
}

TEST(Stats, OnePassVarianceMatchesTwoPass) {
  const auto v = random_vec(1000, 1);
  const double m = mean(v);
  double two_pass = 0.0;
  for (float x : v) two_pass += (x - m) * (x - m);
  two_pass /= static_cast<double>(v.size());
  EXPECT_NEAR(variance_one_pass(v), two_pass, 1e-6);
}

TEST(Stats, VarianceOfConstantIsZero) {
  std::vector<float> v(50, 3.25f);
  EXPECT_NEAR(variance_one_pass(v), 0.0, 1e-9);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<float> x{1, 2, 3, 4, 5};
  std::vector<float> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-9);
}

TEST(Stats, PearsonPerfectAnticorrelation) {
  std::vector<float> x{1, 2, 3, 4, 5};
  std::vector<float> y{5, 4, 3, 2, 1};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-9);
}

TEST(Stats, PearsonInvariantToAffineTransform) {
  const auto x = random_vec(64, 3);
  auto y = random_vec(64, 4);
  const double r1 = pearson(x, y);
  for (auto& v : y) v = 3.0f * v + 7.0f;  // positive affine map
  EXPECT_NEAR(pearson(x, y), r1, 1e-5);
}

TEST(Stats, PearsonOfConstantIsZero) {
  std::vector<float> x(10, 1.0f);
  const auto y = random_vec(10, 5);
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Stats, PearsonBounded) {
  for (std::uint64_t s = 0; s < 20; ++s) {
    const auto x = random_vec(12, 100 + s);
    const auto y = random_vec(12, 200 + s);
    const double r = pearson(x, y);
    EXPECT_GE(r, -1.0 - 1e-9);
    EXPECT_LE(r, 1.0 + 1e-9);
  }
}

// The reduction at the heart of stage 1 (paper eq. 2-3): after
// normalize_epoch, the plain dot product of two vectors IS their Pearson
// correlation.  This is the property that turns FCMA into matrix multiply.
TEST(Stats, NormalizedDotEqualsPearson) {
  for (std::uint64_t s = 0; s < 25; ++s) {
    auto x = random_vec(12, 300 + s);
    auto y = random_vec(12, 400 + s);
    const double want = pearson(x, y);
    normalize_epoch(x);
    normalize_epoch(y);
    double dot = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      dot += static_cast<double>(x[i]) * y[i];
    }
    EXPECT_NEAR(dot, want, 1e-5) << "seed " << s;
  }
}

TEST(Stats, NormalizeEpochProducesUnitNorm) {
  auto x = random_vec(20, 6);
  normalize_epoch(x);
  double norm = 0.0;
  double sum = 0.0;
  for (float v : x) {
    norm += static_cast<double>(v) * v;
    sum += v;
  }
  EXPECT_NEAR(norm, 1.0, 1e-5);
  EXPECT_NEAR(sum, 0.0, 1e-5);
}

TEST(Stats, NormalizeConstantEpochGivesZeros) {
  std::vector<float> x(12, 4.0f);
  normalize_epoch(x);
  for (float v : x) EXPECT_EQ(v, 0.0f);
}

TEST(Stats, FisherZKnownValues) {
  EXPECT_NEAR(fisher_z(0.0f), 0.0f, 1e-7);
  EXPECT_NEAR(fisher_z(0.5f), 0.5493061f, 1e-5);
  EXPECT_NEAR(fisher_z(-0.5f), -0.5493061f, 1e-5);
  EXPECT_NEAR(fisher_z(0.9f), 1.4722193f, 1e-5);
}

TEST(Stats, FisherZIsOddAndMonotone) {
  float prev = -1e9f;
  for (float r = -0.95f; r <= 0.95f; r += 0.05f) {
    const float z = fisher_z(r);
    EXPECT_NEAR(z, -fisher_z(-r), 1e-6);
    EXPECT_GT(z, prev);
    prev = z;
  }
}

TEST(Stats, FisherZClampsAtUnity) {
  EXPECT_TRUE(std::isfinite(fisher_z(1.0f)));
  EXPECT_TRUE(std::isfinite(fisher_z(-1.0f)));
  EXPECT_EQ(fisher_z(1.0f), fisher_z_max());
  EXPECT_EQ(fisher_z(-1.0f), -fisher_z_max());
  EXPECT_TRUE(std::isfinite(fisher_z(1.5f)));  // out-of-range input clamps
}

// The formula the repo's own log replaced, evaluated with the host libm.
float libm_fisher_z(float r) {
  const float hi = 1.0f - linalg::simd::kFisherREps;
  r = std::clamp(r, -hi, hi);
  return 0.5f * std::log((1.0f + r) / (1.0f - r));
}

// Distance in units in the last place between two finite floats.
std::int64_t ulp_distance(float a, float b) {
  const auto ordered = [](float x) {
    std::int32_t i = 0;
    std::memcpy(&i, &x, sizeof(i));
    return i < 0 ? std::int64_t{INT32_MIN} - i : std::int64_t{i};
  };
  return std::llabs(ordered(a) - ordered(b));
}

TEST(Stats, FisherZWithinTwoUlpOfLibmLog) {
  // Every 4099th float of [-1, 1] by bit pattern (even coverage of every
  // exponent), then a uniform grid of 2^21 + 1 values (dense near |r| = 1,
  // where the clamp and the largest q live).
  std::vector<float> rs;
  for (std::uint32_t bits = 0; bits <= 0x3f800000u; bits += 4099) {
    float r = 0.0f;
    std::memcpy(&r, &bits, sizeof(r));
    rs.push_back(r);
    rs.push_back(-r);
  }
  for (int k = -(1 << 20); k <= (1 << 20); ++k) {
    rs.push_back(std::ldexp(static_cast<float>(k), -20));
  }
  std::int64_t worst = 0;
  float worst_r = 0.0f;
  for (const float r : rs) {
    const std::int64_t d = ulp_distance(fisher_z(r), libm_fisher_z(r));
    if (d > worst) {
      worst = d;
      worst_r = r;
    }
  }
  EXPECT_LE(worst, 2) << "at r = " << worst_r;
}

TEST(Stats, FisherZMapsNanToNan) {
  EXPECT_TRUE(std::isnan(fisher_z(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(fisher_z(-std::numeric_limits<float>::quiet_NaN())));
  // Infinities are out of range like any |r| > 1: they clamp.
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(fisher_z(inf), fisher_z_max());
  EXPECT_EQ(fisher_z(-inf), -fisher_z_max());
}

// stats::fisher_z is the kernel, one value at a time: every table's
// fisher_moments (and the in-place span form, over several 64-column
// chunks) writes exactly its bits, in the wide-vector columns and in the
// ragged tail alike.
TEST(Stats, FisherZEqualsTheKernelBits) {
  const auto data = random_vec(203, 12);  // [-2, 2]: clamped values too
  std::vector<float> bulk = data;
  fisher_z(bulk);
  for (std::size_t j = 0; j < data.size(); ++j) {
    EXPECT_EQ(bulk[j], fisher_z(data[j])) << "r = " << data[j];
  }
  for (const auto isa : {linalg::simd::Isa::kScalar, linalg::simd::Isa::kAvx2,
                         linalg::simd::Isa::kAvx512}) {
    std::vector<float> row = data;
    std::vector<float> sum(row.size(), 0.0f);
    std::vector<float> sumsq(row.size(), 0.0f);
    linalg::simd::kernels(isa).fisher_moments(row.data(), sum.data(),
                                              sumsq.data(), row.size());
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_EQ(row[j], fisher_z(data[j]))
          << linalg::simd::isa_name(isa) << " r = " << data[j];
    }
  }
}

TEST(Stats, ZscoreNormalizesMoments) {
  auto x = random_vec(500, 7);
  zscore(x);
  double sum = 0.0;
  double sq = 0.0;
  for (float v : x) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  EXPECT_NEAR(sum / 500.0, 0.0, 1e-4);
  EXPECT_NEAR(sq / 500.0, 1.0, 1e-3);
}

TEST(Stats, ZscoreConstantPopulationGivesZeros) {
  std::vector<float> x(16, -2.0f);
  zscore(x);
  for (float v : x) EXPECT_EQ(v, 0.0f);
}

// ---------------------------------------------------------------------------
// fisher_zscore_block vs a naive per-column implementation
// ---------------------------------------------------------------------------

void naive_fisher_zscore(std::vector<std::vector<float>>& block) {
  const std::size_t epochs = block.size();
  const std::size_t width = block[0].size();
  for (auto& row : block) {
    for (auto& v : row) v = fisher_z(v);
  }
  for (std::size_t j = 0; j < width; ++j) {
    std::vector<float> col(epochs);
    for (std::size_t e = 0; e < epochs; ++e) col[e] = block[e][j];
    zscore(col);
    for (std::size_t e = 0; e < epochs; ++e) block[e][j] = col[e];
  }
}

class BlockWidths : public ::testing::TestWithParam<int> {};

TEST_P(BlockWidths, BlockKernelMatchesNaive) {
  const std::size_t epochs = 6;
  const auto width = static_cast<std::size_t>(GetParam());
  Rng rng(88);
  std::vector<float> data(epochs * width);
  for (auto& v : data) v = rng.uniform(-0.99f, 0.99f);
  std::vector<std::vector<float>> naive(epochs, std::vector<float>(width));
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t j = 0; j < width; ++j) naive[e][j] = data[e * width + j];
  }
  fisher_zscore_block(data.data(), epochs, width, width);
  naive_fisher_zscore(naive);
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t j = 0; j < width; ++j) {
      EXPECT_NEAR(data[e * width + j], naive[e][j], 2e-4)
          << "e=" << e << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BlockWidths,
                         ::testing::Values(1, 3, 16, 63, 64, 65, 200));

TEST(BlockNormalization, RespectsLeadingDimension) {
  // Two independent voxels' blocks interleaved with stride: normalizing one
  // must not touch the other.
  const std::size_t epochs = 4;
  const std::size_t width = 8;
  const std::size_t ld = 24;
  std::vector<float> data(epochs * ld, 123.0f);
  Rng rng(9);
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t j = 0; j < width; ++j) {
      data[e * ld + j] = rng.uniform(-0.9f, 0.9f);
    }
  }
  fisher_zscore_block(data.data(), epochs, width, ld);
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t j = width; j < ld; ++j) {
      EXPECT_EQ(data[e * ld + j], 123.0f);
    }
  }
}

TEST(BlockNormalization, ColumnsBecomeZeroMeanUnitVar) {
  const std::size_t epochs = 10;
  const std::size_t width = 40;
  Rng rng(10);
  std::vector<float> data(epochs * width);
  for (auto& v : data) v = rng.uniform(-0.9f, 0.9f);
  fisher_zscore_block(data.data(), epochs, width, width);
  for (std::size_t j = 0; j < width; ++j) {
    double sum = 0.0;
    double sq = 0.0;
    for (std::size_t e = 0; e < epochs; ++e) {
      sum += data[e * width + j];
      sq += static_cast<double>(data[e * width + j]) * data[e * width + j];
    }
    EXPECT_NEAR(sum / epochs, 0.0, 1e-4);
    EXPECT_NEAR(sq / epochs, 1.0, 1e-3);
  }
}

TEST(BlockNormalization, InstrumentedMatchesFast) {
  const std::size_t epochs = 5;
  const std::size_t width = 100;
  Rng rng(11);
  std::vector<float> a(epochs * width);
  for (auto& v : a) v = rng.uniform(-0.95f, 0.95f);
  std::vector<float> b = a;
  fisher_zscore_block(a.data(), epochs, width, width);
  memsim::Instrument ins;
  fisher_zscore_block_instrumented(b.data(), epochs, width, width, ins);
  // Both run the same Fisher kernel: bit-identical, not merely close.
  EXPECT_EQ(a, b);
  // Fig 6's layout: the kernel's intensity should sit clearly above scalar
  // but (transcendental sequences) below the pure-FMA kernels.
  EXPECT_GT(ins.events().vector_intensity(), 6.0);
  EXPECT_LT(ins.events().vector_intensity(), 16.0);
}

TEST(BlockNormalization, EmptyInputsAreNoops) {
  std::vector<float> data(8, 1.0f);
  fisher_zscore_block(data.data(), 0, 4, 4);
  fisher_zscore_block(data.data(), 2, 0, 4);
  for (float v : data) EXPECT_EQ(v, 1.0f);
}

}  // namespace
}  // namespace fcma::stats
