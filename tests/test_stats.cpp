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
#include <span>
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

// ---------------------------------------------------------------------------
// The epoch_zscore kernel against the scalar eq. 2 loop it replaced, kept
// here verbatim as the bit reference: every table, in the wide-vector rows
// and the shared tail alike, must write exactly its bits.
// ---------------------------------------------------------------------------

void scalar_normalize_epoch(std::span<float> x) {
  if (x.empty()) return;
  double s = 0.0;
  for (float v : x) s += v;
  const double m = s / static_cast<double>(x.size());
  double ss = 0.0;
  for (float v : x) {
    const double d = v - m;
    ss += d * d;
  }
  if (ss <= 0.0) {
    std::fill(x.begin(), x.end(), 0.0f);
    return;
  }
  const auto inv = static_cast<float>(1.0 / std::sqrt(ss));
  for (float& v : x) v = (v - static_cast<float>(m)) * inv;
}

// Equal bits, or NaN on both sides (NaN payloads are not part of the
// contract).
bool same_float(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  std::uint32_t ua = 0;
  std::uint32_t ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

constexpr linalg::simd::Isa kEveryIsa[] = {linalg::simd::Isa::kScalar,
                                           linalg::simd::Isa::kAvx2,
                                           linalg::simd::Isa::kAvx512};

// Rows [first, first + rows) of `src` (row stride lds) normalized by the
// scalar loop into rows of ldd floats.
std::vector<float> scalar_rows(const std::vector<float>& src, std::size_t lds,
                               std::size_t first, std::size_t rows,
                               std::size_t len, std::size_t ldd) {
  std::vector<float> out(rows == 0 ? 0 : (rows - 1) * ldd + len, -7.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<float> x(src.begin() + (first + r) * lds,
                         src.begin() + (first + r) * lds + len);
    scalar_normalize_epoch(x);
    std::copy(x.begin(), x.end(), out.begin() + r * ldd);
  }
  return out;
}

// Runs every table over rows [first, first + rows) of `src` and compares
// each written float, and the untouched gap floats, with the scalar loop.
// Both buffers are exact-size: the source's last row and the output's last
// row end where their allocations end, so ASan catches any read or write
// past a row.
void expect_kernel_matches_scalar(const std::vector<float>& src,
                                  std::size_t lds, std::size_t first,
                                  std::size_t rows, std::size_t len,
                                  std::size_t ldd, const char* what) {
  const std::vector<float> want = scalar_rows(src, lds, first, rows, len, ldd);
  for (const auto isa : kEveryIsa) {
    std::vector<float> got(want.size(), -7.0f);
    linalg::simd::kernels(isa).epoch_zscore(src.data() + first * lds, lds,
                                            got.data(), ldd, rows, len);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(same_float(got[i], want[i]))
          << what << ": " << linalg::simd::isa_name(isa) << " rows " << rows
          << " len " << len << " lds " << lds << " first " << first
          << " at " << i << ": " << got[i] << " vs " << want[i];
    }
  }
}

// Exact-size source: `rows` rows of `len` samples at stride lds, the last
// row ending at the end of the allocation.
std::vector<float> exact_source(std::size_t rows, std::size_t len,
                                std::size_t lds, std::uint64_t seed) {
  std::vector<float> src((rows - 1) * lds + len);
  Rng rng(seed);
  for (float& v : src) v = rng.uniform(-3.0f, 5.0f);
  return src;
}

TEST(EpochZscore, MatchesScalarLoopAtEveryLengthAndRowCount) {
  // Row counts straddle every lane width (4, 8, 16) and its shared tail;
  // lengths 1-33 cross the 32-sample staging tile, and 70 re-stages it
  // three times.
  std::vector<std::size_t> lengths;
  for (std::size_t len = 1; len <= 33; ++len) lengths.push_back(len);
  lengths.push_back(70);
  for (const std::size_t len : lengths) {
    for (const std::size_t rows : {1u, 3u, 5u, 16u, 21u, 35u}) {
      const auto packed = exact_source(rows, len, len, 10 * len + rows);
      expect_kernel_matches_scalar(packed, len, 0, rows, len, len, "packed");
      // A source stride wider than the row (a shard's padded rows or a
      // dataset's timepoint axis) and an output stride wider still.
      const auto strided = exact_source(rows, len, len + 3, 7 * len + rows);
      expect_kernel_matches_scalar(strided, len + 3, 0, rows, len, len + 5,
                                   "strided");
    }
  }
}

TEST(EpochZscore, RowOffsetsMatchTheWholePanel) {
  // A row range starting at first_row normalizes to the same bits as the
  // same rows of the whole panel, whatever lane those rows land in.
  const std::size_t len = 12;
  const std::size_t lds = 16;
  const std::size_t total = 41;
  const auto src = exact_source(total, len, lds, 77);
  for (const std::size_t first : {0u, 1u, 3u, 7u, 17u}) {
    expect_kernel_matches_scalar(src, lds, first, total - first, len, len,
                                 "offset");
  }
}

TEST(EpochZscore, ConstantRowsGiveZerosAndNonFiniteRowsGiveNan) {
  const std::size_t len = 12;
  const std::size_t rows = 19;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> src = exact_source(rows, len, len, 5);
  for (std::size_t t = 0; t < len; ++t) {
    src[0 * len + t] = 4.0f;    // constant
    src[5 * len + t] = -0.0f;   // constant zero
    src[17 * len + t] = 1e-30f; // constant, tiny
  }
  src[2 * len + 4] = nan;
  src[9 * len + 0] = inf;
  src[11 * len + 11] = -inf;
  src[18 * len + 3] = inf;  // the last row, in the tail at every width
  src[18 * len + 6] = -inf;
  expect_kernel_matches_scalar(src, len, 0, rows, len, len, "special");

  std::vector<float> out(src.size());
  linalg::simd::kernels().epoch_zscore(src.data(), len, out.data(), len, rows,
                                       len);
  for (const std::size_t r : {0u, 5u, 17u}) {
    for (std::size_t t = 0; t < len; ++t) {
      EXPECT_TRUE(same_float(out[r * len + t], 0.0f)) << r << " " << t;
    }
  }
  for (const std::size_t r : {2u, 9u, 11u, 18u}) {
    for (std::size_t t = 0; t < len; ++t) {
      EXPECT_TRUE(std::isnan(out[r * len + t])) << r << " " << t;
    }
  }
}

TEST(EpochZscore, InPlaceEqualsOutOfPlace) {
  for (const std::size_t len : {12u, 40u}) {
    const std::size_t rows = 23;
    const auto src = exact_source(rows, len, len + 4, 9 + len);
    const std::vector<float> want =
        scalar_rows(src, len + 4, 0, rows, len, len + 4);
    for (const auto isa : kEveryIsa) {
      std::vector<float> x = src;
      linalg::simd::kernels(isa).epoch_zscore(x.data(), len + 4, x.data(),
                                              len + 4, rows, len);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t t = 0; t < len; ++t) {
          const std::size_t i = r * (len + 4) + t;
          ASSERT_TRUE(same_float(x[i], want[i]))
              << linalg::simd::isa_name(isa) << " " << r << " " << t;
        }
      }
    }
  }
}

TEST(Stats, NormalizeEpochIsTheKernelsOneRowCall) {
  // stats::normalize_epoch runs the active table's kernel on one row; it
  // must equal the scalar loop on every length, constant and NaN included.
  for (std::size_t len = 0; len <= 33; ++len) {
    auto x = random_vec(len, 900 + len);
    if (len == 7) std::fill(x.begin(), x.end(), 1.5f);
    if (len == 9) x[4] = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> want = x;
    scalar_normalize_epoch(want);
    normalize_epoch(x);
    for (std::size_t t = 0; t < len; ++t) {
      EXPECT_TRUE(same_float(x[t], want[t])) << "len " << len << " t " << t;
    }
  }
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
