// Tests for the runtime-dispatched SIMD micro-kernels (linalg/simd.hpp).
//
// Every ISA variant — portable-scalar, AVX2, AVX-512 lane widths — must
// agree with a double-precision reference to tolerance AND bit-identically
// with the other variants: dispatch may change speed, never answers.  The
// variants are all compiled from GCC vector extensions, so each one runs on
// any host (wide vectors are synthesized from narrower ops where needed),
// which is what makes this suite meaningful on every machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "linalg/opt.hpp"
#include "linalg/simd.hpp"

namespace fcma::linalg::simd {
namespace {

constexpr Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512};

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (float& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

// ---------------------------------------------------------------------------
// Dispatch resolution
// ---------------------------------------------------------------------------

// Must run before anything else in this process touches active_isa(): the
// FCMA_FORCE_ISA override is resolved once and cached.  (Keep this test
// first in the file; under ctest each test is its own process anyway.)
TEST(SimdDispatch, ForceIsaEnvOverridesDetection) {
  ::setenv("FCMA_FORCE_ISA", "scalar", 1);
  EXPECT_EQ(active_isa(), Isa::kScalar);
  ::unsetenv("FCMA_FORCE_ISA");
}

TEST(SimdDispatch, IsaNamesRoundTrip) {
  for (const Isa isa : kAllIsas) {
    Isa parsed = Isa::kAvx512;
    ASSERT_TRUE(parse_isa(isa_name(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  Isa ignored;
  EXPECT_FALSE(parse_isa("", &ignored));
  EXPECT_FALSE(parse_isa("avx", &ignored));
  EXPECT_FALSE(parse_isa("AVX512", &ignored));
}

TEST(SimdDispatch, DetectedIsaIsValid) {
  const Isa isa = detect_isa();
  EXPECT_TRUE(isa == Isa::kScalar || isa == Isa::kAvx2 ||
              isa == Isa::kAvx512);
  // Whatever was detected must have a working kernel table.
  EXPECT_NE(kernels(isa).gemm_row_panel, nullptr);
  EXPECT_NE(kernels(isa).syrk_panel, nullptr);
  EXPECT_NE(kernels(isa).fisher_moments, nullptr);
  EXPECT_NE(kernels(isa).zscore_finish, nullptr);
  EXPECT_NE(kernels(isa).smo_select, nullptr);
  EXPECT_NE(kernels(isa).smo_gain, nullptr);
  EXPECT_NE(kernels(isa).smo_update, nullptr);
}

// ---------------------------------------------------------------------------
// gemm row-panel: every variant vs the double reference, and bit-identical
// across variants.  width = 150 exercises the 4-vector block, the single-
// vector loop, and the scalar remainder at every lane width.
// ---------------------------------------------------------------------------

TEST(SimdDispatch, GemmRowPanelMatchesReferenceOnEveryIsa) {
  const std::size_t k = 37;
  const std::size_t width = 150;
  const auto a = random_vec(k, 1);
  const auto bt = random_vec(k * width, 2);

  std::vector<float> want(width);
  for (std::size_t j = 0; j < width; ++j) {
    double acc = 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
      acc += static_cast<double>(a[kk]) *
             static_cast<double>(bt[kk * width + j]);
    }
    want[j] = static_cast<float>(acc);
  }

  std::vector<std::vector<float>> got;
  for (const Isa isa : kAllIsas) {
    std::vector<float> c(width, -42.0f);
    kernels(isa).gemm_row_panel(a.data(), k, bt.data(), width, c.data());
    for (std::size_t j = 0; j < width; ++j) {
      EXPECT_NEAR(c[j], want[j], 1e-4f)
          << "isa " << isa_name(isa) << " col " << j;
    }
    got.push_back(std::move(c));
  }
  // Dispatch must not change answers: ascending-k accumulation per output
  // element makes every lane width produce the same bits.
  EXPECT_EQ(got[0], got[1]);
  EXPECT_EQ(got[0], got[2]);
}

// ---------------------------------------------------------------------------
// syrk panel: full-depth panels (the compile-time-substep fast path) and a
// ragged panel, on an M that has full tiles and edge tiles, read in place
// from rows wider than the panel.  Only the lower triangle is compared —
// the tile sweep writes scratch above the diagonal that mirror_upper
// overwrites in production.
// ---------------------------------------------------------------------------

void check_syrk_panel(std::size_t m, std::size_t kb) {
  const std::size_t lda = kb + 5;
  const auto a = random_vec(m * lda, 3);

  std::vector<std::vector<float>> got;
  for (const Isa isa : kAllIsas) {
    std::vector<float> at_local(kb * m);
    std::vector<float> c(m * m, 0.0f);
    kernels(isa).syrk_panel(a.data(), lda, at_local.data(), m, kb, c.data(),
                            m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < kb; ++k) {
          acc += static_cast<double>(a[i * lda + k]) *
                 static_cast<double>(a[j * lda + k]);
        }
        EXPECT_NEAR(c[i * m + j], static_cast<float>(acc), 1e-4f)
            << "isa " << isa_name(isa) << " at (" << i << ", " << j << ")";
      }
    }
    // Keep only the defined (lower-triangle) part for the bit comparison.
    std::vector<float> lower;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j <= i; ++j) lower.push_back(c[i * m + j]);
    }
    got.push_back(std::move(lower));
  }
  EXPECT_EQ(got[0], got[1]);
  EXPECT_EQ(got[0], got[2]);
}

TEST(SimdDispatch, SyrkPanelFullDepthMatchesReferenceOnEveryIsa) {
  check_syrk_panel(21, opt::kSyrkPanelK);
}

TEST(SimdDispatch, SyrkPanelRaggedDepthMatchesReferenceOnEveryIsa) {
  check_syrk_panel(13, 33);
}

// ---------------------------------------------------------------------------
// The syrk oracle: a copy of the panel kernel before it read A in place —
// each panel copied into a_local, a scalar transpose into at_local, and
// 9-row x W-column micro-tiles flushing into C every opt::kSyrkNumericK
// elements, with the shared 4-lane edge handler.  Every table of the
// current kernel must reproduce its lower triangle bit for bit, so no
// rewrite of the tiles can move a kernel matrix.
// ---------------------------------------------------------------------------
namespace oracle {

template <int W>
struct VecOf {
  typedef float type
      __attribute__((vector_size(W * sizeof(float)), aligned(4)));
};

template <int W>
typename VecOf<W>::type vload(const float* p) {
  return *reinterpret_cast<const typename VecOf<W>::type*>(p);
}

template <int W>
void vstore(float* p, typename VecOf<W>::type v) {
  *reinterpret_cast<typename VecOf<W>::type*>(p) = v;
}

using V4 = VecOf<4>::type;
constexpr std::size_t kRows = 9;

template <int W>
void tile_full(const float* a_tile, std::size_t lda, const float* at_tile,
               std::size_t ldat, float* c_tile, std::size_t ldc) {
  using V = typename VecOf<W>::type;
  V acc[kRows] = {};
  for (std::size_t k = 0; k < opt::kSyrkNumericK; ++k) {
    const V at = vload<W>(at_tile + k * ldat);
    for (std::size_t r = 0; r < kRows; ++r) {
      acc[r] += a_tile[r * lda + k] * at;
    }
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    float* crow = c_tile + r * ldc;
    vstore<W>(crow, vload<W>(crow) + acc[r]);
  }
}

void tile_edge(const float* a_tile, std::size_t lda, const float* at_tile,
               std::size_t ldat, std::size_t kb, std::size_t rows,
               std::size_t cols, float* c_tile, std::size_t ldc) {
  for (std::size_t w0 = 0; w0 < cols; w0 += 4) {
    const std::size_t lanes = std::min<std::size_t>(4, cols - w0);
    V4 acc[kRows] = {};
    if (lanes == 4) {
      for (std::size_t k = 0; k < kb; ++k) {
        const V4 at = vload<4>(at_tile + k * ldat + w0);
        for (std::size_t r = 0; r < rows; ++r) {
          acc[r] += a_tile[r * lda + k] * at;
        }
      }
    } else {
      alignas(16) float tmp[4] = {};
      for (std::size_t k = 0; k < kb; ++k) {
        for (std::size_t l = 0; l < lanes; ++l) {
          tmp[l] = at_tile[k * ldat + w0 + l];
        }
        const V4 at = vload<4>(tmp);
        for (std::size_t r = 0; r < rows; ++r) {
          acc[r] += a_tile[r * lda + k] * at;
        }
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      float* crow = c_tile + r * ldc + w0;
      for (std::size_t l = 0; l < lanes; ++l) crow[l] += acc[r][l];
    }
  }
}

// One panel of kb columns of the m rows at a (row stride lda).
template <int W>
void panel(const float* a, std::size_t lda, std::size_t m, std::size_t kb,
           float* c, std::size_t ldc) {
  std::vector<float> a_local(m * kb);
  std::vector<float> at_local(kb * m);
  for (std::size_t i = 0; i < m; ++i) {
    std::copy(a + i * lda, a + i * lda + kb, a_local.begin() + i * kb);
  }
  for (std::size_t k = 0; k < kb; ++k) {
    for (std::size_t i = 0; i < m; ++i) {
      at_local[k * m + i] = a_local[i * kb + k];
    }
  }
  for (std::size_t k0 = 0; k0 < kb; k0 += opt::kSyrkNumericK) {
    const std::size_t kbs = std::min(opt::kSyrkNumericK, kb - k0);
    for (std::size_t i0 = 0; i0 < m; i0 += kRows) {
      const std::size_t rows = std::min(kRows, m - i0);
      for (std::size_t j0 = 0; j0 <= i0 + rows - 1;
           j0 += static_cast<std::size_t>(W)) {
        const std::size_t cols = std::min<std::size_t>(W, m - j0);
        const float* a_tile = a_local.data() + i0 * kb + k0;
        const float* at_tile = at_local.data() + k0 * m + j0;
        float* c_tile = c + i0 * ldc + j0;
        if (rows == kRows && cols == static_cast<std::size_t>(W) &&
            kbs == opt::kSyrkNumericK) {
          tile_full<W>(a_tile, kb, at_tile, m, c_tile, ldc);
        } else {
          tile_edge(a_tile, kb, at_tile, m, kbs, rows, cols, c_tile, ldc);
        }
      }
    }
  }
}

// The old syrk_accumulate without the mirror: panels of kSyrkPanelK.
template <int W>
void accumulate(const float* a, std::size_t lda, std::size_t m,
                std::size_t n, float* c, std::size_t ldc) {
  for (std::size_t k0 = 0; k0 < n; k0 += opt::kSyrkPanelK) {
    panel<W>(a + k0, lda, m, std::min(n - k0, opt::kSyrkPanelK), c, ldc);
  }
}

void accumulate(Isa isa, const float* a, std::size_t lda, std::size_t m,
                std::size_t n, float* c, std::size_t ldc) {
  switch (isa) {
    case Isa::kScalar: accumulate<4>(a, lda, m, n, c, ldc); break;
    case Isa::kAvx2: accumulate<8>(a, lda, m, n, c, ldc); break;
    case Isa::kAvx512: accumulate<16>(a, lda, m, n, c, ldc); break;
  }
}

}  // namespace oracle

std::vector<float> lower_triangle(const std::vector<float>& c, std::size_t m,
                                  std::size_t ldc) {
  std::vector<float> lower;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j <= i; ++j) lower.push_back(c[i * ldc + j]);
  }
  return lower;
}

// One panel on every table, against the oracle at the table's lane width,
// over a C that already holds values: rows 1-40 cover every tile edge of
// 8 and 9 rows and of 1, 2 and 4 vectors; 64, 216 and 360 are the closed
// loop's, face-scene's and attention's M.  The pack must be A's exact
// transpose.
TEST(SyrkKernel, PanelMatchesTheOldKernelBitForBitOnEveryTable) {
  std::vector<std::size_t> ms;
  for (std::size_t m = 1; m <= 40; ++m) ms.push_back(m);
  for (const std::size_t m : {64, 216, 360}) ms.push_back(m);
  for (const std::size_t kb : {12, 33, 48, 96}) {
    const std::size_t lda = kb + 7;
    for (const std::size_t m : ms) {
      const std::size_t ldc = m + 3;
      const auto a = random_vec(m * lda, 100 + m);
      const auto c0 = random_vec(m * ldc, 200 + m);
      for (const Isa isa : kAllIsas) {
        std::vector<float> want = c0;
        oracle::accumulate(isa, a.data(), lda, m, kb, want.data(), ldc);
        std::vector<float> got = c0;
        std::vector<float> at_local(kb * m, -1.0f);
        kernels(isa).syrk_panel(a.data(), lda, at_local.data(), m, kb,
                                got.data(), ldc);
        EXPECT_EQ(lower_triangle(got, m, ldc), lower_triangle(want, m, ldc))
            << "isa " << isa_name(isa) << " m " << m << " kb " << kb;
        bool transposed = true;
        for (std::size_t k = 0; k < kb; ++k) {
          for (std::size_t i = 0; i < m; ++i) {
            transposed &= at_local[k * m + i] == a[i * lda + k];
          }
        }
        EXPECT_TRUE(transposed)
            << "isa " << isa_name(isa) << " m " << m << " kb " << kb;
      }
    }
  }
}

// opt::syrk_accumulate through the active table (each forced table under
// ctest's SyrkKernel.forced_isa_* entries) over several panels, the last
// ragged, of a block read at a row stride wider than the block.
TEST(SyrkKernel, AccumulateMatchesTheOldKernelAcrossPanels) {
  for (const std::size_t m : {9, 40, 216}) {
    const std::size_t n = 3 * opt::kSyrkPanelK + 33;
    const std::size_t lda = n + 11;
    const auto a = random_vec(m * lda, 300 + m);
    const auto c0 = random_vec(m * m, 400 + m);
    std::vector<float> want = c0;
    oracle::accumulate(active_isa(), a.data(), lda, m, n, want.data(), m);
    std::vector<float> got = c0;
    opt::syrk_accumulate(ConstMatrixView{a.data(), m, n, lda},
                         MatrixView{got.data(), m, m, m}, /*mirror=*/false);
    EXPECT_EQ(lower_triangle(got, m, m), lower_triangle(want, m, m))
        << "isa " << isa_name(active_isa()) << " m " << m;
  }
}

// ---------------------------------------------------------------------------
// Normalization inner loops: column-parallel, so every lane width performs
// the identical per-column accumulation.
// ---------------------------------------------------------------------------

// The kernel's z is the one-value fisher_z() (the same 4-lane code); the
// moments are then the scalar running sums of those z.
TEST(SimdDispatch, FisherMomentsMatchesScalarOnEveryIsa) {
  const std::size_t width = 100;
  const std::size_t rows = 3;
  const auto data = random_vec(rows * width, 4);

  std::vector<float> want_z(rows * width);
  std::vector<float> want_sum(width, 0.0f);
  std::vector<float> want_sumsq(width, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < width; ++j) {
      const float z = fisher_z(data[r * width + j]);
      want_z[r * width + j] = z;
      want_sum[j] += z;
      want_sumsq[j] += z * z;
    }
  }

  for (const Isa isa : kAllIsas) {
    std::vector<float> z = data;
    std::vector<float> sum(width, 0.0f);
    std::vector<float> sumsq(width, 0.0f);
    for (std::size_t r = 0; r < rows; ++r) {
      kernels(isa).fisher_moments(z.data() + r * width, sum.data(),
                                  sumsq.data(), width);
    }
    EXPECT_EQ(z, want_z) << "isa " << isa_name(isa);
    EXPECT_EQ(sum, want_sum) << "isa " << isa_name(isa);
    EXPECT_EQ(sumsq, want_sumsq) << "isa " << isa_name(isa);
  }
}

// Every width from a lone padded tail to several wide vectors plus a ragged
// tail: the three tables split the columns differently, yet agree bit for
// bit on z and on both moments.  Inputs span the clamp (|r| > 1) too.
TEST(SimdDispatch, FisherMomentsBitIdenticalOnRaggedWidths) {
  for (std::size_t width = 1; width <= 70; ++width) {
    std::vector<float> data(2 * width);
    Rng rng(100 + width);
    for (float& x : data) x = rng.uniform(-1.05f, 1.05f);
    std::vector<std::vector<float>> got;
    for (const Isa isa : kAllIsas) {
      std::vector<float> out = data;
      out.resize(4 * width, 0.5f);  // sum and sumsq start from nonzero
      float* sum = out.data() + 2 * width;
      float* sumsq = sum + width;
      kernels(isa).fisher_moments(out.data(), sum, sumsq, width);
      kernels(isa).fisher_moments(out.data() + width, sum, sumsq, width);
      got.push_back(std::move(out));
    }
    EXPECT_EQ(got[0], got[1]) << "width " << width;
    EXPECT_EQ(got[0], got[2]) << "width " << width;
  }
}

TEST(SimdDispatch, FisherMomentsPropagatesNan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const Isa isa : kAllIsas) {
    // NaN in a wide-vector column and in the padded tail.
    std::vector<float> row(37, 0.25f);
    row[3] = nan;
    row[36] = nan;
    std::vector<float> sum(row.size(), 0.0f);
    std::vector<float> sumsq(row.size(), 0.0f);
    kernels(isa).fisher_moments(row.data(), sum.data(), sumsq.data(),
                                row.size());
    for (std::size_t j = 0; j < row.size(); ++j) {
      const bool poisoned = j == 3 || j == 36;
      EXPECT_EQ(std::isnan(row[j]), poisoned) << isa_name(isa) << " " << j;
      EXPECT_EQ(std::isnan(sum[j]), poisoned) << isa_name(isa) << " " << j;
      EXPECT_EQ(std::isnan(sumsq[j]), poisoned) << isa_name(isa) << " " << j;
    }
  }
}

TEST(SimdDispatch, ZscoreFinishMatchesScalarOnEveryIsa) {
  const std::size_t width = 77;
  const auto row0 = random_vec(width, 5);
  const auto mean = random_vec(width, 6);
  const auto inv_sd = random_vec(width, 7);

  std::vector<float> want(width);
  for (std::size_t j = 0; j < width; ++j) {
    want[j] = (row0[j] - mean[j]) * inv_sd[j];
  }

  for (const Isa isa : kAllIsas) {
    std::vector<float> row = row0;
    kernels(isa).zscore_finish(row.data(), mean.data(), inv_sd.data(), width);
    EXPECT_EQ(row, want) << "isa " << isa_name(isa);
  }
}

// ---------------------------------------------------------------------------
// SMO sweeps: each kernel against the scalar loops it replaced, on every
// table.  Buffers are padded to kSmoPad with y = 0 lanes; n covers a single
// element, a short vector, exactly one, one plus a ragged lane, and an FCMA
// LOSO fold.
// ---------------------------------------------------------------------------

constexpr std::size_t kSmoSizes[] = {1, 15, 16, 17, 342};

struct SmoCase {
  std::size_t n = 0;  // real elements; the buffers hold a kSmoPad multiple
  float c = 0.7f;
  std::vector<float> y, alpha, grad, diag, ki, kj;

  [[nodiscard]] SmoSweep sweep() const {
    return {y.data(), alpha.data(), grad.data(), y.size(), c};
  }
  [[nodiscard]] bool in_up(std::size_t t) const {
    return y[t] == 1.0f ? alpha[t] < c : alpha[t] > 0.0f;
  }
  [[nodiscard]] bool in_low(std::size_t t) const {
    return y[t] == 1.0f ? alpha[t] > 0.0f : alpha[t] < c;
  }
  [[nodiscard]] float v(std::size_t t) const { return -y[t] * grad[t]; }
};

// Random labels, alphas on {0, c/2, c} so both sets vary, and gradients
// drawn from `values` (a short list gives many ties).  Padding lanes get
// y = 0 and values that would win both extrema if they were not masked.
SmoCase make_smo_case(std::size_t n, std::uint64_t seed,
                      const std::vector<float>& values) {
  SmoCase s;
  s.n = n;
  const std::size_t padded = (n + kSmoPad - 1) / kSmoPad * kSmoPad;
  Rng rng(seed);
  for (std::size_t t = 0; t < padded; ++t) {
    const bool pad = t >= n;
    s.y.push_back(pad ? 0.0f : (rng.uniform() < 0.5 ? 1.0f : -1.0f));
    const float a[] = {0.0f, 0.5f * s.c, s.c};
    s.alpha.push_back(a[rng.uniform_index(3)]);
    s.grad.push_back(pad ? 0.0f : values[rng.uniform_index(values.size())]);
    s.diag.push_back(pad ? 0.0f : rng.uniform(0.5f, 2.0f));
    s.ki.push_back(pad ? 0.0f : rng.uniform(-1.0f, 1.0f));
    s.kj.push_back(pad ? 0.0f : rng.uniform(-1.0f, 1.0f));
  }
  return s;
}

void ref_select(const SmoCase& s, int* i_up, int* j_low) {
  float g_max = -std::numeric_limits<float>::infinity();
  float g_min = std::numeric_limits<float>::infinity();
  *i_up = -1;
  *j_low = -1;
  for (std::size_t t = 0; t < s.n; ++t) {
    if (s.in_up(t) && s.v(t) >= g_max) {
      g_max = s.v(t);
      *i_up = static_cast<int>(t);
    }
    if (s.in_low(t) && s.v(t) <= g_min) {
      g_min = s.v(t);
      *j_low = static_cast<int>(t);
    }
  }
}

int ref_gain(const SmoCase& s, float kii, float g_max) {
  int j_best = -1;
  float best = std::numeric_limits<float>::infinity();
  for (std::size_t t = 0; t < s.n; ++t) {
    if (!s.in_low(t)) continue;
    const float diff = g_max - s.v(t);
    if (diff <= 0.0f) continue;
    const float quad = std::max(kii + s.diag[t] - 2.0f * s.ki[t], kSmoTau);
    const float gain = -(diff * diff) / quad;
    if (gain <= best) {
      best = gain;
      j_best = static_cast<int>(t);
    }
  }
  return j_best;
}

void expect_select_matches(const SmoCase& s) {
  int want_i = 0;
  int want_j = 0;
  ref_select(s, &want_i, &want_j);
  for (const Isa isa : kAllIsas) {
    int i = 0;
    int j = 0;
    kernels(isa).smo_select(s.sweep(), &i, &j);
    EXPECT_EQ(i, want_i) << "isa " << isa_name(isa) << " n " << s.n;
    EXPECT_EQ(j, want_j) << "isa " << isa_name(isa) << " n " << s.n;
  }
}

void expect_gain_matches(const SmoCase& s, float kii, float g_max) {
  const int want = ref_gain(s, kii, g_max);
  for (const Isa isa : kAllIsas) {
    EXPECT_EQ(kernels(isa).smo_gain(s.sweep(), s.diag.data(), s.ki.data(),
                                    kii, g_max),
              want)
        << "isa " << isa_name(isa) << " n " << s.n << " g_max " << g_max;
  }
}

TEST(SimdDispatch, SmoSelectMatchesScalarOnEveryIsa) {
  for (const std::size_t n : kSmoSizes) {
    // Continuous values, then three values (ties everywhere: the last index
    // must win), then infinities in both directions.
    std::vector<float> values;
    for (int k = 0; k < 64; ++k) values.push_back(std::ldexp(k - 32.0f, -4));
    expect_select_matches(make_smo_case(n, 11 + n, values));
    expect_select_matches(make_smo_case(n, 13 + n, {-1.0f, 0.0f, 1.0f}));
    const float inf = std::numeric_limits<float>::infinity();
    expect_select_matches(make_smo_case(n, 17 + n, {-inf, -1.0f, 1.0f, inf}));
    expect_select_matches(make_smo_case(n, 19 + n, {-inf}));
  }
}

TEST(SimdDispatch, SmoSelectTiesGoToTheLastIndex) {
  for (const std::size_t n : kSmoSizes) {
    SmoCase s = make_smo_case(n, 23, {0.25f});
    for (std::size_t t = 0; t < n; ++t) s.alpha[t] = 0.5f * s.c;  // both sets
    for (const Isa isa : kAllIsas) {
      int i = 0;
      int j = 0;
      kernels(isa).smo_select(s.sweep(), &i, &j);
      // v = -y * 0.25 takes two values; each extremum's last holder wins.
      int want_i = -1;
      int want_j = -1;
      for (std::size_t t = 0; t < n; ++t) {
        if (s.y[t] == -1.0f) want_i = static_cast<int>(t);
        if (s.y[t] == 1.0f) want_j = static_cast<int>(t);
      }
      if (want_i < 0) want_i = static_cast<int>(n) - 1;  // all y = +1
      if (want_j < 0) want_j = static_cast<int>(n) - 1;  // all y = -1
      EXPECT_EQ(i, want_i) << "isa " << isa_name(isa) << " n " << n;
      EXPECT_EQ(j, want_j) << "isa " << isa_name(isa) << " n " << n;
    }
  }
}

TEST(SimdDispatch, SmoSelectEmptySetGivesMinusOne) {
  for (const std::size_t n : kSmoSizes) {
    SmoCase s = make_smo_case(n, 29, {-0.5f, 0.5f});
    // Up empty: y = +1 at c, y = -1 at 0.  Then low empty: the reverse.
    for (std::size_t t = 0; t < n; ++t) s.alpha[t] = s.y[t] > 0 ? s.c : 0.0f;
    for (const Isa isa : kAllIsas) {
      int i = 0;
      int j = 0;
      kernels(isa).smo_select(s.sweep(), &i, &j);
      EXPECT_EQ(i, -1) << "isa " << isa_name(isa) << " n " << n;
      EXPECT_GE(j, 0) << "isa " << isa_name(isa) << " n " << n;
    }
    expect_select_matches(s);
    for (std::size_t t = 0; t < n; ++t) s.alpha[t] = s.y[t] > 0 ? 0.0f : s.c;
    for (const Isa isa : kAllIsas) {
      int i = 0;
      int j = 0;
      kernels(isa).smo_select(s.sweep(), &i, &j);
      EXPECT_GE(i, 0) << "isa " << isa_name(isa) << " n " << n;
      EXPECT_EQ(j, -1) << "isa " << isa_name(isa) << " n " << n;
    }
    expect_select_matches(s);
  }
}

TEST(SimdDispatch, SmoGainMatchesScalarOnEveryIsa) {
  const float inf = std::numeric_limits<float>::infinity();
  for (const std::size_t n : kSmoSizes) {
    std::vector<float> values;
    for (int k = 0; k < 64; ++k) values.push_back(std::ldexp(k - 32.0f, -4));
    const SmoCase cont = make_smo_case(n, 31 + n, values);
    // g_max above, inside and below the range of v: below, every diff <= 0
    // is skipped and the scan finds nothing.
    for (const float g_max : {3.0f, 0.0f, -0.25f, -3.0f}) {
      expect_gain_matches(cont, 1.0f, g_max);
    }
    // Curvature clamped to kSmoTau (quad <= 0) for every element.
    expect_gain_matches(cont, -10.0f, 1.0f);
    // Ties: constant kernel row and diagonal, three gradient values.
    SmoCase ties = make_smo_case(n, 37 + n, {-1.0f, 0.0f, 1.0f});
    for (std::size_t t = 0; t < n; ++t) {
      ties.diag[t] = 1.0f;
      ties.ki[t] = 0.25f;
    }
    expect_gain_matches(ties, 1.0f, 2.0f);
    // Infinite gradients: diff = +-inf or NaN, gains -inf or NaN.
    const SmoCase infs = make_smo_case(n, 41 + n, {-inf, -1.0f, 1.0f, inf});
    expect_gain_matches(infs, 1.0f, 0.5f);
    expect_gain_matches(infs, 1.0f, inf);
  }
}

TEST(SimdDispatch, SmoUpdateMatchesScalarOnEveryIsa) {
  for (const std::size_t n : kSmoSizes) {
    std::vector<float> values;
    for (int k = 0; k < 64; ++k) values.push_back(std::ldexp(k - 32.0f, -4));
    const SmoCase s = make_smo_case(n, 43 + n, values);
    const float ci = 0.375f;
    const float cj = -1.3f;
    std::vector<float> want = s.grad;
    for (std::size_t t = 0; t < n; ++t) {
      want[t] += s.y[t] * (ci * s.ki[t] + cj * s.kj[t]);
    }
    for (const Isa isa : kAllIsas) {
      std::vector<float> g = s.grad;
      kernels(isa).smo_update(g.data(), s.y.data(), s.ki.data(), s.kj.data(),
                              ci, cj, g.size());
      EXPECT_EQ(g, want) << "isa " << isa_name(isa) << " n " << n;
    }
  }
}

}  // namespace
}  // namespace fcma::linalg::simd
