// Tests for the matrix kernels: correctness of the baseline and optimized
// gemm/syrk against the double-precision reference across the tall-skinny
// shapes FCMA uses (and adversarial odd shapes), agreement of every
// instrumented twin with its fast kernel, and the event-count orderings the
// paper's Tables 5/6 rest on.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.hpp"
#include "linalg/baseline.hpp"
#include "linalg/matrix.hpp"
#include "linalg/opt.hpp"
#include "linalg/reference.hpp"

namespace fcma::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = rng.uniform(-1.0f, 1.0f);
    }
  }
  return m;
}

// Relative-ish tolerance for float kernels vs the double reference.
float tolerance(std::size_t k) {
  return 1e-5f * static_cast<float>(k) + 1e-5f;
}

// ---------------------------------------------------------------------------
// gemm_nt correctness across shapes (parameterized sweep)
// ---------------------------------------------------------------------------

using GemmShape = std::tuple<int, int, int>;  // M, N, K

class GemmShapes : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapes, BaselineMatchesReference) {
  const auto [m, n, k] = GetParam();
  const Matrix a = random_matrix(m, k, 1);
  const Matrix b = random_matrix(n, k, 2);
  Matrix want(m, n);
  Matrix got(m, n);
  reference::gemm_nt(a.view(), b.view(), want.view());
  baseline::gemm_nt(a.view(), b.view(), got.view());
  EXPECT_LE(reference::max_abs_diff(want.view(), got.view()), tolerance(k));
}

TEST_P(GemmShapes, OptimizedMatchesReference) {
  const auto [m, n, k] = GetParam();
  const Matrix a = random_matrix(m, k, 3);
  const Matrix b = random_matrix(n, k, 4);
  Matrix want(m, n);
  Matrix got(m, n);
  reference::gemm_nt(a.view(), b.view(), want.view());
  opt::gemm_nt(a.view(), b.view(), got.view());
  EXPECT_LE(reference::max_abs_diff(want.view(), got.view()), tolerance(k));
}

TEST_P(GemmShapes, BaselineInstrumentedMatchesReference) {
  const auto [m, n, k] = GetParam();
  const Matrix a = random_matrix(m, k, 5);
  const Matrix b = random_matrix(n, k, 6);
  Matrix want(m, n);
  Matrix got(m, n);
  reference::gemm_nt(a.view(), b.view(), want.view());
  memsim::Instrument ins;
  baseline::gemm_nt_instrumented(a.view(), b.view(), got.view(), ins);
  EXPECT_LE(reference::max_abs_diff(want.view(), got.view()), tolerance(k));
  EXPECT_GT(ins.events().mem_refs, 0u);
}

TEST_P(GemmShapes, OptimizedInstrumentedMatchesReference) {
  const auto [m, n, k] = GetParam();
  const Matrix a = random_matrix(m, k, 7);
  const Matrix b = random_matrix(n, k, 8);
  Matrix want(m, n);
  Matrix got(m, n);
  reference::gemm_nt(a.view(), b.view(), want.view());
  memsim::Instrument ins;
  opt::gemm_nt_instrumented(a.view(), b.view(), got.view(), ins);
  EXPECT_LE(reference::max_abs_diff(want.view(), got.view()), tolerance(k));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 2},
                      GemmShape{8, 64, 12},     // one task voxel group
                      GemmShape{16, 257, 12},   // ragged panel edge
                      GemmShape{7, 511, 11},    // everything odd
                      GemmShape{32, 1024, 12},  // multi-panel
                      GemmShape{120, 700, 12},  // paper-like V and K
                      GemmShape{5, 2000, 20},   // long epoch
                      GemmShape{64, 64, 64}));  // square sanity

// ---------------------------------------------------------------------------
// syrk correctness across shapes
// ---------------------------------------------------------------------------

using SyrkShape = std::tuple<int, int>;  // M, N

class SyrkShapes : public ::testing::TestWithParam<SyrkShape> {};

TEST_P(SyrkShapes, BaselineMatchesReference) {
  const auto [m, n] = GetParam();
  const Matrix a = random_matrix(m, n, 11);
  Matrix want(m, m);
  Matrix got(m, m);
  reference::syrk(a.view(), want.view());
  baseline::syrk(a.view(), got.view());
  EXPECT_LE(reference::max_abs_diff(want.view(), got.view()), tolerance(n));
}

TEST_P(SyrkShapes, OptimizedMatchesReference) {
  const auto [m, n] = GetParam();
  const Matrix a = random_matrix(m, n, 12);
  Matrix want(m, m);
  Matrix got(m, m);
  reference::syrk(a.view(), want.view());
  opt::syrk(a.view(), got.view());
  EXPECT_LE(reference::max_abs_diff(want.view(), got.view()), tolerance(n));
}

TEST_P(SyrkShapes, InstrumentedTwinsMatchReference) {
  const auto [m, n] = GetParam();
  const Matrix a = random_matrix(m, n, 14);
  Matrix want(m, m);
  reference::syrk(a.view(), want.view());
  {
    Matrix got(m, m);
    memsim::Instrument ins;
    baseline::syrk_instrumented(a.view(), got.view(), ins);
    EXPECT_LE(reference::max_abs_diff(want.view(), got.view()), tolerance(n));
  }
  {
    Matrix got(m, m);
    memsim::Instrument ins;
    opt::syrk_instrumented(a.view(), got.view(), ins);
    EXPECT_LE(reference::max_abs_diff(want.view(), got.view()), tolerance(n));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SyrkShapes,
    ::testing::Values(SyrkShape{2, 3}, SyrkShape{9, 96},
                      SyrkShape{10, 100},   // ragged tile edges
                      SyrkShape{17, 191},   // primes
                      SyrkShape{32, 960},   // multi-panel
                      SyrkShape{204, 512},  // paper-like M
                      SyrkShape{64, 97}));  // panel remainder

// ---------------------------------------------------------------------------
// interleaved layout, panel primitives
// ---------------------------------------------------------------------------

TEST(Gemm, InterleavedLdcWritesStridedRows) {
  // The FCMA layout trick: epoch slices use ld = epochs * N so voxel rows
  // interleave.  Verify against a plain run.
  const std::size_t v = 4;
  const std::size_t n = 200;
  const std::size_t epochs = 3;
  const Matrix a = random_matrix(v, 12, 31);
  const Matrix b = random_matrix(n, 12, 32);
  Matrix flat(v, n);
  opt::gemm_nt(a.view(), b.view(), flat.view());

  Matrix interleaved(v * epochs, n);
  interleaved.fill(0.0f);
  const std::size_t m = 1;  // write into epoch slot 1
  MatrixView slice{interleaved.data() + m * interleaved.ld(), v, n,
                   epochs * interleaved.ld()};
  opt::gemm_nt(a.view(), b.view(), slice);
  for (std::size_t i = 0; i < v; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(interleaved(i * epochs + m, j), flat(i, j));
      EXPECT_EQ(interleaved(i * epochs, j), 0.0f);  // other slots untouched
    }
  }
}

TEST(Gemm, PanelPrimitivesComposeToFullGemm) {
  const Matrix a = random_matrix(6, 12, 41);
  const Matrix b = random_matrix(300, 12, 42);
  Matrix want(6, 300);
  reference::gemm_nt(a.view(), b.view(), want.view());
  Matrix got(6, 300);
  std::vector<float> bt(12 * 300);
  opt::pack_bt_panel(b.view(), 0, 300, bt.data());
  for (std::size_t i = 0; i < 6; ++i) {
    opt::gemm_row_panel(a.row(i), 12, bt.data(), 300, got.row(i));
  }
  EXPECT_LE(reference::max_abs_diff(want.view(), got.view()), tolerance(12));
}

TEST(Gemm, PackBtPanelTransposes) {
  const Matrix b = random_matrix(10, 4, 43);
  std::vector<float> bt(4 * 6);
  opt::pack_bt_panel(b.view(), 2, 8, bt.data());
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(bt[k * 6 + j], b(j + 2, k));
    }
  }
}

TEST(Gemm, DimensionMismatchThrows) {
  Matrix a(4, 12);
  Matrix b(10, 11);
  Matrix c(4, 10);
  EXPECT_THROW(opt::gemm_nt(a.view(), b.view(), c.view()), Error);
  EXPECT_THROW(baseline::gemm_nt(a.view(), b.view(), c.view()), Error);
  EXPECT_THROW(reference::gemm_nt(a.view(), b.view(), c.view()), Error);
}

TEST(Syrk, BadOutputShapeThrows) {
  Matrix a(8, 32);
  Matrix c(8, 9);
  EXPECT_THROW(opt::syrk(a.view(), c.view()), Error);
  EXPECT_THROW(baseline::syrk(a.view(), c.view()), Error);
}

TEST(Syrk, ResultIsSymmetric) {
  const Matrix a = random_matrix(33, 200, 51);
  Matrix c(33, 33);
  opt::syrk(a.view(), c.view());
  for (std::size_t i = 0; i < 33; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_EQ(c(i, j), c(j, i));
    }
  }
}

TEST(Syrk, DiagonalIsNonNegative) {
  const Matrix a = random_matrix(16, 150, 52);
  Matrix c(16, 16);
  opt::syrk(a.view(), c.view());
  for (std::size_t i = 0; i < 16; ++i) EXPECT_GE(c(i, i), 0.0f);
}

// ---------------------------------------------------------------------------
// Event-count orderings (the substance of Tables 5/6)
// ---------------------------------------------------------------------------

struct TallSkinnyEvents {
  memsim::KernelEvents baseline;
  memsim::KernelEvents optimized;
};

TallSkinnyEvents corr_shape_events() {
  // A correlation-stage shaped problem: V=16, K=12, N=2048.
  const Matrix a = random_matrix(16, 12, 61);
  const Matrix b = random_matrix(2048, 12, 62);
  TallSkinnyEvents out;
  {
    Matrix c(16, 2048);
    memsim::Instrument ins;
    baseline::gemm_nt_instrumented(a.view(), b.view(), c.view(), ins);
    out.baseline = ins.events();
  }
  {
    Matrix c(16, 2048);
    memsim::Instrument ins;
    opt::gemm_nt_instrumented(a.view(), b.view(), c.view(), ins);
    out.optimized = ins.events();
  }
  return out;
}

TEST(Events, OptimizedGemmIssuesFewerMemoryReferences) {
  const auto e = corr_shape_events();
  EXPECT_LT(e.optimized.mem_refs, e.baseline.mem_refs);
}

TEST(Events, OptimizedGemmIntensityNearFullWidth) {
  const auto e = corr_shape_events();
  EXPECT_GT(e.optimized.vector_intensity(), 13.0);
  EXPECT_LE(e.optimized.vector_intensity(), 16.0);
}

TEST(Events, BaselineGemmIntensityWellBelowWidth) {
  const auto e = corr_shape_events();
  EXPECT_LT(e.baseline.vector_intensity(), 10.0);
}

TEST(Events, FlopCountsAgreeAcrossImplementations) {
  const auto e = corr_shape_events();
  // Both implementations perform the same useful work: 2*V*N*K flops.
  EXPECT_EQ(e.baseline.flops, 2ull * 16 * 2048 * 12);
  EXPECT_EQ(e.optimized.flops, e.baseline.flops);
}

TEST(Events, OptimizedSyrkHasFarFewerL2Misses) {
  // A kernel-matrix shaped problem: M=64, N=4096 (1MB operand streams
  // through the Phi's 512KB L2).
  const Matrix a = random_matrix(64, 4096, 63);
  memsim::KernelEvents base;
  memsim::KernelEvents opt_e;
  {
    Matrix c(64, 64);
    memsim::Instrument ins;
    baseline::syrk_instrumented(a.view(), c.view(), ins);
    base = ins.events();
  }
  {
    Matrix c(64, 64);
    memsim::Instrument ins;
    opt::syrk_instrumented(a.view(), c.view(), ins);
    opt_e = ins.events();
  }
  EXPECT_GT(base.l2_misses, 3 * opt_e.l2_misses);
  EXPECT_GT(base.mem_refs, opt_e.mem_refs);
  EXPECT_GT(opt_e.vector_intensity(), base.vector_intensity());
}

TEST(Events, XeonModelUsesEightLanes) {
  const Matrix a = random_matrix(8, 12, 71);
  const Matrix b = random_matrix(512, 12, 72);
  Matrix c(8, 512);
  memsim::Instrument ins(memsim::Machine::kXeonE5_2670);
  opt::gemm_nt_instrumented(a.view(), b.view(), c.view(), ins, 8);
  EXPECT_GT(ins.events().vector_intensity(), 6.0);
  EXPECT_LE(ins.events().vector_intensity(), 8.0);
}

// ---------------------------------------------------------------------------
// Matrix container
// ---------------------------------------------------------------------------

TEST(Matrix, LeadingDimensionPadding) {
  Matrix m(4, 10, 16);
  EXPECT_EQ(m.ld(), 16u);
  m(3, 9) = 5.0f;
  EXPECT_EQ(m.row(3)[9], 5.0f);
  EXPECT_THROW(Matrix(2, 8, 4), Error);  // ld < cols
}

TEST(Matrix, FillSetsEverything) {
  Matrix m(3, 3);
  m.fill(2.5f);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), 2.5f);
  }
}

TEST(Matrix, ViewsShareStorage) {
  Matrix m(2, 2);
  m.fill(0.0f);
  MatrixView v = m.view();
  v(1, 1) = 9.0f;
  EXPECT_EQ(m(1, 1), 9.0f);
  ConstMatrixView cv = m.view();
  EXPECT_EQ(cv(1, 1), 9.0f);
}

}  // namespace
}  // namespace fcma::linalg
