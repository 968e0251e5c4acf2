#include <algorithm>
#include <cstring>

#include "common/aligned.hpp"
#include "common/trace.hpp"
#include "common/workspace.hpp"
#include "linalg/opt.hpp"
#include "linalg/simd.hpp"

namespace fcma::linalg::opt {

namespace {

// Packs A's columns [k0, k1) for all M rows into a_local[M][kb], then its
// transpose at_local[kb][M] (paper Fig 7: blocks of A_local are transposed
// into A^T_local before the micro-kernel runs).
void pack_panel(ConstMatrixView a, std::size_t k0, std::size_t k1,
                float* FCMA_RESTRICT a_local, float* FCMA_RESTRICT at_local) {
  const std::size_t m = a.rows;
  const std::size_t kb = k1 - k0;
  for (std::size_t i = 0; i < m; ++i) {
    std::memcpy(a_local + i * kb, a.row(i) + k0, kb * sizeof(float));
  }
  for (std::size_t k = 0; k < kb; ++k) {
    for (std::size_t i = 0; i < m; ++i) {
      at_local[k * m + i] = a_local[i * kb + k];
    }
  }
}

// Accumulates the contribution of panel [k0, k1) into c (ldc-strided, full
// lower triangle in micro-tile granularity).  The tile sweep and its
// register-blocked micro-kernel live in the runtime-dispatched simd layer.
void panel_contribution(ConstMatrixView a, std::size_t k0, std::size_t k1,
                        float* a_local, float* at_local, float* c,
                        std::size_t ldc) {
  pack_panel(a, k0, k1, a_local, at_local);
  simd::kernels().syrk_panel(a_local, at_local, a.rows, k1 - k0, c, ldc);
}

// Mirrors the computed lower triangle into the upper one.
void mirror_upper(MatrixView c) {
  for (std::size_t i = 0; i < c.rows; ++i) {
    for (std::size_t j = i + 1; j < c.cols; ++j) c(i, j) = c(j, i);
  }
}

}  // namespace

void syrk(ConstMatrixView a, MatrixView c) {
  FCMA_CHECK(c.rows == a.rows && c.cols == a.rows, "syrk: bad C shape");
  const trace::Span span("syrk");
  const std::size_t m = a.rows;
  const std::size_t n = a.cols;
  for (std::size_t i = 0; i < m; ++i) {
    std::memset(c.row(i), 0, m * sizeof(float));
  }
  auto& workspace = core::Workspace::local();
  auto a_local = workspace.acquire(m * kSyrkPanelK);
  auto at_local = workspace.acquire(kSyrkPanelK * m);
  for (std::size_t k0 = 0; k0 < n; k0 += kSyrkPanelK) {
    const std::size_t k1 = std::min(n, k0 + kSyrkPanelK);
    panel_contribution(a, k0, k1, a_local.data(), at_local.data(), c.data,
                       c.ld);
  }
  mirror_upper(c);
}

void syrk_instrumented(ConstMatrixView a, MatrixView c,
                       memsim::Instrument& ins, unsigned model_lanes) {
  FCMA_CHECK(c.rows == a.rows && c.cols == a.rows, "syrk: bad C shape");
  const std::size_t m = a.rows;
  const std::size_t n = a.cols;
  for (std::size_t i = 0; i < m; ++i) {
    std::memset(c.row(i), 0, m * sizeof(float));
  }
  AlignedBuffer<float> a_local(m * kSyrkPanelK);
  AlignedBuffer<float> at_local(kSyrkPanelK * m);
  for (std::size_t k0 = 0; k0 < n; k0 += kSyrkPanelK) {
    const std::size_t k1 = std::min(n, k0 + kSyrkPanelK);
    const std::size_t kb = k1 - k0;
    // Packing: vector copy of each row slice, then a blocked register
    // transpose (16x16 vector loads/stores, as the generated KNC kernels
    // do) into A^T_local.
    for (std::size_t i = 0; i < m; ++i) {
      std::memcpy(a_local.data() + i * kb, a.row(i) + k0, kb * sizeof(float));
      for (std::size_t k = 0; k < kb; k += model_lanes) {
        const auto lanes = static_cast<unsigned>(
            std::min<std::size_t>(model_lanes, kb - k));
        ins.load(a.row(i) + k0 + k, lanes);
        ins.store(a_local.data() + i * kb + k, lanes);
      }
    }
    for (std::size_t k = 0; k < kb; ++k) {
      for (std::size_t i = 0; i < m; ++i) {
        at_local[k * m + i] = a_local[i * kb + k];
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t k = 0; k < kb; k += model_lanes) {
        ins.load(&a_local[i * kb + k],
                 static_cast<unsigned>(
                     std::min<std::size_t>(model_lanes, kb - k)));
      }
    }
    for (std::size_t k = 0; k < kb; ++k) {
      for (std::size_t i = 0; i < m; i += model_lanes) {
        ins.store(&at_local[k * m + i],
                  static_cast<unsigned>(
                      std::min<std::size_t>(model_lanes, m - i)));
      }
    }
    // Micro-kernel sweep over the lower-triangle tiles.
    for (std::size_t i0 = 0; i0 < m; i0 += kSyrkMicroRows) {
      const std::size_t rows = std::min(kSyrkMicroRows, m - i0);
      for (std::size_t j0 = 0; j0 <= i0 + rows - 1; j0 += model_lanes) {
        const auto cols = static_cast<unsigned>(
            std::min<std::size_t>(model_lanes, m - j0));
        for (std::size_t k = 0; k < kb; ++k) {
          ins.load(&at_local[k * m + j0], cols);  // one panel vector load
          for (std::size_t r = 0; r < rows; ++r) {
            ins.load_broadcast(&a_local[(i0 + r) * kb + k], model_lanes);
            ins.arith(cols, 1, 2ull * cols);
          }
        }
        // Scalar recomputation + accumulate into C.
        for (std::size_t r = 0; r < rows; ++r) {
          float* crow = c.row(i0 + r) + j0;
          for (unsigned wv = 0; wv < cols; ++wv) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < kb; ++k) {
              acc += a_local[(i0 + r) * kb + k] * at_local[k * m + j0 + wv];
            }
            crow[wv] += acc;
          }
          ins.load(crow, cols);
          ins.store(crow, cols);
          ins.arith(cols, 1, 0);  // C-tile accumulate add
        }
      }
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) c(i, j) = c(j, i);
  }
}

}  // namespace fcma::linalg::opt
