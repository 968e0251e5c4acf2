#include <algorithm>
#include <cstring>

#include "common/aligned.hpp"
#include "common/trace.hpp"
#include "linalg/opt.hpp"
#include "linalg/simd.hpp"

namespace fcma::linalg::opt {

namespace {

// Mirrors the computed lower triangle into the upper one.
void mirror_upper(MatrixView c) {
  for (std::size_t i = 0; i < c.rows; ++i) {
    for (std::size_t j = i + 1; j < c.cols; ++j) c(i, j) = c(j, i);
  }
}

}  // namespace

void syrk(ConstMatrixView a, MatrixView c) {
  FCMA_CHECK(c.rows == a.rows && c.cols == a.rows, "syrk: bad C shape");
  for (std::size_t i = 0; i < c.rows; ++i) {
    std::memset(c.row(i), 0, c.cols * sizeof(float));
  }
  syrk_accumulate(a, c, /*mirror=*/true);
}

void syrk_accumulate(ConstMatrixView a, MatrixView c, bool mirror) {
  FCMA_CHECK(c.rows == a.rows && c.cols == a.rows, "syrk: bad C shape");
  const trace::Span span("syrk");
  const std::size_t m = a.rows;
  const std::size_t n = a.cols;
  const simd::KernelTable& kernels = simd::kernels();
  AlignedBuffer<float> at_local(kSyrkPanelK * m);
  for (std::size_t k0 = 0; k0 < n; k0 += kSyrkPanelK) {
    kernels.syrk_panel(a.data + k0, a.ld, at_local.data(), m,
                       std::min(n - k0, kSyrkPanelK), c.data, c.ld);
  }
  if (mirror) mirror_upper(c);
}

void syrk_instrumented(ConstMatrixView a, MatrixView c,
                       memsim::Instrument& ins, unsigned model_lanes) {
  FCMA_CHECK(c.rows == a.rows && c.cols == a.rows, "syrk: bad C shape");
  const std::size_t m = a.rows;
  const std::size_t n = a.cols;
  for (std::size_t i = 0; i < m; ++i) {
    std::memset(c.row(i), 0, m * sizeof(float));
  }
  // The modelled kernel is the paper's KNC one (Fig 7): it copies each
  // panel into A_local and transposes that into A^T_local.  The simulator
  // needs only the two buffers' addresses; the scalar recomputation reads
  // A in place, which holds the same values.
  AlignedBuffer<float> a_copy(m * kSyrkPanelK);
  AlignedBuffer<float> at_copy(kSyrkPanelK * m);
  for (std::size_t k0 = 0; k0 < n; k0 += kSyrkPanelK) {
    const std::size_t k1 = std::min(n, k0 + kSyrkPanelK);
    const std::size_t kb = k1 - k0;
    // Packing: vector copy of each row slice, then a blocked register
    // transpose (16x16 vector loads/stores, as the generated KNC kernels
    // do) into A^T_local.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t k = 0; k < kb; k += model_lanes) {
        const auto lanes = static_cast<unsigned>(
            std::min<std::size_t>(model_lanes, kb - k));
        ins.load(a.row(i) + k0 + k, lanes);
        ins.store(a_copy.data() + i * kb + k, lanes);
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t k = 0; k < kb; k += model_lanes) {
        ins.load(&a_copy[i * kb + k],
                 static_cast<unsigned>(
                     std::min<std::size_t>(model_lanes, kb - k)));
      }
    }
    for (std::size_t k = 0; k < kb; ++k) {
      for (std::size_t i = 0; i < m; i += model_lanes) {
        ins.store(&at_copy[k * m + i],
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
          ins.load(&at_copy[k * m + j0], cols);  // one panel vector load
          for (std::size_t r = 0; r < rows; ++r) {
            ins.load_broadcast(&a_copy[(i0 + r) * kb + k], model_lanes);
            ins.arith(cols, 1, 2ull * cols);
          }
        }
        // Scalar recomputation + accumulate into C.
        for (std::size_t r = 0; r < rows; ++r) {
          const float* arow = a.row(i0 + r) + k0;
          float* crow = c.row(i0 + r) + j0;
          for (unsigned wv = 0; wv < cols; ++wv) {
            const float* brow = a.row(j0 + wv) + k0;
            float acc = 0.0f;
            for (std::size_t k = 0; k < kb; ++k) acc += arow[k] * brow[k];
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
