#include <algorithm>

#include "common/aligned.hpp"
#include "common/trace.hpp"
#include "common/workspace.hpp"
#include "linalg/opt.hpp"
#include "linalg/simd.hpp"

namespace fcma::linalg::opt {

void pack_bt_panel(ConstMatrixView b, std::size_t j0, std::size_t j1,
                   float* FCMA_RESTRICT bt) {
  const std::size_t width = j1 - j0;
  for (std::size_t j = j0; j < j1; ++j) {
    const float* FCMA_RESTRICT bj = b.row(j);
    for (std::size_t k = 0; k < b.cols; ++k) {
      bt[k * width + (j - j0)] = bj[k];
    }
  }
}

void gemm_row_panel(const float* FCMA_RESTRICT a, std::size_t k,
                    const float* FCMA_RESTRICT bt, std::size_t width,
                    float* FCMA_RESTRICT c) {
  simd::kernels().gemm_row_panel(a, k, bt, width, c);
}

namespace {

void gemm_panels(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                 std::size_t panel0, std::size_t panel1, float* bt) {
  const auto row_fn = simd::kernels().gemm_row_panel;
  for (std::size_t j0 = panel0; j0 < panel1; j0 += kGemmPanelCols) {
    const std::size_t j1 = std::min(panel1, j0 + kGemmPanelCols);
    const std::size_t width = j1 - j0;
    pack_bt_panel(b, j0, j1, bt);
    for (std::size_t i = 0; i < a.rows; ++i) {
      row_fn(a.row(i), a.cols, bt, width, c.row(i) + j0);
    }
  }
}

}  // namespace

void gemm_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  FCMA_CHECK(a.cols == b.cols, "gemm_nt: inner dimensions differ");
  FCMA_CHECK(c.rows == a.rows && c.cols == b.rows, "gemm_nt: bad C shape");
  const trace::Span span("gemm_nt");
  auto bt = core::Workspace::local().acquire(a.cols * kGemmPanelCols);
  gemm_panels(a, b, c, 0, b.rows, bt.data());
}

void pack_bt_panel_instrumented(ConstMatrixView b, std::size_t j0,
                                std::size_t j1, float* bt,
                                memsim::Instrument& ins,
                                unsigned model_lanes) {
  // Packing is a small transpose; production KNC code runs it as blocked
  // vector loads/stores (16x16 register transposes), so the model charges
  // one vector load per source row slice and one vector store per packed
  // row slice.
  const std::size_t width = j1 - j0;
  const std::size_t k_total = b.cols;
  for (std::size_t j = j0; j < j1; ++j) {
    const float* bj = b.row(j);
    for (std::size_t k = 0; k < k_total; ++k) {
      bt[k * width + (j - j0)] = bj[k];
    }
    ins.load(bj, static_cast<std::uint32_t>(
                     std::min<std::size_t>(model_lanes, k_total)));
  }
  for (std::size_t k = 0; k < k_total; ++k) {
    for (std::size_t j = 0; j < width; j += model_lanes) {
      ins.store(&bt[k * width + j],
                static_cast<std::uint32_t>(
                    std::min<std::size_t>(model_lanes, width - j)));
    }
  }
}

void gemm_row_panel_instrumented(const float* a, std::size_t k,
                                 const float* bt, std::size_t width, float* c,
                                 memsim::Instrument& ins,
                                 unsigned model_lanes) {
  const std::size_t micro_step = model_lanes * kGemmUnroll;
  for (std::size_t jj = 0; jj < width; jj += micro_step) {
    const std::size_t block = std::min(micro_step, width - jj);
    const auto vecs =
        static_cast<unsigned>((block + model_lanes - 1) / model_lanes);
    for (std::size_t kk = 0; kk < k; ++kk) {
      ins.load_broadcast(a + kk, model_lanes);
      std::size_t remaining = block;
      for (unsigned v = 0; v < vecs; ++v) {
        const auto lanes = static_cast<unsigned>(
            std::min<std::size_t>(model_lanes, remaining));
        ins.load(&bt[kk * width + jj + v * model_lanes], lanes);
        ins.arith(lanes, 1, 2ull * lanes);
        remaining -= lanes;
      }
    }
    for (std::size_t j = jj; j < jj + block; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a[kk] * bt[kk * width + j];
      c[j] = acc;
    }
    std::size_t remaining = block;
    for (unsigned v = 0; v < vecs; ++v) {
      const auto lanes = static_cast<unsigned>(
          std::min<std::size_t>(model_lanes, remaining));
      ins.store(c + jj + v * model_lanes, lanes);
      remaining -= lanes;
    }
  }
}

void gemm_nt_instrumented(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                          memsim::Instrument& ins, unsigned model_lanes) {
  FCMA_CHECK(a.cols == b.cols, "gemm_nt: inner dimensions differ");
  FCMA_CHECK(c.rows == a.rows && c.cols == b.rows, "gemm_nt: bad C shape");
  const std::size_t k = a.cols;
  AlignedBuffer<float> bt(k * kGemmPanelCols);
  const std::size_t micro_step = model_lanes * kGemmUnroll;
  for (std::size_t j0 = 0; j0 < b.rows; j0 += kGemmPanelCols) {
    const std::size_t j1 = std::min(b.rows, j0 + kGemmPanelCols);
    const std::size_t width = j1 - j0;
    pack_bt_panel_instrumented(b, j0, j1, bt.data(), ins, model_lanes);
    for (std::size_t i = 0; i < a.rows; ++i) {
      const float* ai = a.row(i);
      float* ci = c.row(i) + j0;
      for (std::size_t jj = 0; jj < width; jj += micro_step) {
        const std::size_t block = std::min(micro_step, width - jj);
        const auto vecs = static_cast<unsigned>(
            (block + model_lanes - 1) / model_lanes);
        for (std::size_t kk = 0; kk < k; ++kk) {
          // One broadcast of A per K element, then `vecs` panel loads and
          // `vecs` FMAs at (mostly) full width.
          ins.load_broadcast(ai + kk, model_lanes);
          std::size_t remaining = block;
          for (unsigned v = 0; v < vecs; ++v) {
            const auto lanes = static_cast<unsigned>(
                std::min<std::size_t>(model_lanes, remaining));
            const float* src = &bt[kk * width + jj + v * model_lanes];
            ins.load(src, lanes);
            ins.arith(lanes, 1, 2ull * lanes);
            remaining -= lanes;
          }
        }
        // Scalar recomputation of the same outputs (the checked result).
        for (std::size_t j = jj; j < jj + block; ++j) {
          float acc = 0.0f;
          for (std::size_t kk = 0; kk < k; ++kk)
            acc += ai[kk] * bt[kk * width + j];
          ci[j] = acc;
        }
        std::size_t remaining = block;
        for (unsigned v = 0; v < vecs; ++v) {
          const auto lanes = static_cast<unsigned>(
              std::min<std::size_t>(model_lanes, remaining));
          ins.store(ci + jj + v * model_lanes, lanes);
          remaining -= lanes;
        }
      }
    }
  }
}

}  // namespace fcma::linalg::opt
