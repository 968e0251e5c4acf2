#include <algorithm>

#include "common/trace.hpp"
#include "linalg/baseline.hpp"

namespace fcma::linalg::baseline {

namespace {

// Generic square blocking: tiles chosen for a host-class 256KB L2, the way a
// general-purpose library tunes once for "typical" matrices.
constexpr std::size_t kRowBlock = 64;
constexpr std::size_t kColBlock = 256;

// One (i-block, j-block) tile of the dot-product gemm.
void gemm_tile(ConstMatrixView a, ConstMatrixView b, MatrixView c,
               std::size_t i0, std::size_t i1, std::size_t j0,
               std::size_t j1) {
  const std::size_t k = a.cols;
  for (std::size_t i = i0; i < i1; ++i) {
    const float* FCMA_RESTRICT ai = a.row(i);
    float* FCMA_RESTRICT ci = c.row(i);
    for (std::size_t j = j0; j < j1; ++j) {
      const float* FCMA_RESTRICT bj = b.row(j);
      float acc = 0.0f;
      // The compiler vectorizes this reduction over K — the short dimension.
      // For K = 12 that is at most 12 active lanes plus a horizontal sum,
      // which is precisely the inefficiency the paper measured in MKL.
      for (std::size_t kk = 0; kk < k; ++kk) acc += ai[kk] * bj[kk];
      ci[j] = acc;
    }
  }
}

}  // namespace

void gemm_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  FCMA_CHECK(a.cols == b.cols, "gemm_nt: inner dimensions differ");
  FCMA_CHECK(c.rows == a.rows && c.cols == b.rows, "gemm_nt: bad C shape");
  const trace::Span span("baseline_gemm_nt");
  for (std::size_t i0 = 0; i0 < a.rows; i0 += kRowBlock) {
    const std::size_t i1 = std::min(a.rows, i0 + kRowBlock);
    for (std::size_t j0 = 0; j0 < b.rows; j0 += kColBlock) {
      const std::size_t j1 = std::min(b.rows, j0 + kColBlock);
      gemm_tile(a, b, c, i0, i1, j0, j1);
    }
  }
}

void gemm_nt_instrumented(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                          memsim::Instrument& ins, unsigned model_lanes) {
  FCMA_CHECK(a.cols == b.cols, "gemm_nt: inner dimensions differ");
  FCMA_CHECK(c.rows == a.rows && c.cols == b.rows, "gemm_nt: bad C shape");
  const std::size_t k = a.cols;
  for (std::size_t i0 = 0; i0 < a.rows; i0 += kRowBlock) {
    const std::size_t i1 = std::min(a.rows, i0 + kRowBlock);
    for (std::size_t j0 = 0; j0 < b.rows; j0 += kColBlock) {
      const std::size_t j1 = std::min(b.rows, j0 + kColBlock);
      for (std::size_t i = i0; i < i1; ++i) {
        const float* ai = a.row(i);
        float* ci = c.row(i);
        for (std::size_t j = j0; j < j1; ++j) {
          const float* bj = b.row(j);
          float acc = 0.0f;
          // Model: the K-loop is vectorized in model_lanes chunks; each
          // chunk is two loads + one FMA with only the valid lanes active.
          for (std::size_t kk = 0; kk < k; kk += model_lanes) {
            const auto lanes = static_cast<unsigned>(
                std::min<std::size_t>(model_lanes, k - kk));
            ins.load(ai + kk, lanes);
            ins.load(bj + kk, lanes);
            ins.arith(lanes, 1, 2ull * lanes);  // fused multiply-add
            for (std::size_t t = kk; t < kk + lanes; ++t)
              acc += ai[t] * bj[t];
          }
          // Horizontal reduction of the accumulator vector: log2(width)
          // shuffle+add pairs with geometrically shrinking useful lanes.
          for (unsigned w = model_lanes / 2; w >= 1; w /= 2) {
            ins.arith(w, 2);  // shuffle + add, no useful FLOPs counted
            if (w == 1) break;
          }
          ci[j] = acc;
          ins.store(ci + j, 1);
        }
      }
    }
  }
}

}  // namespace fcma::linalg::baseline
