#include <algorithm>

#include "common/trace.hpp"
#include "linalg/baseline.hpp"

namespace fcma::linalg::baseline {

namespace {

// Generic row tiling: each (i, j) tile performs full-length dots over N.
// For FCMA's N ~ 35k the row pair alone is ~280KB, so the tile working set
// never fits the Phi's 128KB per-thread L2 share — the L2 thrashing the
// paper measured.
constexpr std::size_t kTile = 32;

void syrk_tile(ConstMatrixView a, MatrixView c, std::size_t i0,
               std::size_t i1) {
  const std::size_t n = a.cols;
  for (std::size_t j0 = 0; j0 <= i1 - 1; j0 += kTile) {
    const std::size_t j1 = std::min(i1, j0 + kTile);
    for (std::size_t i = i0; i < i1; ++i) {
      const float* FCMA_RESTRICT ai = a.row(i);
      for (std::size_t j = j0; j < std::min(j1, i + 1); ++j) {
        const float* FCMA_RESTRICT aj = a.row(j);
        float acc = 0.0f;
        for (std::size_t k = 0; k < n; ++k) acc += ai[k] * aj[k];
        c(i, j) = acc;
        c(j, i) = acc;
      }
    }
  }
}

}  // namespace

void syrk(ConstMatrixView a, MatrixView c) {
  FCMA_CHECK(c.rows == a.rows && c.cols == a.rows, "syrk: bad C shape");
  const trace::Span span("baseline_syrk");
  for (std::size_t i0 = 0; i0 < a.rows; i0 += kTile) {
    const std::size_t i1 = std::min(a.rows, i0 + kTile);
    syrk_tile(a, c, i0, i1);
  }
}

void syrk_instrumented(ConstMatrixView a, MatrixView c,
                       memsim::Instrument& ins, unsigned model_lanes) {
  FCMA_CHECK(c.rows == a.rows && c.cols == a.rows, "syrk: bad C shape");
  const std::size_t n = a.cols;
  for (std::size_t i0 = 0; i0 < a.rows; i0 += kTile) {
    const std::size_t i1 = std::min(a.rows, i0 + kTile);
    for (std::size_t j0 = 0; j0 <= i1 - 1; j0 += kTile) {
      const std::size_t j1 = std::min(i1, j0 + kTile);
      for (std::size_t i = i0; i < i1; ++i) {
        const float* ai = a.row(i);
        for (std::size_t j = j0; j < std::min(j1, i + 1); ++j) {
          const float* aj = a.row(j);
          float acc = 0.0f;
          // Vectorized dot over the long dimension: good lane occupancy but
          // streams 2N floats per output element through the cache.
          for (std::size_t k = 0; k < n; k += model_lanes) {
            const auto lanes = static_cast<unsigned>(
                std::min<std::size_t>(model_lanes, n - k));
            ins.load(ai + k, lanes);
            ins.load(aj + k, lanes);
            ins.arith(lanes, 1, 2ull * lanes);
            for (std::size_t t = k; t < k + lanes; ++t) acc += ai[t] * aj[t];
          }
          for (unsigned w = model_lanes / 2; w >= 1; w /= 2) {
            ins.arith(w, 2);
            if (w == 1) break;
          }
          c(i, j) = acc;
          c(j, i) = acc;
          ins.store(&c(i, j), 1);
          ins.store(&c(j, i), 1);
        }
      }
    }
  }
}

}  // namespace fcma::linalg::baseline
