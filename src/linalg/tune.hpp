// The one kernel geometry the optimized gemm/syrk run (paper §4.2, §4.4):
// 512-column packed B^T panels with a 4-vector register block for the
// correlation gemm, 96-deep panels with 9-row micro-tiles for the
// kernel-matrix syrk.  These records name those constants; the plan
// functions return them for every shape.
#pragma once

#include <cstddef>

#include "linalg/opt.hpp"

namespace fcma::linalg::tune {

/// gemm_nt geometry: packed B^T panel width and SIMD column vectors
/// advanced per broadcast of an A element.
struct GemmGeometry {
  std::size_t panel_cols = opt::kGemmPanelCols;
  int unroll = opt::kGemmUnroll;

  bool operator==(const GemmGeometry&) const = default;
};

/// syrk geometry: long-dimension columns packed per panel and micro-tile
/// height.
struct SyrkGeometry {
  std::size_t panel_k = opt::kSyrkPanelK;
  std::size_t micro_rows = opt::kSyrkMicroRows;

  bool operator==(const SyrkGeometry&) const = default;
};

[[nodiscard]] inline GemmGeometry gemm_plan(std::size_t /*m*/,
                                            std::size_t /*n*/,
                                            std::size_t /*k*/) {
  return {};
}

// Kept for bench_fcma/bench_fcma.cpp, which passes this plan to
// core::compute_voxel_kernel.
[[nodiscard]] inline SyrkGeometry syrk_plan(std::size_t /*m*/,
                                            std::size_t /*n*/) {
  return {};
}

}  // namespace fcma::linalg::tune
