// Optimized tall-skinny matrix kernels (paper §4.2 and §4.4).
//
// These implement the paper's three optimization ideas for the two matrix
// shapes FCMA lives on:
//
//   gemm_nt  — correlation computation: C[V,N] = A[V,K] * B[N,K]^T with
//              V ~ 100s, K ~ 12, N ~ 35k.  B is repacked into transposed
//              panels sized for L1/L2 so that the inner loop runs full-width
//              FMAs down the *long* dimension with one broadcast of A per K
//              element, amortized over several SIMD columns (idea #1 block
//              the tall-skinny operand, idea #3 transpose for vector loads).
//
//   syrk     — SVM kernel precomputation: C[M,M] = A[M,N] * A^T with
//              M ~ 200-550, N ~ 35k.  Following the paper's Fig 7, the
//              kernel walks the long dimension in panels of 96 columns,
//              copies each panel into a local buffer, transposes it, and
//              runs a fixed (rows x lanes x 96) register-blocked
//              micro-kernel that accumulates into C in panel order.
//
// Both kernels are serial.  The pipeline parallelizes around them — column
// panels of the correlation stage, one syrk per voxel — so a result never
// depends on how many threads ran.
//
// Each kernel has an instrumented twin that recomputes the result in scalar
// code while narrating the production instruction stream to a
// memsim::Instrument (see memsim/instrument.hpp).
#pragma once

#include "linalg/matrix.hpp"
#include "memsim/instrument.hpp"

namespace fcma::linalg::opt {

/// Width (output columns) of one packed B^T panel for gemm_nt.  K=12 rows
/// of 512 floats = 24KB: comfortably L1/L2 resident alongside the C rows.
inline constexpr std::size_t kGemmPanelCols = 512;

/// SIMD column vectors the gemm row-panel kernel advances per broadcast of
/// an A element (its register block).
inline constexpr int kGemmUnroll = 4;

/// Columns of the long dimension consumed per syrk panel (paper: 96 rows of
/// the tall operand per block, an integral multiple of the VPU width).
inline constexpr std::size_t kSyrkPanelK = 96;

/// Micro-tile height (rows of C updated at once) in the syrk micro-kernel
/// (paper: the auto-generated 16x9x96 routine; 16 lanes x 9 rows).
inline constexpr std::size_t kSyrkMicroRows = 9;

/// Fixed numeric substep of the syrk accumulation: the micro-kernel flushes
/// its register accumulators into C every kSyrkNumericK elements of the
/// long dimension, whatever the dispatched ISA, so every accumulation chain
/// depends only on n.
inline constexpr std::size_t kSyrkNumericK = 48;
static_assert(kSyrkPanelK % kSyrkNumericK == 0,
              "syrk panels must hold whole numeric substeps");

/// C[MxN] = A[MxK] * B[NxK]^T with panel-blocked, transposed-operand inner
/// loops.  `c.ld` may exceed N (interleaved epoch layout, paper Fig 4).
void gemm_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c);

/// C[MxM] = A[MxN] * A^T (both triangles written).
void syrk(ConstMatrixView a, MatrixView c);

/// Instrumented twins (see baseline.hpp for the model_lanes convention).
void gemm_nt_instrumented(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                          memsim::Instrument& ins, unsigned model_lanes = 16);
void syrk_instrumented(ConstMatrixView a, MatrixView c,
                       memsim::Instrument& ins, unsigned model_lanes = 16);

/// Packs columns [j0, j1) of B (rows of the NT operand) into a transposed
/// panel: bt[k * (j1-j0) + (j-j0)] = B(j, k).  Exposed so the fused
/// correlate-and-normalize pipeline stage can reuse the gemm internals.
void pack_bt_panel(ConstMatrixView b, std::size_t j0, std::size_t j1,
                   float* bt);

/// Computes one output row against a packed panel:
/// c[j] = sum_k a[k] * bt[k*width + j] for j in [0, width).
void gemm_row_panel(const float* a, std::size_t k, const float* bt,
                    std::size_t width, float* c);

/// Instrumented twins of the panel primitives, for fused pipeline stages.
void pack_bt_panel_instrumented(ConstMatrixView b, std::size_t j0,
                                std::size_t j1, float* bt,
                                memsim::Instrument& ins,
                                unsigned model_lanes = 16);
void gemm_row_panel_instrumented(const float* a, std::size_t k,
                                 const float* bt, std::size_t width, float* c,
                                 memsim::Instrument& ins,
                                 unsigned model_lanes = 16);

}  // namespace fcma::linalg::opt
