// "Generic library" baseline kernels (the paper's MKL stand-in).
//
// The paper's baseline calls Intel MKL's cblas_sgemm / cblas_ssyrk, which
// are excellent for large, roughly-square operands but — as §3.3.1 shows —
// underperform on FCMA's tall-skinny shapes: they vectorize the short
// reduction dimension (K ~ 12 for the correlation gemm), issue horizontal
// reductions per output element, and their square blocking thrashes small
// per-thread L2 quotas.  These kernels reproduce exactly those generic
// design choices:
//
//   * dot-product formulation: each output element is a vectorized dot over
//     K, followed by a horizontal reduction;
//   * square cache blocking sized for a generous (host-class) L2;
//   * no operand repacking / transposition.
//
// They are *correct* and respectably fast — a fair baseline — just not
// shaped for this workload, which is the paper's point.
#pragma once

#include "linalg/matrix.hpp"
#include "memsim/instrument.hpp"

namespace fcma::linalg::baseline {

/// C[MxN] = A[MxK] * B[NxK]^T, generic dot-product blocking.
void gemm_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c);

/// C[MxM] = A[MxN] * A^T (both triangles written), generic blocking.
void syrk(ConstMatrixView a, MatrixView c);

/// Instrumented gemm_nt: computes the same result with scalar code while
/// narrating the generic kernel's instruction stream to `ins`, modeling a
/// `model_lanes`-wide VPU (16 = Xeon Phi, 8 = AVX Xeon).
void gemm_nt_instrumented(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                          memsim::Instrument& ins, unsigned model_lanes = 16);

/// Instrumented syrk; see gemm_nt_instrumented.
void syrk_instrumented(ConstMatrixView a, MatrixView c,
                       memsim::Instrument& ins, unsigned model_lanes = 16);

}  // namespace fcma::linalg::baseline
