// Dense single-precision SMO solvers (paper §4.4).
//
// Two of the paper's three SVM implementations share this core:
//
//   "Optimized LibSVM"  — LibSVM's algorithm with the data-layout fixes of
//                         optimization idea #3: dense float kernel rows
//                         (no sparse node walk), single-precision math in
//                         the hot loops, vectorizable gradient updates.
//                         Heuristic: kSecondOrder.
//
//   "PhiSVM"            — the Catanzaro-derived fast SVM ported from CUDA:
//                         same dense float layout, but the working-set
//                         selection *adapts* between the first-order
//                         (Keerthi et al. maximal-violating-pair) and
//                         second-order (Fan et al.) heuristics based on the
//                         observed convergence rate.  Heuristic: kAdaptive.
//
// Both operate directly on the precomputed kernel matrix — no row cache is
// needed because FCMA's kernels are only a few hundred rows.
//
// Sweep layout.  Each SMO iteration makes up to three O(n) passes — the
// working-set selection, the second-order gain scan and (PhiSVM) the fused
// gradient update — and all three run as linalg::simd kernels
// (smo_select, smo_gain, smo_update) of the active table.  The solver packs
// the training kernel with its rows padded to a multiple of simd::kSmoPad,
// keeps the kernel diagonal as its own contiguous array (the gain scan used
// to read it with a stride of n), and pads y, alpha and G to the same
// length.  Padding lanes have y = 0, so they are in neither working set and
// no pass needs a ragged tail at any vector width.  Every element sees the
// same float operations as the scalar loops the kernels replaced, so models
// are bit-identical on every forced ISA.
//
// Box bound.  Alphas are clamped to float(C), and the working-set tests and
// the rho computation compare against that same float(C).  When C is not a
// float and rounds down (C = 0.7), comparing against the double C would
// leave a clamped alpha selectable forever; when float(C) == C or C rounds
// up, the two comparisons agree and results do not change.
#pragma once

#include <span>

#include "svm/types.hpp"

namespace fcma::svm {

/// Working-set selection strategy.
enum class Heuristic {
  kFirstOrder,   ///< maximal violating pair (Keerthi et al. 2001)
  kSecondOrder,  ///< second-order gain (Fan, Chen, Lin 2005) — LibSVM's
  kAdaptive,     ///< PhiSVM: probe both, follow the faster convergence rate
};

/// Trains C-SVC on `train_idx` of a precomputed kernel with dense float
/// arithmetic.  See libsvm_train for the shared contract.
/// When `materialize_q` is set, the solver keeps LibSVM's data-structure
/// discipline: the signed Q rows (y_i * y_t * K_it) of the working pair are
/// materialized into buffers each iteration before the gradient update —
/// the residual overhead that separates "optimized LibSVM" from PhiSVM in
/// the paper's Table 8.  PhiSVM folds the labels into the update constants
/// and reads the kernel matrix directly.
[[nodiscard]] Model dense_train(linalg::ConstMatrixView kernel,
                                std::span<const std::int8_t> labels,
                                std::span<const std::size_t> train_idx,
                                const TrainOptions& options,
                                Heuristic heuristic,
                                memsim::Instrument* ins = nullptr,
                                unsigned model_lanes = 16,
                                bool materialize_q = false);

/// Convenience wrappers naming the paper's implementations.
[[nodiscard]] inline Model optimized_libsvm_train(
    linalg::ConstMatrixView kernel, std::span<const std::int8_t> labels,
    std::span<const std::size_t> train_idx, const TrainOptions& options,
    memsim::Instrument* ins = nullptr, unsigned model_lanes = 16) {
  return dense_train(kernel, labels, train_idx, options,
                     Heuristic::kSecondOrder, ins, model_lanes,
                     /*materialize_q=*/true);
}

[[nodiscard]] inline Model phisvm_train(
    linalg::ConstMatrixView kernel, std::span<const std::int8_t> labels,
    std::span<const std::size_t> train_idx, const TrainOptions& options,
    memsim::Instrument* ins = nullptr, unsigned model_lanes = 16) {
  return dense_train(kernel, labels, train_idx, options, Heuristic::kAdaptive,
                     ins, model_lanes);
}

}  // namespace fcma::svm
