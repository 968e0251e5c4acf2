// Pipeline stage 3 building blocks (paper §3.2 baseline, §4.4 optimized).
//
// Each assigned voxel's M x N correlation block is reduced to an M x M
// linear-kernel matrix (compute_voxel_kernel, one serial syrk), and a
// cross-validation over the epoch labels and folds built here assigns the
// voxel an accuracy score.  The baseline uses the generic syrk and the
// LibSVM solver; the optimized path uses the panel-blocked syrk and PhiSVM.
// The task driver that composes them is run_task_grouped (pipeline.hpp);
// svm_stage_instrumented is its serial, event-counted stage 3.
#pragma once

#include <vector>

#include "fcma/task.hpp"
#include "fmri/dataset.hpp"
#include "linalg/matrix.hpp"
#include "linalg/tune.hpp"
#include "memsim/instrument.hpp"
#include "svm/cross_validation.hpp"

namespace fcma::core {

/// Which kernel implementations stage 3 uses.
enum class Impl { kBaseline, kOptimized };

/// Per-voxel outcome of the instrumented stage 3.
struct SvmStageResult {
  std::vector<double> accuracy;  ///< CV accuracy per task voxel
  long svm_iterations = 0;       ///< total SMO iterations across voxels
};

/// Computes voxel `v_local`'s kernel matrix from the task's correlation
/// buffer into `kernel` (must be M x M).  `geo`, if given, must be the
/// fixed geometry (linalg::tune::syrk_plan); any other throws fcma::Error.
void compute_voxel_kernel(linalg::ConstMatrixView corr, std::size_t epochs,
                          std::size_t v_local, Impl impl,
                          linalg::MatrixView kernel,
                          const linalg::tune::SyrkGeometry* geo = nullptr);

/// Runs stage 3 for every voxel of the task, serially, with events
/// accumulating into `ins`.  `corr` is the stage-1/2 output buffer
/// (task.count * M rows by N); `folds` are the CV test groups.
[[nodiscard]] SvmStageResult svm_stage_instrumented(
    linalg::ConstMatrixView corr, const std::vector<fmri::Epoch>& meta,
    const std::vector<std::vector<std::size_t>>& folds, const VoxelTask& task,
    Impl impl, svm::SolverKind solver, const svm::TrainOptions& options,
    memsim::Instrument& ins, unsigned model_lanes = 16,
    memsim::KernelEvents* kernel_events = nullptr);

/// Builds the +1/-1 label vector and LOSO folds from epoch metadata.
[[nodiscard]] std::vector<std::int8_t> epoch_labels(
    const std::vector<fmri::Epoch>& meta);
[[nodiscard]] std::vector<std::vector<std::size_t>> epoch_loso_folds(
    const std::vector<fmri::Epoch>& meta);

}  // namespace fcma::core
