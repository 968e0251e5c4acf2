// Pipeline stages 1 & 2: correlation computation + within-subject
// normalization (paper §4.2, §4.3).
//
// Input: the eq.2-normalized per-epoch activity (fmri::NormalizedEpochs).
// Output: the task's correlation data in the voxel-grouped layout of Fig 4 —
// a matrix of V*M rows by N columns where row v*M + m holds the (Fisher- and
// z-transformed) correlations of assigned voxel v with the whole brain in
// epoch m.
//
// Three implementations:
//   baseline           — per-epoch generic gemm into the interleaved layout
//                        (the cblas_sgemm ldc trick), then a separate
//                        normalization pass (the paper's baseline).
//   optimized          — panel-blocked tall-skinny gemm; NormMode selects
//                        whether normalization runs as a separate pass
//                        (Separated) or fused into the gemm panels while
//                        they are cache-resident (Merged, idea #2).
//   *_instrumented     — event-counted twins.
#pragma once

#include "fmri/dataset.hpp"
#include "fcma/epoch_source.hpp"
#include "fcma/task.hpp"
#include "linalg/matrix.hpp"
#include "memsim/instrument.hpp"

namespace fcma::core {

/// Whether stage 2 is fused into stage 1 (paper Table 7's ablation).
enum class NormMode { kSeparated, kMerged };

/// Correlation output buffer for one task: rows = task.count * epochs,
/// row v_local * epochs + m = voxel (task.first + v_local)'s correlations in
/// epoch m against all N voxels.
[[nodiscard]] linalg::Matrix make_corr_buffer(const VoxelTask& task,
                                              std::size_t epochs,
                                              std::size_t brain_voxels);

/// Baseline stages 1+2 (always separated — the baseline has no fusion).
/// The EpochSource form is primary: the baseline and separated stages
/// lease every row of one epoch at a time, and the merged sweep leases one
/// subject run's rows at a time, so a streamed source never needs the full
/// panel stack resident.  The NormalizedEpochs overloads wrap
/// ResidentEpochs and stay bit-identical.
void baseline_correlate_normalize(EpochSource& epochs, const VoxelTask& task,
                                  linalg::MatrixView out);
void baseline_correlate_normalize(const fmri::NormalizedEpochs& epochs,
                                  const VoxelTask& task, linalg::MatrixView out);

/// Optimized stages 1+2.  The merged mode is correlate_normalize_block
/// over the whole brain [0, out.cols), with the task's rows leased once.
/// The separated mode ignores the pool.
void optimized_correlate_normalize(EpochSource& epochs, const VoxelTask& task,
                                   linalg::MatrixView out, NormMode mode,
                                   threading::ThreadPool* pool = nullptr);
void optimized_correlate_normalize(const fmri::NormalizedEpochs& epochs,
                                   const VoxelTask& task,
                                   linalg::MatrixView out, NormMode mode);

/// The merged stages 1+2 over brain columns [n0, n1): the block kernel of
/// the column sweep (pipeline.hpp) and the only merged body.  `task_lease`
/// holds the task's voxel rows of every epoch
/// (epochs.acquire_rows(0, M, task.first, task.first + task.count)); each
/// subject run's rows [n0, n1) are leased once per call, one run at a
/// time.  `out` is task.count * M rows by n1 - n0 columns: row v * M + m
/// holds voxel (task.first + v)'s normalized correlations in epoch m with
/// voxels [n0, n1).  Every column is computed and normalized on its own,
/// within kSweepPanelCols-wide panels counted from n0, so a block starting
/// on a panel edge reproduces the whole-brain columns bit for bit.  Each
/// subject run packs its panels once, then runs one unit per (panel,
/// 8-voxel block), which records its correlation and normalization spans
/// on the lane that ran it, under the caller's span.  With a `pool`, each
/// subject run's lease fills across it (acquire_rows' pool) and its panels
/// and units spread across it; the result is bit-identical to the
/// pool-less call.
void correlate_normalize_block(EpochSource& epochs,
                               const EpochSource::RowLease& task_lease,
                               const VoxelTask& task, std::size_t n0,
                               std::size_t n1, linalg::MatrixView out,
                               threading::ThreadPool* pool = nullptr);

/// Instrumented twins; `model_lanes` selects the modeled VPU width.
void baseline_correlate_normalize_instrumented(
    const fmri::NormalizedEpochs& epochs, const VoxelTask& task,
    linalg::MatrixView out, memsim::Instrument& ins,
    unsigned model_lanes = 16);

void optimized_correlate_normalize_instrumented(
    const fmri::NormalizedEpochs& epochs, const VoxelTask& task,
    linalg::MatrixView out, NormMode mode, memsim::Instrument& ins,
    unsigned model_lanes = 16);

/// Applies stage 2 alone (Fisher + within-subject z-score) to a correlation
/// buffer laid out as above.  Exposed for the Table 7 ablation and tests.
void normalize_corr_buffer(const std::vector<fmri::Epoch>& meta,
                           const VoxelTask& task, linalg::MatrixView buf);

}  // namespace fcma::core
