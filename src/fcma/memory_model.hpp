// Device-memory feasibility model (paper §3.3.3, §4.4, §5.4.1).
//
// The Xeon Phi 5110P leaves ~6GB to applications.  The baseline pipeline
// must keep every assigned voxel's full correlation data (M x N floats)
// resident through SVM cross-validation, which caps a task at 120 voxels
// (face-scene) or 60 (attention) — starving the coprocessor's 240 hardware
// threads during stage 3.  The optimized pipeline reduces each voxel's
// correlation block to an M x M kernel matrix portion by portion, so >= 240
// voxels' problems fit and every thread has work.
//
// These helpers quantify both regimes; the cluster simulator and the Fig 9
// bench use them to reproduce the thread-starvation effect.
#pragma once

#include <cstddef>
#include <numeric>

#include "linalg/opt.hpp"

namespace fcma::core {

/// Memory available to applications on the modeled coprocessor (~6GB).
inline constexpr std::size_t kPhiAvailableBytes = 6ull << 30;

/// Bytes of correlation data one voxel contributes (M epochs x N voxels).
[[nodiscard]] std::size_t corr_bytes_per_voxel(std::size_t epochs,
                                               std::size_t brain_voxels);

/// Bytes of one voxel's precomputed kernel matrix (M x M).
[[nodiscard]] std::size_t kernel_bytes_per_voxel(std::size_t epochs);

/// Largest task the *baseline* can accept: all correlation data resident.
[[nodiscard]] std::size_t baseline_max_voxels(std::size_t epochs,
                                              std::size_t brain_voxels,
                                              std::size_t available_bytes);

/// Largest task the *optimized* pipeline can accept: `group` voxels'
/// correlation blocks in flight plus one kernel matrix per assigned voxel.
[[nodiscard]] std::size_t optimized_max_voxels(std::size_t epochs,
                                               std::size_t brain_voxels,
                                               std::size_t available_bytes,
                                               std::size_t group = 8);

/// Width granule of the column sweep (pipeline.hpp): a brain block starts
/// on both a gemm panel edge (512 columns) and a syrk panel edge (96), so
/// every packed panel and every accumulation step of the block kernels is
/// the one the whole-brain sweep runs.
inline constexpr std::size_t kSweepBlockCols =
    std::lcm(linalg::opt::kGemmPanelCols, linalg::opt::kSyrkPanelK);

/// How the merged stages 1+2 sweep one task: voxel groups of `group`
/// voxels, each correlated against the brain in column blocks of `block`
/// voxels (only the last block ragged).
struct ColumnSweep {
  std::size_t group = 0;
  std::size_t block = 0;
};

/// The sweep of a `task_voxels` task over `brain_voxels` columns whose
/// in-flight correlation may hold `group_voxels` whole voxels
/// (group_voxels x M x N floats).  The whole task in one block when it
/// fits; otherwise the whole task in the widest multiple of
/// kSweepBlockCols that fits; otherwise the fewest voxel groups that fit
/// one kSweepBlockCols block (or the whole brain, if narrower).  Throws
/// fcma::Error when group_voxels or brain_voxels is 0.
[[nodiscard]] ColumnSweep column_sweep(std::size_t task_voxels,
                                       std::size_t brain_voxels,
                                       std::size_t group_voxels);

/// Residency plan for a budget-bounded streamed run (`--memory-budget`).
///
/// Splits the budget deterministically between the three big consumers of
/// a streamed run:
///   * panel cache — StreamedEpochs' budget: the floor a whole-panel lease
///     of one subject run needs (its panels plus one prefetched panel).
///     The column sweep leases rows, not panels, so the plan gives the
///     cache no more; its row-lease buffers (one block of one subject run
///     at a time, and the task's own rows) come out of this budget;
///   * correlation — in-flight count x M x B blocks, capped at
///     group_voxels x M x N floats (column_sweep);
///   * kernels — the per-task accumulated M x M kernel matrices.
/// The cache takes its floor and the rest is split evenly between
/// correlation and kernels.  voxels_per_task is capped so one task fits a
/// single pass of kSweepBlockCols-wide blocks: the sweep then reads each
/// panel row once per task.
/// Only ~5/8 of the budget is planned; the rest is headroom for code,
/// transient shard mappings, SVM scratch, and allocator slack so the
/// *process* peak RSS stays under the user's number, not just the plan.
/// Sizes saturate instead of wrapping, so any budget plans sanely.
struct BudgetPlan {
  std::size_t budget_bytes = 0;       ///< the user's total budget
  std::size_t panel_cache_bytes = 0;  ///< StreamedEpochs cache budget
  std::size_t group_voxels = 0;       ///< whole voxels of correlation in flight
  std::size_t voxels_per_task = 0;    ///< task grain (caps kernel buildup)
};

/// Plans shard/task sizes for `budget_bytes`; throws fcma::Error when the
/// budget cannot hold even the minimal working set (one subject's panels,
/// a one-voxel correlation block, one kernel matrix).  Pure function of
/// its arguments, so resident and streamed runs of the same shape always
/// pick the same sizes.
[[nodiscard]] BudgetPlan plan_residency(std::size_t total_epochs,
                                        std::size_t epochs_per_subject,
                                        std::size_t brain_voxels,
                                        std::size_t epoch_length,
                                        std::size_t budget_bytes);

}  // namespace fcma::core
