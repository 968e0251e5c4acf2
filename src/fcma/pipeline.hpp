// The full three-stage FCMA worker pipeline (paper Fig 3).
//
// run_task executes stages 1-3 for one voxel-range task against
// pre-normalized epoch data, returning one cross-validation accuracy per
// assigned voxel.  It is run_task_grouped with the whole task as one group:
// the grouped pipeline is the only task driver.  PipelineConfig selects the
// baseline or optimized implementation of every stage;
// run_task_instrumented additionally collects the per-stage event counts
// that drive the Table 1/7 and Fig 9/10/11 reproductions.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "fcma/corr_norm.hpp"
#include "fcma/svm_stage.hpp"

namespace fcma::core {

/// Stage-implementation selection for one pipeline run.
struct PipelineConfig {
  Impl impl = Impl::kOptimized;
  /// Stage 1/2 fusion; only meaningful for the optimized implementation
  /// (the baseline is inherently separated).
  NormMode norm_mode = NormMode::kMerged;
  svm::SolverKind solver = svm::SolverKind::kPhiSvm;
  svm::TrainOptions svm_options;
  /// Optional pool, used at exactly one level.  run_task and
  /// run_task_grouped run every stage on it: column panels of the optimized
  /// merged stage 1+2, one serial syrk (accumulation) per voxel, and one
  /// SVM cross-validation per voxel.  run_tasks with more than one task spreads
  /// whole tasks over it instead, and their stages run pool-less on their
  /// worker.  Results never depend on it.
  threading::ThreadPool* pool = nullptr;
  /// Optional custom cross-validation folds (test-index groups).  When
  /// null, leave-one-subject-out folds are derived from the epoch metadata.
  const std::vector<std::vector<std::size_t>>* cv_folds = nullptr;

  /// The paper's baseline configuration: generic kernels + LibSVM.
  [[nodiscard]] static PipelineConfig baseline() {
    PipelineConfig c;
    c.impl = Impl::kBaseline;
    c.norm_mode = NormMode::kSeparated;
    c.solver = svm::SolverKind::kLibSvm;
    return c;
  }

  /// The paper's fully optimized configuration.
  [[nodiscard]] static PipelineConfig optimized() { return {}; }
};

/// Outcome of one task: per-voxel accuracies (index i corresponds to voxel
/// task.first + i).
struct TaskResult {
  VoxelTask task;
  std::vector<double> accuracy;
  long svm_iterations = 0;
};

/// Runs the three-stage pipeline for `task`:
/// run_task_grouped(epochs, task, config, task.count), one block of N.
///
/// The EpochSource form is primary: stages lease what they need (whole
/// panels per epoch for the baseline and separated stages, a subject run's
/// voxel rows for the merged ones), so a streamed source bounds residency
/// instead of holding the whole dataset.  The NormalizedEpochs overloads
/// wrap ResidentEpochs and are bit-identical.  Sources must be thread-safe
/// when a pool is configured (both backends are).
[[nodiscard]] TaskResult run_task(EpochSource& epochs, const VoxelTask& task,
                                  const PipelineConfig& config);
[[nodiscard]] TaskResult run_task(const fmri::NormalizedEpochs& epochs,
                                  const VoxelTask& task,
                                  const PipelineConfig& config);

/// Runs every task and returns the results in task order.
///
/// With a pool configured and more than one task, tasks are distributed
/// across the workers (the paper's task-level parallelism); each task runs
/// with config.pool cleared, so its stages run inline on its worker and no
/// pool work nests inside another.  With one task — or no pool — tasks run
/// on the calling thread with the config unchanged, which keeps the pool
/// available to the task's stages instead.  Either way the result vector
/// is ordered by task index, so downstream consumers see an identical
/// sequence regardless of thread count.
[[nodiscard]] std::vector<TaskResult> run_tasks(
    EpochSource& epochs, std::span<const VoxelTask> tasks,
    const PipelineConfig& config);
[[nodiscard]] std::vector<TaskResult> run_tasks(
    const fmri::NormalizedEpochs& epochs, std::span<const VoxelTask> tasks,
    const PipelineConfig& config);

/// Per-stage event breakdown of an instrumented task run.
struct InstrumentedTaskResult {
  TaskResult result;
  memsim::KernelEvents corr_norm;  ///< stages 1+2 (fused or not)
  memsim::KernelEvents kernel;     ///< per-voxel syrk precompute
  memsim::KernelEvents svm;        ///< SMO cross-validation
  [[nodiscard]] memsim::KernelEvents total() const {
    memsim::KernelEvents t = corr_norm;
    t += kernel;
    t += svm;
    return t;
  }
};

/// Instrumented (serial, event-counted) pipeline run.
[[nodiscard]] InstrumentedTaskResult run_task_instrumented(
    const fmri::NormalizedEpochs& epochs, const VoxelTask& task,
    const PipelineConfig& config, memsim::Instrument& ins,
    unsigned model_lanes = 16);

/// The memory-bounded pipeline — the paper's §4.4 workflow.
///
/// Holding the whole task's correlation buffer (task.count x M x N floats)
/// at once caps a coprocessor task at ~120 voxels at the paper's
/// dimensions.  run_task_grouped instead sweeps the brain in column blocks
/// (memory_model.hpp, column_sweep): for each block [n0, n1) of B columns,
/// stages 1+2 correlate and normalize every task voxel against the block
/// into one task.count x M x B buffer, and each voxel's M x M kernel
/// matrix gets that block's syrk panels added to it.  `group_voxels` caps
/// the in-flight correlation at group_voxels x M x N floats: B = N when the
/// whole task fits, else the widest multiple of kSweepBlockCols (1536) that
/// holds the whole task, else the task splits into the fewest voxel groups
/// that fit 1536-column blocks.  Only the small kernel matrices
/// accumulate, so a task of 240+ voxels fits the modeled 6GB — the enabler
/// for full thread occupancy during SVM cross-validation.  A task swept in
/// one voxel group reads each of its subject runs' voxel rows once per
/// task; a streamed source loads only those rows.
///
/// Blocks start on gemm and syrk panel edges and add to the kernels in
/// ascending order, so kernels and accuracies are bit-identical for any
/// group size and any config.pool: the pool runs each subject run's column
/// panels of stages 1-2 and one serial syrk accumulation per voxel.  The
/// baseline and separated stages have no block form; they run B = N, in
/// groups of group_voxels.  A group size of task.count or more processes
/// the task as one block.
[[nodiscard]] TaskResult run_task_grouped(EpochSource& epochs,
                                          const VoxelTask& task,
                                          const PipelineConfig& config,
                                          std::size_t group_voxels);
[[nodiscard]] TaskResult run_task_grouped(const fmri::NormalizedEpochs& epochs,
                                          const VoxelTask& task,
                                          const PipelineConfig& config,
                                          std::size_t group_voxels);

/// Stages 1-2 and the kernel reduction of run_task_grouped: the M x M
/// kernel matrix of every task voxel, in voxel order, computed block by
/// block.  Bit-identical for any group size and config.pool;
/// run_task_grouped cross-validates exactly these matrices.
[[nodiscard]] std::vector<linalg::Matrix> grouped_kernels(
    EpochSource& epochs, const VoxelTask& task, const PipelineConfig& config,
    std::size_t group_voxels);

/// The epochs one run reads and the size of its tasks: how every
/// single-node protocol (analyze, offline, online) and `fcma cluster` runs
/// with or without a memory budget.
struct EpochRun {
  std::unique_ptr<EpochSource> epochs;
  /// Task grain (voxels per task).
  std::size_t voxels_per_task = 0;
  /// 0: score_epoch_run spreads the tasks over the pool (run_tasks).
  /// Otherwise tasks run one at a time, the pool inside each, swept under
  /// this in-flight cap (run_task_grouped).  A budget sets it to the plan's
  /// group_voxels.
  std::size_t group_voxels = 0;
};

/// Opens epochs `epoch_indices` of `view` (all of them in the second form)
/// for one run and sizes its tasks.  Without a budget (budget_bytes 0) the
/// epochs are normalized into an owning ResidentEpochs and tasks hold
/// `voxels_per_task` voxels (0 = the whole brain).  With one, rows stream
/// through a StreamedEpochs under plan_residency's row-lease budget
/// (planned for these epochs, the longest subject run among them the
/// widest lease), and the plan's grain caps the task size: a caller may ask
/// for smaller tasks, never larger ones (0 = the plan's grain).  Throws
/// fcma::Error on no epochs or an impossible budget.  The run must not
/// outlive `view`.
[[nodiscard]] EpochRun open_epoch_run(const fmri::DatasetView& view,
                                      std::vector<std::size_t> epoch_indices,
                                      std::size_t budget_bytes,
                                      std::size_t voxels_per_task = 0);
[[nodiscard]] EpochRun open_epoch_run(const fmri::DatasetView& view,
                                      std::size_t budget_bytes,
                                      std::size_t voxels_per_task = 0);

}  // namespace fcma::core
