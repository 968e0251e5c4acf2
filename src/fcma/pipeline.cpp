#include "fcma/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>

#include "archsim/roofline.hpp"
#include "common/aligned.hpp"
#include "common/trace.hpp"
#include "fcma/memory_model.hpp"
#include "linalg/opt.hpp"

namespace fcma::core {

namespace {

// Places each instrumented stage on the modeled machine's roofline and
// attaches the result to the span labels the stage records under.  Last
// writer wins per label, which matches the one-calibration-run-per-stream
// usage of `fcma analyze --trace-stream`.
void attach_roofline(const memsim::Instrument& ins,
                     const InstrumentedTaskResult& out) {
  if (!trace::enabled()) return;
  const archsim::ArchModel model = ins.machine() == memsim::Machine::kPhi5110P
                                       ? archsim::Phi5110P()
                                       : archsim::XeonE5_2670();
  trace::Registry& reg = trace::global();
  reg.roofline_set("task/correlation/gemm_nt",
                   archsim::roofline_point(model, out.corr_norm));
  reg.roofline_set("task/svm/syrk", archsim::roofline_point(model, out.kernel));
  reg.roofline_set("task/svm", archsim::roofline_point(model, out.svm));
  reg.roofline_set("task", archsim::roofline_point(model, out.total()));
  reg.meta_set("roofline/machine", model.name);
}

}  // namespace

TaskResult run_task(EpochSource& epochs, const VoxelTask& task,
                    const PipelineConfig& config) {
  // The whole task is one group; an empty task still gets a valid group
  // size and returns no accuracies.
  return run_task_grouped(epochs, task, config,
                          std::max<std::size_t>(task.count, 1));
}

TaskResult run_task(const fmri::NormalizedEpochs& epochs,
                    const VoxelTask& task, const PipelineConfig& config) {
  ResidentEpochs source(epochs);
  return run_task(source, task, config);
}

std::vector<TaskResult> run_tasks(EpochSource& epochs,
                                  std::span<const VoxelTask> tasks,
                                  const PipelineConfig& config) {
  std::vector<TaskResult> results(tasks.size());
  if (config.pool != nullptr && tasks.size() > 1) {
    // One loop index per FCMA task, and no pool below it: each task's
    // stages run inline on the lane that claimed it, one correlation
    // buffer per lane.  Every voxel writes its own accuracy slot and the
    // results vector is indexed by task order, so results match the serial
    // loop exactly.
    PipelineConfig inline_config = config;
    inline_config.pool = nullptr;
    threading::parallel_for_each(
        *config.pool, 0, tasks.size(), [&](std::size_t i) {
          results[i] = run_task(epochs, tasks[i], inline_config);
        });
  } else {
    // A single task (or no pool): run on the calling thread so the task's
    // stages keep the whole pool.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      results[i] = run_task(epochs, tasks[i], config);
    }
  }
  return results;
}

std::vector<TaskResult> run_tasks(const fmri::NormalizedEpochs& epochs,
                                  std::span<const VoxelTask> tasks,
                                  const PipelineConfig& config) {
  ResidentEpochs source(epochs);
  return run_tasks(source, tasks, config);
}

std::vector<linalg::Matrix> grouped_kernels(EpochSource& epochs,
                                            const VoxelTask& task,
                                            const PipelineConfig& config,
                                            std::size_t group_voxels) {
  FCMA_CHECK(!epochs.meta().empty(), "no epochs to process");
  const std::size_t m = epochs.meta().size();
  const std::size_t n = epochs.voxels();

  // The merged optimized stages sweep the brain in column blocks of one
  // panel per lane; the baseline and separated stages correlate whole
  // rows, one block of N.
  const bool sweep = config.impl == Impl::kOptimized &&
                     config.norm_mode == NormMode::kMerged;
  const std::size_t lanes = config.pool != nullptr ? config.pool->size() : 1;
  ColumnSweep shape = column_sweep(task.count, n, group_voxels, lanes);
  if (!sweep) shape = {std::min<std::size_t>(group_voxels, task.count), n};

  // Per voxel group and block, correlate+normalize into one reusable
  // correlation block, then add the block to every group voxel's kernel,
  // both across the pool: the merged stage 1+2 spreads (panel, voxel
  // block) units, and each voxel's kernel is one serial syrk on one
  // thread, so results are pool-independent.  Blocks start on syrk panel
  // edges and accumulate in ascending order, so the kernels carry the
  // whole-brain syrk's bits.
  // Iterating in size_t keeps a group larger than 2^32 - 1 voxels from
  // wrapping the loop.
  std::vector<linalg::Matrix> kernels;
  kernels.reserve(task.count);
  for (std::uint32_t v = 0; v < task.count; ++v) kernels.emplace_back(m, m);
  // Each thread keeps one spare block, so a task reuses the last one's
  // memory instead of mapping a fresh block.  The block is moved out of the
  // slot for the task's duration: a task nested on this thread (say, from
  // an EpochSource's acquire) finds the slot empty and allocates its own.
  // On the way out the larger of the two blocks stays.
  thread_local AlignedBuffer<float> spare;
  AlignedBuffer<float> block = std::move(spare);
  const std::size_t block_floats = shape.group * m * shape.block;
  if (block.size() < block_floats) block.reset(block_floats);
  for (std::size_t g0 = 0; g0 < task.count; g0 += shape.group) {
    const VoxelTask group{
        task.first + static_cast<std::uint32_t>(g0),
        static_cast<std::uint32_t>(std::min(shape.group, task.count - g0))};
    EpochSource::RowLease rows;
    if (sweep) {
      rows = epochs.acquire_rows(0, m, group.first, group.first + group.count,
                                 config.pool);
    }
    for (std::size_t n0 = 0; n0 < n; n0 += shape.block) {
      const std::size_t n1 = std::min(n, n0 + shape.block);
      const linalg::MatrixView corr{block.data(), group.count * m,
                                    n1 - n0, shape.block};
      if (sweep) {
        correlate_normalize_block(epochs, rows, group, n0, n1, corr,
                                  config.pool);
      } else if (config.impl == Impl::kBaseline) {
        baseline_correlate_normalize(epochs, group, corr);
      } else {
        optimized_correlate_normalize(epochs, group, corr, config.norm_mode);
      }
      threading::for_each_index(
          config.pool, 0, group.count, [&](std::size_t v) {
            linalg::Matrix& kernel = kernels[g0 + v];
            if (config.impl == Impl::kBaseline) {
              compute_voxel_kernel(corr, m, v, config.impl, kernel.view());
              return;
            }
            if (n0 == 0) std::memset(kernel.data(), 0, m * m * sizeof(float));
            linalg::opt::syrk_accumulate(
                linalg::ConstMatrixView{corr.row(v * m), m, corr.cols,
                                        corr.ld},
                kernel.view(), /*mirror=*/n1 == n);
          });
    }
  }
  if (block.size() >= spare.size()) spare = std::move(block);
  return kernels;
}

TaskResult run_task_grouped(EpochSource& epochs, const VoxelTask& task,
                            const PipelineConfig& config,
                            std::size_t group_voxels) {
  const trace::Span task_span("task");
  trace::count("pipeline/tasks");
  const std::vector<linalg::Matrix> kernels =
      grouped_kernels(epochs, task, config, group_voxels);

  // Cross-validate the accumulated kernel matrices — all voxels at once,
  // the regime where every hardware thread has a problem to solve.
  const trace::Span svm_span("svm");
  const auto folds = config.cv_folds != nullptr
                         ? *config.cv_folds
                         : epoch_loso_folds(epochs.meta());
  const auto labels = epoch_labels(epochs.meta());
  TaskResult result;
  result.task = task;
  result.accuracy.assign(task.count, 0.0);
  std::atomic<long> iterations{0};
  threading::for_each_index(config.pool, 0, task.count, [&](std::size_t v) {
    const svm::CvResult cv =
        svm::cross_validate(config.solver, kernels[v].view(), labels, folds,
                            config.svm_options);
    result.accuracy[v] = cv.accuracy();
    iterations.fetch_add(cv.iterations, std::memory_order_relaxed);
  });
  result.svm_iterations = iterations.load();
  trace::count("svm/cv_iterations", result.svm_iterations);
  return result;
}

TaskResult run_task_grouped(const fmri::NormalizedEpochs& epochs,
                            const VoxelTask& task,
                            const PipelineConfig& config,
                            std::size_t group_voxels) {
  ResidentEpochs source(epochs);
  return run_task_grouped(source, task, config, group_voxels);
}

EpochRun open_epoch_run(const fmri::DatasetView& view,
                        std::vector<std::size_t> epoch_indices,
                        std::size_t budget_bytes, std::size_t voxels_per_task,
                        std::size_t lanes) {
  FCMA_CHECK(!epoch_indices.empty(), "a run needs epochs");
  const std::size_t asked =
      voxels_per_task != 0 ? voxels_per_task : view.voxels();
  EpochRun run;
  if (budget_bytes == 0) {
    run.epochs = std::make_unique<ResidentEpochs>(
        fmri::normalize_epochs(view, epoch_indices));
    if (lanes != 0) {
      run.group_voxels = std::max<std::size_t>(1, kInFlightVoxels / lanes);
      run.voxels_per_task = std::min(asked, run.group_voxels);
    } else {
      run.voxels_per_task = std::min(asked, view.voxels());
      if (run.voxels_per_task == view.voxels()) {
        run.group_voxels = kInFlightVoxels;
      }
    }
    return run;
  }
  // The widest lease a stage takes is every row of one subject run.
  const std::vector<fmri::Epoch>& meta = view.epochs();
  std::size_t longest_run = 0;
  for (std::size_t i = 0, first = 0; i < epoch_indices.size(); ++i) {
    FCMA_CHECK(epoch_indices[i] < meta.size(), "epoch index out of range");
    if (meta[epoch_indices[i]].subject != meta[epoch_indices[first]].subject) {
      first = i;
    }
    longest_run = std::max(longest_run, i - first + 1);
  }
  // A single-node run is one lane.
  const std::size_t planned_lanes = std::max<std::size_t>(lanes, 1);
  const BudgetPlan plan =
      plan_residency(epoch_indices.size(), longest_run, view.voxels(),
                     meta[epoch_indices.front()].length,
                     budget_bytes / planned_lanes);
  run.epochs = std::make_unique<StreamedEpochs>(
      view, std::move(epoch_indices),
      StreamedEpochs::Options{planned_lanes * plan.panel_cache_bytes});
  run.voxels_per_task =
      std::min(asked, lanes != 0 ? plan.group_voxels : plan.voxels_per_task);
  run.group_voxels = plan.group_voxels;
  return run;
}

EpochRun open_epoch_run(const fmri::DatasetView& view,
                        std::size_t budget_bytes, std::size_t voxels_per_task,
                        std::size_t lanes) {
  std::vector<std::size_t> all(view.epochs().size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return open_epoch_run(view, std::move(all), budget_bytes, voxels_per_task,
                        lanes);
}

InstrumentedTaskResult run_task_instrumented(
    const fmri::NormalizedEpochs& epochs, const VoxelTask& task,
    const PipelineConfig& config, memsim::Instrument& ins,
    unsigned model_lanes) {
  FCMA_CHECK(!epochs.per_epoch.empty(), "no epochs to process");
  const trace::Span task_span("instrumented_task");
  trace::count("pipeline/instrumented_tasks");
  const std::size_t m = epochs.per_epoch.size();
  const std::size_t n = epochs.per_epoch.front().rows();
  linalg::Matrix corr = make_corr_buffer(task, m, n);

  InstrumentedTaskResult out;
  const memsim::KernelEvents at_start = ins.events();
  if (config.impl == Impl::kBaseline) {
    baseline_correlate_normalize_instrumented(epochs, task, corr.view(), ins,
                                              model_lanes);
  } else {
    optimized_correlate_normalize_instrumented(
        epochs, task, corr.view(), config.norm_mode, ins, model_lanes);
  }
  const memsim::KernelEvents after_corr = ins.events();
  out.corr_norm = after_corr - at_start;

  const auto folds = config.cv_folds != nullptr
                         ? *config.cv_folds
                         : epoch_loso_folds(epochs.meta);
  const SvmStageResult stage3 = svm_stage_instrumented(
      corr.view(), epochs.meta, folds, task, config.impl, config.solver,
      config.svm_options, ins, model_lanes, &out.kernel);
  out.svm = (ins.events() - after_corr) - out.kernel;

  out.result.task = task;
  out.result.accuracy = stage3.accuracy;
  out.result.svm_iterations = stage3.svm_iterations;
  attach_roofline(ins, out);
  return out;
}

}  // namespace fcma::core
