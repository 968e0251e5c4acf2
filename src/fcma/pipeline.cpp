#include "fcma/pipeline.hpp"

#include <algorithm>
#include <atomic>

#include "archsim/roofline.hpp"
#include "common/trace.hpp"
#include "common/workspace.hpp"

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
    // One scheduler task per FCMA task, and no pool below it: each task's
    // stages run inline on the worker that took it.  Nesting the stages on
    // the same pool would let a worker that helps while it joins start a
    // sibling task with its own correlation buffer still held, stacking
    // buffers per thread.  Every voxel writes its own accuracy slot and the
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
  FCMA_CHECK(group_voxels > 0, "group size must be positive");
  const std::size_t m = epochs.meta().size();
  const std::size_t n = epochs.voxels();

  // Per group, correlate+normalize into a reusable buffer and reduce each
  // voxel to its kernel matrix, both across the pool: the optimized stage
  // 1+2 spreads column panels, and each voxel's kernel is one serial syrk
  // on one thread, so results are pool-independent.  One group-sized
  // workspace lease covers every group (the last, possibly shorter group
  // just views a prefix).  Iterating in size_t keeps a group larger than
  // 2^32 - 1 voxels from wrapping the loop.
  std::vector<linalg::Matrix> kernels;
  kernels.reserve(task.count);
  const std::size_t max_group =
      std::min<std::size_t>(group_voxels, task.count);
  auto corr_lease = Workspace::local().acquire(max_group * m * n);
  for (std::size_t g0 = 0; g0 < task.count; g0 += max_group) {
    const VoxelTask group{
        task.first + static_cast<std::uint32_t>(g0),
        static_cast<std::uint32_t>(std::min(max_group, task.count - g0))};
    const linalg::MatrixView corr{
        corr_lease.data(), static_cast<std::size_t>(group.count) * m, n, n};
    if (config.impl == Impl::kBaseline) {
      baseline_correlate_normalize(epochs, group, corr);
    } else {
      optimized_correlate_normalize(epochs, group, corr, config.norm_mode,
                                    config.pool);
    }
    for (std::uint32_t v = 0; v < group.count; ++v) kernels.emplace_back(m, m);
    threading::for_each_index(config.pool, 0, group.count, [&](std::size_t v) {
      compute_voxel_kernel(corr, m, v, config.impl, kernels[g0 + v].view());
    });
  }
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
