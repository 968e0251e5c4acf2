#include "fcma/svm_stage.hpp"

#include <algorithm>
#include <map>

#include "common/trace.hpp"
#include "linalg/baseline.hpp"
#include "linalg/opt.hpp"

namespace fcma::core {

namespace {

/// View of voxel v_local's M x N correlation block inside the task buffer.
linalg::ConstMatrixView voxel_block(linalg::ConstMatrixView corr,
                                    std::size_t epochs, std::size_t v_local) {
  return linalg::ConstMatrixView{corr.row(v_local * epochs), epochs,
                                 corr.cols, corr.ld};
}

}  // namespace

std::vector<std::int8_t> epoch_labels(const std::vector<fmri::Epoch>& meta) {
  std::vector<std::int8_t> labels(meta.size());
  for (std::size_t m = 0; m < meta.size(); ++m) {
    labels[m] = meta[m].label == 1 ? std::int8_t{1} : std::int8_t{-1};
  }
  return labels;
}

std::vector<std::vector<std::size_t>> epoch_loso_folds(
    const std::vector<fmri::Epoch>& meta) {
  // Subject ids need not be dense here: during the offline protocol the
  // held-out subject's id is absent from the training metadata.  Remap the
  // distinct ids that actually occur onto fold indices.
  std::map<std::int32_t, std::int32_t> fold_of;
  for (const fmri::Epoch& e : meta) {
    fold_of.emplace(e.subject, static_cast<std::int32_t>(fold_of.size()));
  }
  std::vector<std::int32_t> subject_of(meta.size());
  for (std::size_t m = 0; m < meta.size(); ++m) {
    subject_of[m] = fold_of.at(meta[m].subject);
  }
  return svm::loso_folds(subject_of,
                         static_cast<std::int32_t>(fold_of.size()));
}

void compute_voxel_kernel(linalg::ConstMatrixView corr, std::size_t epochs,
                          std::size_t v_local, Impl impl,
                          linalg::MatrixView kernel,
                          const linalg::tune::SyrkGeometry* geo) {
  FCMA_CHECK(geo == nullptr || *geo == linalg::tune::SyrkGeometry{},
             "compute_voxel_kernel: only the fixed syrk geometry is supported");
  const auto block = voxel_block(corr, epochs, v_local);
  if (impl == Impl::kBaseline) {
    linalg::baseline::syrk(block, kernel);
  } else {
    linalg::opt::syrk(block, kernel);
  }
}

SvmStageResult svm_stage_instrumented(
    linalg::ConstMatrixView corr, const std::vector<fmri::Epoch>& meta,
    const std::vector<std::vector<std::size_t>>& folds, const VoxelTask& task,
    Impl impl, svm::SolverKind solver, const svm::TrainOptions& options,
    memsim::Instrument& ins, unsigned model_lanes,
    memsim::KernelEvents* kernel_events) {
  const trace::Span span("svm");
  const std::size_t m = meta.size();
  const auto labels = epoch_labels(meta);
  SvmStageResult result;
  result.accuracy.assign(task.count, 0.0);
  memsim::KernelEvents kernel_total{};
  for (std::size_t v = 0; v < task.count; ++v) {
    linalg::Matrix kernel(m, m);
    const auto block = voxel_block(corr, m, v);
    const memsim::KernelEvents before = ins.events();
    if (impl == Impl::kBaseline) {
      linalg::baseline::syrk_instrumented(block, kernel.view(), ins,
                                          model_lanes);
    } else {
      linalg::opt::syrk_instrumented(block, kernel.view(), ins, model_lanes);
    }
    kernel_total += ins.events() - before;
    const svm::CvResult cv = svm::cross_validate(
        solver, kernel.view(), labels, folds, options, &ins, model_lanes);
    result.accuracy[v] = cv.accuracy();
    result.svm_iterations += cv.iterations;
  }
  if (kernel_events != nullptr) *kernel_events = kernel_total;
  return result;
}

}  // namespace fcma::core
