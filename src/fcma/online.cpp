#include "fcma/online.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/trace.hpp"
#include "fcma/memory_model.hpp"
#include "fcma/offline.hpp"
#include "fcma/scoreboard.hpp"
#include "linalg/opt.hpp"
#include "stats/normalization.hpp"

namespace fcma::core {

std::vector<std::vector<std::size_t>> kfold_groups(std::size_t n,
                                                   std::size_t k) {
  FCMA_CHECK(k >= 2 && k <= n, "bad fold count");
  std::vector<std::vector<std::size_t>> folds(k);
  for (std::size_t i = 0; i < n; ++i) folds[i % k].push_back(i);
  return folds;
}

OnlineResult run_online_selection(const fmri::DatasetView& dataset,
                                  std::int32_t subject,
                                  const OnlineOptions& options) {
  FCMA_CHECK(subject >= 0 && subject < dataset.subjects(),
             "subject out of range");
  const trace::Span span("online_selection");
  const std::vector<std::size_t> subject_epochs =
      dataset.epochs_of_subject(subject);
  const bool streamed = options.memory_budget_bytes > 0;
  const std::size_t v_total = dataset.voxels();

  // One source serves selection and the final classifier.  The budget plan
  // sees only this subject's epochs — the whole working set of the online
  // protocol.
  std::optional<BudgetPlan> plan;
  std::optional<fmri::NormalizedEpochs> resident;
  std::optional<StreamedEpochs> source_streamed;
  EpochSource* source = nullptr;
  std::optional<ResidentEpochs> source_resident;
  if (streamed) {
    plan = plan_residency(
        subject_epochs.size(), subject_epochs.size(), v_total,
        static_cast<std::size_t>(dataset.epochs().front().length),
        options.memory_budget_bytes);
    source_streamed.emplace(
        dataset, subject_epochs,
        StreamedEpochs::Options{plan->panel_cache_bytes});
    source = &*source_streamed;
  } else {
    resident = fmri::normalize_epochs(dataset, subject_epochs);
    source_resident.emplace(*resident);
    source = &*source_resident;
  }
  const auto folds = kfold_groups(source->meta().size(), options.k_folds);

  PipelineConfig pipeline = options.pipeline;
  pipeline.cv_folds = &folds;

  std::size_t per_task = options.voxels_per_task;
  if (per_task == 0) {
    if (streamed) {
      const std::size_t lanes =
          pipeline.pool != nullptr ? pipeline.pool->size() : 1;
      per_task = std::max<std::size_t>(1, plan->group_voxels / lanes);
    } else {
      per_task = v_total;
    }
  }
  const std::vector<VoxelTask> tasks = partition_voxels(v_total, per_task);
  Scoreboard board(v_total);
  for (const TaskResult& tr : run_tasks(*source, tasks, pipeline)) {
    board.add(tr);
  }

  OnlineResult result;
  result.selected = board.top_voxels(options.top_k);
  double acc_sum = 0.0;
  for (const std::uint32_t v : result.selected) {
    acc_sum += board.accuracy_of(v);
  }
  result.mean_selected_cv_accuracy =
      result.selected.empty()
          ? 0.0
          : acc_sum / static_cast<double>(result.selected.size());

  // Final classifier estimate: k-fold CV over the selected voxels'
  // correlation features within this subject.
  linalg::Matrix features =
      selected_correlation_features(*source, result.selected);
  stats::fisher_zscore_block(features.row(0), features.rows(),
                             features.cols(), features.ld());
  std::size_t correct = 0;
  std::size_t total = 0;
  for (const auto& test : folds) {
    std::vector<bool> in_test(features.rows(), false);
    for (const std::size_t t : test) in_test[t] = true;
    std::vector<std::size_t> train_idx;
    for (std::size_t t = 0; t < features.rows(); ++t) {
      if (!in_test[t]) train_idx.push_back(t);
    }
    const double acc = train_and_test_classifier(
        features, source->meta(), train_idx, test, pipeline.svm_options);
    correct += static_cast<std::size_t>(
        std::llround(acc * static_cast<double>(test.size())));
    total += test.size();
  }
  result.classifier_cv_accuracy =
      total == 0 ? 0.0
                 : static_cast<double>(correct) / static_cast<double>(total);
  return result;
}

OnlineResult run_online_selection(const fmri::Dataset& dataset,
                                  std::int32_t subject,
                                  const OnlineOptions& options) {
  return run_online_selection(fmri::InMemoryView(dataset), subject, options);
}

}  // namespace fcma::core
