#include "fcma/online.hpp"

#include <cmath>

#include "common/trace.hpp"
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
  // One run serves selection and the final classifier.  A budget plan
  // sees only this subject's epochs — the whole working set of the online
  // protocol.
  EpochRun run =
      open_epoch_run(dataset, dataset.epochs_of_subject(subject),
                     options.memory_budget_bytes, options.voxels_per_task);
  EpochSource& source = *run.epochs;
  const auto folds = kfold_groups(source.meta().size(), options.k_folds);

  PipelineConfig pipeline = options.pipeline;
  pipeline.cv_folds = &folds;
  const Scoreboard board = score_epoch_run(run, pipeline);

  OnlineResult result;
  result.selected = board.top_voxels(options.top_k);
  result.mean_selected_cv_accuracy = board.mean_accuracy_of(result.selected);

  // Final classifier estimate: k-fold CV over the selected voxels'
  // correlation features within this subject.
  linalg::Matrix features =
      selected_correlation_features(source, result.selected);
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
        features, source.meta(), train_idx, test, pipeline.svm_options);
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
