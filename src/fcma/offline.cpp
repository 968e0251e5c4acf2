#include "fcma/offline.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>

#include "common/trace.hpp"
#include "common/workspace.hpp"
#include "fcma/memory_model.hpp"
#include "linalg/opt.hpp"
#include "stats/normalization.hpp"

namespace fcma::core {

namespace {

// Subject runs over a feature matrix's epoch rows (the offline features are
// built over all epochs, subject-major).
void zscore_features_within_subject(linalg::Matrix& features,
                                    const std::vector<fmri::Epoch>& meta) {
  std::size_t start = 0;
  for (std::size_t m = 1; m <= meta.size(); ++m) {
    if (m == meta.size() || meta[m].subject != meta[start].subject) {
      stats::fisher_zscore_block(features.row(start), m - start,
                                 features.cols(), features.ld());
      start = m;
    }
  }
}

}  // namespace

double OfflineResult::mean_test_accuracy() const {
  if (folds.empty()) return 0.0;
  double sum = 0.0;
  for (const FoldResult& f : folds) sum += f.test_accuracy;
  return sum / static_cast<double>(folds.size());
}

std::vector<std::uint32_t> OfflineResult::reliable_voxels(
    std::size_t min_folds, std::size_t total_voxels) const {
  std::vector<std::size_t> counts(total_voxels, 0);
  for (const FoldResult& f : folds) {
    for (const std::uint32_t v : f.selected) ++counts[v];
  }
  std::vector<std::uint32_t> out;
  for (std::size_t v = 0; v < total_voxels; ++v) {
    if (counts[v] >= min_folds) out.push_back(static_cast<std::uint32_t>(v));
  }
  return out;
}

linalg::Matrix selected_correlation_features(
    EpochSource& epochs, std::span<const std::uint32_t> selected) {
  const std::size_t k = selected.size();
  FCMA_CHECK(k >= 2, "need at least two selected voxels");
  const std::vector<fmri::Epoch>& meta = epochs.meta();
  const std::size_t m = meta.size();
  const std::size_t dim = k * (k - 1) / 2;
  linalg::Matrix features(m, dim);
  // Per subject run: lease the rows [lo, hi) spanning the selected voxels
  // once (the lease rejects a voxel past the brain).  Per epoch: gather the
  // k selected rows into a packed k x T panel and let the blocked syrk
  // produce the k x k Gram matrix; its strict upper triangle, read
  // row-major, is exactly the (i, j>i) pair ordering of the feature vector.
  // Entries are already Pearson r's (eq. 2/3 normalization).
  const auto [min_it, max_it] =
      std::minmax_element(selected.begin(), selected.end());
  const std::size_t lo = *min_it;
  const std::size_t hi = std::size_t{*max_it} + 1;
  const auto t_len = static_cast<std::size_t>(meta.front().length);
  auto& workspace = Workspace::local();
  auto packed = workspace.acquire(k * t_len);
  auto gram = workspace.acquire(k * k);
  std::size_t first = 0;
  for (std::size_t last = 1; last <= m; ++last) {
    if (last < m && meta[last].subject == meta[first].subject) continue;
    const auto lease = epochs.acquire_rows(first, last, lo, hi);
    for (std::size_t e = first; e < last; ++e) {
      const linalg::ConstMatrixView act = lease.epoch(e);
      for (std::size_t i = 0; i < k; ++i) {
        std::memcpy(packed.data() + i * t_len, act.row(selected[i] - lo),
                    t_len * sizeof(float));
      }
      linalg::opt::syrk(
          linalg::ConstMatrixView{packed.data(), k, t_len, t_len},
          linalg::MatrixView{gram.data(), k, k, k});
      float* row = features.row(e);
      std::size_t f = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const float* gram_row = gram.data() + i * k;
        for (std::size_t j = i + 1; j < k; ++j) row[f++] = gram_row[j];
      }
    }
    first = last;
  }
  return features;
}

linalg::Matrix selected_correlation_features(
    const fmri::NormalizedEpochs& epochs,
    std::span<const std::uint32_t> selected) {
  ResidentEpochs source(epochs);
  return selected_correlation_features(source, selected);
}

double train_and_test_classifier(const linalg::Matrix& features,
                                 const std::vector<fmri::Epoch>& meta,
                                 std::span<const std::size_t> train_idx,
                                 std::span<const std::size_t> test_idx,
                                 const svm::TrainOptions& options) {
  FCMA_CHECK(features.rows() == meta.size(), "feature/epoch mismatch");
  // Gram matrix over all epochs: K = F F^T via the optimized syrk.
  linalg::Matrix gram(features.rows(), features.rows());
  linalg::opt::syrk(features.view(), gram.view());
  std::vector<std::int8_t> labels(meta.size());
  for (std::size_t e = 0; e < meta.size(); ++e) {
    labels[e] = meta[e].label == 1 ? std::int8_t{1} : std::int8_t{-1};
  }
  const svm::Model model = svm::phisvm_train(gram.view(), labels, train_idx,
                                             options);
  std::size_t correct = 0;
  for (const std::size_t t : test_idx) {
    const double f = svm::decision_value(model, gram.view(), t, train_idx);
    const std::int8_t predicted = f >= 0.0 ? 1 : -1;
    correct += (predicted == labels[t]);
  }
  return test_idx.empty()
             ? 0.0
             : static_cast<double>(correct) /
                   static_cast<double>(test_idx.size());
}

OfflineResult run_offline_analysis(const fmri::DatasetView& dataset,
                                   const OfflineOptions& options) {
  OfflineResult result;
  const std::size_t v_total = dataset.voxels();
  const bool streamed = options.memory_budget_bytes > 0;
  threading::ThreadPool* pool = options.pipeline.pool;

  std::size_t per_task = options.voxels_per_task;
  std::optional<BudgetPlan> plan;
  if (streamed) {
    plan = plan_residency(
        dataset.epochs().size(), dataset.epochs_per_subject(), v_total,
        static_cast<std::size_t>(dataset.epochs().front().length),
        options.memory_budget_bytes);
    if (per_task == 0) {
      // Concurrent tasks each hold their own correlation buffer, so the
      // plan's correlation allowance is split across the pool lanes.
      const std::size_t lanes = pool != nullptr ? pool->size() : 1;
      per_task = std::max<std::size_t>(1, plan->group_voxels / lanes);
    }
  } else if (per_task == 0) {
    per_task = v_total;
  }
  const std::vector<VoxelTask> tasks = partition_voxels(v_total, per_task);

  // All-epoch panels feed the final per-fold classifier but do not depend
  // on the fold, so one source (materialized epochs, or a budget-counted
  // streamed source) serves every fold.
  std::optional<fmri::NormalizedEpochs> all;
  std::optional<StreamedEpochs> all_streamed;
  if (streamed) {
    all_streamed.emplace(dataset,
                         StreamedEpochs::Options{plan->panel_cache_bytes});
  } else {
    all = fmri::normalize_epochs(dataset);
  }
  const std::vector<fmri::Epoch>& all_meta =
      streamed ? all_streamed->meta() : all->meta;

  for (std::int32_t fold = 0; fold < dataset.subjects(); ++fold) {
    const trace::Span fold_span("offline_fold");
    trace::count("offline/folds");
    // Training epochs: everything not belonging to the held-out subject.
    std::vector<std::size_t> train_epochs;
    for (std::size_t e = 0; e < dataset.epochs().size(); ++e) {
      if (dataset.epochs()[e].subject != fold) train_epochs.push_back(e);
    }

    // Voxel selection: full FCMA over the training subjects.  Tasks run
    // through the configured pool; results come back in task order, so the
    // scoreboard fills identically at any thread count.
    Scoreboard board(v_total);
    std::vector<TaskResult> fold_results;
    if (streamed) {
      StreamedEpochs training(
          dataset, train_epochs,
          StreamedEpochs::Options{plan->panel_cache_bytes});
      fold_results = run_tasks(training, tasks, options.pipeline);
    } else {
      const fmri::NormalizedEpochs training =
          fmri::normalize_epochs(dataset, train_epochs);
      fold_results = run_tasks(training, tasks, options.pipeline);
    }
    for (const TaskResult& tr : fold_results) board.add(tr);
    FoldResult fr;
    fr.left_out_subject = fold;
    fr.selected = board.top_voxels(options.top_k);
    double acc_sum = 0.0;
    for (const std::uint32_t v : fr.selected) acc_sum += board.accuracy_of(v);
    fr.mean_selected_cv_accuracy =
        fr.selected.empty()
            ? 0.0
            : acc_sum / static_cast<double>(fr.selected.size());

    // Final classifier: selected-voxel correlation patterns over *all*
    // epochs; train on the training subjects, test on the held-out one.
    linalg::Matrix features =
        streamed ? selected_correlation_features(*all_streamed, fr.selected)
                 : selected_correlation_features(*all, fr.selected);
    zscore_features_within_subject(features, all_meta);
    std::vector<std::size_t> train_idx;
    std::vector<std::size_t> test_idx;
    for (std::size_t e = 0; e < all_meta.size(); ++e) {
      (all_meta[e].subject == fold ? test_idx : train_idx).push_back(e);
    }
    fr.test_accuracy = train_and_test_classifier(
        features, all_meta, train_idx, test_idx,
        options.pipeline.svm_options);
    result.folds.push_back(std::move(fr));
  }
  return result;
}

OfflineResult run_offline_analysis(const fmri::Dataset& dataset,
                                   const OfflineOptions& options) {
  return run_offline_analysis(fmri::InMemoryView(dataset), options);
}

}  // namespace fcma::core
