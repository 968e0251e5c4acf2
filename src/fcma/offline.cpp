#include "fcma/offline.hpp"

#include <algorithm>
#include <cstring>

#include "common/aligned.hpp"
#include "common/trace.hpp"
#include "linalg/opt.hpp"
#include "stats/normalization.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

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
  AlignedBuffer<float> packed(k * t_len);
  AlignedBuffer<float> gram(k * k);
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
  const std::vector<fmri::Epoch>& all_meta = dataset.epochs();
  for (std::int32_t fold = 0; fold < dataset.subjects(); ++fold) {
    const trace::Span fold_span("offline_fold");
    trace::count("offline/folds");
    // Training epochs: everything not belonging to the held-out subject.
    std::vector<std::size_t> train_epochs;
    for (std::size_t e = 0; e < all_meta.size(); ++e) {
      if (all_meta[e].subject != fold) train_epochs.push_back(e);
    }

    // Voxel selection: full FCMA over the training subjects.  Results come
    // back in task order, so the scoreboard fills identically at any thread
    // count.  The training epochs are released before the final
    // classifier's open, so one budget-sized source is alive at a time.
    const Scoreboard board = [&] {
      EpochRun training =
          open_epoch_run(dataset, std::move(train_epochs),
                         options.memory_budget_bytes, options.voxels_per_task);
      return score_epoch_run(training, options.pipeline);
    }();
#if defined(__GLIBC__)
    // glibc keeps freed heap below its trim threshold resident, and that
    // threshold rises with every large buffer freed; hand the training
    // run's buffers back before the all-epoch source opens (EXPERIMENTS.md).
    if (options.memory_budget_bytes != 0) malloc_trim(0);
#endif
    FoldResult fr;
    fr.left_out_subject = fold;
    fr.selected = board.top_voxels(options.top_k);
    fr.mean_selected_cv_accuracy = board.mean_accuracy_of(fr.selected);

    // Final classifier: selected-voxel correlation patterns over *all*
    // epochs; train on the training subjects, test on the held-out one.
    linalg::Matrix features = selected_correlation_features(
        *open_epoch_run(dataset, options.memory_budget_bytes).epochs,
        fr.selected);
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
