#include "fcma/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "fcma/offline.hpp"
#include "fcma/online.hpp"
#include "fcma/pipeline.hpp"
#include "fcma/scoreboard.hpp"
#include "linalg/opt.hpp"
#include "linalg/simd.hpp"
#include "stats/stats.hpp"
#include "svm/cross_validation.hpp"

namespace fcma::core {

StreamingAnalyzer::StreamingAnalyzer(const Options& options)
    : options_(options) {
  FCMA_CHECK(options.voxels >= 8, "need at least 8 voxels");
  FCMA_CHECK(options.epoch_length >= 3, "epochs need >= 3 TRs");
  FCMA_CHECK(options.top_k >= 2, "need at least 2 selected voxels");
  pending_data_.reserve(options.epoch_length * options.voxels);
}

void StreamingAnalyzer::push_volume(std::span<const float> volume) {
  FCMA_CHECK(volume.size() == options_.voxels, "volume size mismatch");
  FCMA_CHECK(pending_ < options_.epoch_length,
             "epoch already complete; commit or discard first");
  pending_data_.insert(pending_data_.end(), volume.begin(), volume.end());
  ++pending_;
}

void StreamingAnalyzer::commit_epoch(std::int32_t label) {
  FCMA_CHECK(label == 0 || label == 1, "label must be 0 or 1");
  FCMA_CHECK(pending_ == options_.epoch_length,
             "epoch incomplete: push epoch_length volumes first");
  FCMA_CHECK(epoch_labels_.size() < options_.max_epochs,
             "epoch buffer full");
  // Transpose the push-order pending block into [voxel][time] and append.
  committed_.resize(committed_.size() +
                    options_.voxels * options_.epoch_length);
  const std::size_t new_t = committed_t_ + options_.epoch_length;
  // committed_ is stored epoch-major: epoch e occupies the slab
  // [e * voxels * epoch_length, ...), row-major [voxel][tr-within-epoch].
  float* slab = committed_.data() +
                epoch_labels_.size() * options_.voxels *
                    options_.epoch_length;
  for (std::size_t t = 0; t < options_.epoch_length; ++t) {
    const float* vol = pending_data_.data() + t * options_.voxels;
    for (std::size_t v = 0; v < options_.voxels; ++v) {
      slab[v * options_.epoch_length + t] = vol[v];
    }
  }
  committed_t_ = new_t;
  epoch_labels_.push_back(label);
  discard_pending();
}

void StreamingAnalyzer::discard_pending() {
  pending_data_.clear();
  pending_ = 0;
}

fmri::Dataset StreamingAnalyzer::snapshot_dataset() const {
  const std::size_t m = epoch_labels_.size();
  const std::size_t len = options_.epoch_length;
  linalg::Matrix data(options_.voxels, m * len);
  std::vector<fmri::Epoch> epochs;
  epochs.reserve(m);
  for (std::size_t e = 0; e < m; ++e) {
    const float* slab = committed_.data() + e * options_.voxels * len;
    for (std::size_t v = 0; v < options_.voxels; ++v) {
      std::copy(slab + v * len, slab + (v + 1) * len,
                data.row(v) + e * len);
    }
    epochs.push_back(fmri::Epoch{
        .subject = 0,
        .label = epoch_labels_[e],
        .start = static_cast<std::uint32_t>(e * len),
        .length = static_cast<std::uint32_t>(len)});
  }
  return fmri::Dataset("stream", std::move(data), std::move(epochs), 1);
}

void StreamingAnalyzer::train() {
  const std::size_t m = epoch_labels_.size();
  FCMA_CHECK(m >= 2 * options_.k_folds,
             "not enough epochs buffered to cross-validate");
  const std::size_t ones = static_cast<std::size_t>(
      std::count(epoch_labels_.begin(), epoch_labels_.end(), 1));
  FCMA_CHECK(ones > 0 && ones < m, "both conditions must be present");

  const fmri::Dataset data = snapshot_dataset();
  // The buffered localizer is inherently resident, but it opens through the
  // same run opener (and the same normalization kernel) as every other
  // protocol, so its tasks follow the one sizing rule.
  const fmri::InMemoryView view(data);
  EpochRun run = open_epoch_run(view, 0, options_.voxels_per_task);
  const auto folds = kfold_groups(m, options_.k_folds);

  // Voxel selection over the buffered localizer.  Task results feed the
  // scoreboard in task order and each voxel owns its slot, so the selection
  // is identical at any pool size and grain.
  PipelineConfig pipeline = PipelineConfig::optimized();
  pipeline.svm_options = options_.svm_options;
  pipeline.cv_folds = &folds;
  pipeline.pool = options_.pool;
  selected_ = score_epoch_run(run, pipeline).top_voxels(options_.top_k);

  // Feedback classifier on the selected voxels' correlation features, with
  // the normalization statistics frozen from the training data so
  // classify_pending() transforms incoming epochs consistently.
  train_features_ = selected_correlation_features(*run.epochs, selected_);
  const std::size_t dim = train_features_.cols();
  feature_mean_.assign(dim, 0.0f);
  feature_inv_sd_.assign(dim, 0.0f);
  for (std::size_t e = 0; e < m; ++e) {
    float* row = train_features_.row(e);
    stats::fisher_z({row, dim});
    for (std::size_t d = 0; d < dim; ++d) feature_mean_[d] += row[d];
  }
  for (std::size_t d = 0; d < dim; ++d) {
    feature_mean_[d] /= static_cast<float>(m);
  }
  for (std::size_t d = 0; d < dim; ++d) {
    double var = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      const double diff = train_features_(e, d) - feature_mean_[d];
      var += diff * diff;
    }
    var /= static_cast<double>(m);
    feature_inv_sd_[d] =
        var > 0.0 ? static_cast<float>(1.0 / std::sqrt(var)) : 0.0f;
  }
  for (std::size_t e = 0; e < m; ++e) {
    float* row = train_features_.row(e);
    for (std::size_t d = 0; d < dim; ++d) {
      row[d] = (row[d] - feature_mean_[d]) * feature_inv_sd_[d];
    }
  }

  // One linear-kernel Gram matrix of the frozen features serves the CV
  // accuracy estimate and the final model on every epoch.
  linalg::Matrix gram(m, m);
  linalg::opt::syrk(train_features_.view(), gram.view());
  const std::vector<std::int8_t> labels = epoch_labels(data.epochs());
  training_cv_accuracy_ =
      svm::cross_validate(svm::SolverKind::kPhiSvm, gram.view(), labels,
                          folds, options_.svm_options)
          .accuracy();
  std::vector<std::size_t> all(m);
  std::iota(all.begin(), all.end(), 0);
  model_ = svm::phisvm_train(gram.view(), labels, all,
                             options_.svm_options);
}

const std::vector<std::uint32_t>& StreamingAnalyzer::selected_voxels()
    const {
  FCMA_CHECK(trained(), "call train() first");
  return selected_;
}

Feedback StreamingAnalyzer::classify_pending() const {
  FCMA_CHECK(trained(), "call train() first");
  FCMA_CHECK(pending_ == options_.epoch_length,
             "epoch incomplete: push epoch_length volumes first");
  const std::size_t k = selected_.size();
  const std::size_t len = options_.epoch_length;

  // Extract + eq.2-normalize the selected voxels' pending time series.
  linalg::Matrix act(k, len);
  for (std::size_t s = 0; s < k; ++s) {
    for (std::size_t t = 0; t < len; ++t) {
      act(s, t) = pending_data_[t * options_.voxels + selected_[s]];
    }
  }
  linalg::simd::kernels().epoch_zscore(act.data(), act.ld(), act.data(),
                                       act.ld(), k, len);

  // Feature row: fisher(r) standardized by the frozen training stats.
  std::vector<float> feature(k * (k - 1) / 2);
  std::size_t d = 0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      float r = 0.0f;
      for (std::size_t t = 0; t < len; ++t) r += act(i, t) * act(j, t);
      feature[d++] = r;
    }
  }
  stats::fisher_z(feature);
  for (d = 0; d < feature.size(); ++d) {
    feature[d] = (feature[d] - feature_mean_[d]) * feature_inv_sd_[d];
  }

  // Decision value against the trained model.
  double decision = -model_->rho;
  for (std::size_t e = 0; e < train_features_.rows(); ++e) {
    double dot = 0.0;
    const float* row = train_features_.row(e);
    for (std::size_t x = 0; x < feature.size(); ++x) {
      dot += static_cast<double>(feature[x]) * row[x];
    }
    decision += model_->alpha_y[e] * dot;
  }
  return Feedback{decision >= 0.0 ? 1 : 0, decision};
}

}  // namespace fcma::core
