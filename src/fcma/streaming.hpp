// Streaming closed-loop analyzer (paper Fig 1).
//
// In the deployed system the scanner produces one whole-brain volume per
// TR; FCMA must ingest that stream, accumulate the localizer epochs, run
// voxel selection + classifier training between localizer and feedback
// blocks, and then classify each subsequent epoch within the TR budget.
// StreamingAnalyzer is that state machine:
//
//   push_volume(volume);            // once per TR
//   ... epoch_length pushes ...
//   commit_epoch(label);            // localizer: labeled training epoch
//   ...
//   train(top_k, k_folds);          // between blocks: selection + training
//   ...
//   Feedback f = classify_pending();// feedback: classify the pending epoch
//   commit_epoch(actual_label);     //   (keep it as extra training data)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fmri/dataset.hpp"
#include "linalg/matrix.hpp"
#include "svm/types.hpp"

namespace fcma::threading {
class ThreadPool;
}

namespace fcma::core {

/// Online classification result for one epoch.
struct Feedback {
  std::int32_t label = 0;    ///< predicted condition (0 or 1)
  double decision = 0.0;     ///< signed SVM decision value
};

/// Incremental FCMA engine over a per-TR volume stream.
class StreamingAnalyzer {
 public:
  struct Options {
    std::size_t voxels = 0;         ///< volume size
    std::size_t epoch_length = 0;   ///< TRs per epoch
    std::size_t max_epochs = 1024;  ///< buffer capacity
    std::size_t top_k = 32;         ///< voxels selected by train()
    std::size_t k_folds = 4;        ///< CV folds used during selection
    svm::TrainOptions svm_options;
    /// Pool for train()'s voxel selection, which opens its epochs
    /// through core::open_epoch_run: tasks of `voxels_per_task` voxels
    /// fan out over the pool, or at grain 0 the whole brain is one task
    /// swept under core::kInFlightVoxels with the pool inside it.  Results
    /// are merged in task order, so any pool size (including none) and
    /// grain produce bit-identical selections and accuracy estimates.
    threading::ThreadPool* pool = nullptr;
    std::size_t voxels_per_task = 0;  ///< selection task grain
  };

  explicit StreamingAnalyzer(const Options& options);

  /// Ingests one TR's volume (must have options.voxels elements).
  void push_volume(std::span<const float> volume);

  /// Number of TRs pushed since the last commit/discard.
  [[nodiscard]] std::size_t pending_volumes() const { return pending_; }

  /// Labels the pending epoch (must be exactly epoch_length volumes) and
  /// adds it to the training buffer.
  void commit_epoch(std::int32_t label);

  /// Drops the pending volumes (e.g., motion-corrupted epoch).
  void discard_pending();

  [[nodiscard]] std::size_t epochs_buffered() const {
    return epoch_labels_.size();
  }

  /// Runs FCMA voxel selection over every buffered epoch and trains the
  /// feedback classifier on the selected voxels' correlation patterns.
  /// Requires >= 2 * k_folds buffered epochs with both labels present.
  void train();

  [[nodiscard]] bool trained() const { return model_.has_value(); }

  /// The voxels backing the current classifier (ascending mask indices).
  [[nodiscard]] const std::vector<std::uint32_t>& selected_voxels() const;

  /// Classifies the pending epoch (exactly epoch_length volumes) without
  /// consuming it; requires trained().
  [[nodiscard]] Feedback classify_pending() const;

  /// Cross-validated accuracy estimate recorded by the last train() call.
  [[nodiscard]] double training_cv_accuracy() const {
    return training_cv_accuracy_;
  }

 private:
  [[nodiscard]] fmri::Dataset snapshot_dataset() const;
  void rebuild_classifier(const fmri::Dataset& data);

  Options options_;
  // Committed activity, [voxels x committed TRs], grown epoch by epoch.
  std::vector<float> committed_;      // row-major [voxel][time]
  std::size_t committed_t_ = 0;
  std::vector<std::int32_t> epoch_labels_;
  // Pending (uncommitted) volumes of the current epoch.
  std::vector<float> pending_data_;   // [pending_][voxels], push order
  std::size_t pending_ = 0;

  // Classifier state after train().
  std::vector<std::uint32_t> selected_;
  std::optional<svm::Model> model_;
  linalg::Matrix train_features_;     // [epochs x C(k,2)], normalized
  std::vector<float> feature_mean_;   // frozen training statistics for
  std::vector<float> feature_inv_sd_; //   consistent test-time transforms
  double training_cv_accuracy_ = 0.0;
};

}  // namespace fcma::core
