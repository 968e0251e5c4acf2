// Emulated online (closed-loop) analysis: single-subject voxel selection
// (paper §5.2.2).
//
// In the closed-loop scenario the classifier must be built from the data of
// the subject currently in the scanner: voxel selection runs FCMA on that
// subject's epochs alone (k-fold CV over epochs instead of the nested
// cross-subject protocol), and the selected voxels' correlation patterns
// train the real-time feedback classifier.
#pragma once

#include <cstdint>
#include <vector>

#include "fcma/pipeline.hpp"
#include "fmri/dataset.hpp"
#include "fmri/dataset_view.hpp"
#include "svm/types.hpp"

namespace fcma::core {

/// Options of the online protocol.
struct OnlineOptions {
  std::size_t top_k = 64;          ///< voxels selected for the classifier
  std::size_t k_folds = 4;         ///< CV folds over the subject's epochs
  /// Voxels per task; same semantics as OfflineOptions::voxels_per_task.
  std::size_t voxels_per_task = 0;
  /// Peak-memory budget in bytes; 0 = resident.  Same semantics as
  /// OfflineOptions::memory_budget_bytes, scaled to one subject's epochs.
  std::size_t memory_budget_bytes = 0;
  PipelineConfig pipeline;
};

/// Outcome of an online selection run.
struct OnlineResult {
  std::vector<std::uint32_t> selected;  ///< classifier voxels, ascending
  double mean_selected_cv_accuracy = 0.0;
  /// k-fold CV accuracy of the final classifier on the selected voxels'
  /// correlation features — the estimate available before feedback starts.
  double classifier_cv_accuracy = 0.0;
};

/// Runs online voxel selection + classifier construction for one subject.
/// The DatasetView form is primary (rows stream under a budget when one is
/// set); the Dataset overload wraps a borrowing InMemoryView.
[[nodiscard]] OnlineResult run_online_selection(
    const fmri::DatasetView& dataset, std::int32_t subject,
    const OnlineOptions& options);
[[nodiscard]] OnlineResult run_online_selection(const fmri::Dataset& dataset,
                                                std::int32_t subject,
                                                const OnlineOptions& options);

/// Builds interleaved k-fold test groups over `n` samples (fold f gets
/// samples f, f+k, f+2k, ... so both labels appear in every fold for
/// alternating-label datasets).
[[nodiscard]] std::vector<std::vector<std::size_t>> kfold_groups(
    std::size_t n, std::size_t k);

}  // namespace fcma::core
