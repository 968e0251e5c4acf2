// Offline analysis: nested leave-one-subject-out cross-validation (paper
// §5.2.1).
//
// For each outer fold, one subject is held out; FCMA voxel selection runs on
// the remaining n-1 subjects (itself an inner leave-one-subject-out per
// voxel), the top-k voxels are selected, and a final classifier trained on
// the training subjects' selected-voxel correlation patterns is tested on
// the held-out subject.  Voxels selected consistently across folds are the
// "reliable" ROIs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fcma/pipeline.hpp"
#include "fcma/scoreboard.hpp"
#include "fmri/dataset.hpp"
#include "fmri/dataset_view.hpp"

namespace fcma::core {

/// Options of the offline protocol.
struct OfflineOptions {
  std::size_t top_k = 64;          ///< voxels selected per fold
  /// Voxels per task, sized by open_epoch_run: 0 = the whole brain in one
  /// task swept under kInFlightVoxels, or the budget plan's grain.  A budget
  /// caps it at that grain.
  std::size_t voxels_per_task = 0;
  /// Peak-memory budget in bytes.  0 = resident: each fold's normalized
  /// epochs are materialized.  Non-zero = streamed: rows are leased from the
  /// DatasetView through a budget-counted StreamedEpochs, and plan-sized
  /// tasks run one at a time with the pool inside each (open_epoch_run), so
  /// the run never needs the full dataset in memory.  Results are
  /// bit-identical either way.
  std::size_t memory_budget_bytes = 0;
  PipelineConfig pipeline;
};

/// Result of one outer fold.
struct FoldResult {
  std::int32_t left_out_subject = 0;
  std::vector<std::uint32_t> selected;  ///< top-k voxels, ascending
  double test_accuracy = 0.0;           ///< final classifier on held-out
  double mean_selected_cv_accuracy = 0.0;
};

/// Result of the whole offline analysis.
struct OfflineResult {
  std::vector<FoldResult> folds;

  [[nodiscard]] double mean_test_accuracy() const;

  /// Voxels selected in at least `min_folds` outer folds.
  [[nodiscard]] std::vector<std::uint32_t> reliable_voxels(
      std::size_t min_folds, std::size_t total_voxels) const;
};

/// Runs the full nested LOSO analysis.  The DatasetView form is primary:
/// with a memory budget set, epoch rows stream through budget-counted row
/// leases instead of being materialized per fold.  Each fold opens its
/// training epochs for selection, releases them, then opens every epoch for
/// the final classifier.  The Dataset overload wraps a borrowing
/// InMemoryView.
[[nodiscard]] OfflineResult run_offline_analysis(
    const fmri::DatasetView& dataset, const OfflineOptions& options);
[[nodiscard]] OfflineResult run_offline_analysis(const fmri::Dataset& dataset,
                                                 const OfflineOptions& options);

/// Builds per-epoch feature vectors over the correlations among `selected`
/// voxels: row e = upper triangle (i<j) of the selected-voxel correlation
/// matrix in epoch e, Fisher-transformed and z-scored within subject.
/// Shared by the offline final classifier and the online protocol.  The
/// EpochSource form leases the rows spanning the selected voxels once per
/// subject run, and throws fcma::Error when a selected voxel is not in the
/// brain; the NormalizedEpochs overload wraps ResidentEpochs and is
/// bit-identical.
[[nodiscard]] linalg::Matrix selected_correlation_features(
    EpochSource& epochs, std::span<const std::uint32_t> selected);
[[nodiscard]] linalg::Matrix selected_correlation_features(
    const fmri::NormalizedEpochs& epochs,
    std::span<const std::uint32_t> selected);

}  // namespace fcma::core
