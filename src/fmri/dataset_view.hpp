// Out-of-core access abstraction over a labeled fMRI dataset.
//
// A DatasetView exposes the epoch metadata (always resident — it is tiny)
// plus on-demand access to the raw [voxels x epoch_length] activity window
// of any single epoch.  Nothing above the fmri layer may assume the full
// [voxels x time] matrix is in memory: consumers ask for one epoch panel at
// a time and drop it when done.  Two backends exist: InMemoryView wraps an
// in-memory Dataset zero-copy (the bit-identical fast path), and
// ShardStoreView (shard_store.hpp) maps subject-sharded on-disk panels.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fmri/dataset.hpp"
#include "linalg/matrix.hpp"

namespace fcma::fmri {

/// Read-only view of a dataset at subject/epoch-panel granularity.
class DatasetView {
 public:
  virtual ~DatasetView() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual std::size_t voxels() const = 0;
  [[nodiscard]] virtual std::size_t timepoints() const = 0;
  [[nodiscard]] virtual std::int32_t subjects() const = 0;
  /// Epoch metadata, subject-major and time-ordered (always resident).
  [[nodiscard]] virtual const std::vector<Epoch>& epochs() const = 0;

  [[nodiscard]] std::size_t epochs_per_subject() const {
    if (subjects() <= 0) return 0;
    return epochs().size() / static_cast<std::size_t>(subjects());
  }

  /// Indices (into epochs()) owned by `subject`, in time order.  A subject
  /// id with no epochs yields an empty vector, never an error.
  [[nodiscard]] std::vector<std::size_t> epochs_of_subject(
      std::int32_t subject) const;

  /// One epoch's raw activity window.  `view` is [voxels x epoch.length];
  /// `keepalive` pins whatever backs it (an mmap'd shard, the Dataset's
  /// matrix) — the view dies when the Panel is dropped.
  struct Panel {
    linalg::ConstMatrixView view{nullptr, 0, 0, 0};
    std::shared_ptr<const void> keepalive;
  };

  /// The raw (unnormalized) activity window of epoch `idx`.
  [[nodiscard]] virtual Panel epoch_panel(std::size_t idx) const = 0;
};

/// Zero-copy adapter over an in-memory Dataset.  Borrows by default; the
/// rvalue constructor takes ownership (CLI helpers hand a loaded Dataset
/// straight to the view without keeping it alive separately).
class InMemoryView final : public DatasetView {
 public:
  explicit InMemoryView(const Dataset& dataset) : dataset_(&dataset) {}
  explicit InMemoryView(Dataset&& dataset)
      : owned_(std::make_unique<Dataset>(std::move(dataset))),
        dataset_(owned_.get()) {}

  [[nodiscard]] const std::string& name() const override {
    return dataset_->name();
  }
  [[nodiscard]] std::size_t voxels() const override {
    return dataset_->voxels();
  }
  [[nodiscard]] std::size_t timepoints() const override {
    return dataset_->timepoints();
  }
  [[nodiscard]] std::int32_t subjects() const override {
    return dataset_->subjects();
  }
  [[nodiscard]] const std::vector<Epoch>& epochs() const override {
    return dataset_->epochs();
  }
  [[nodiscard]] Panel epoch_panel(std::size_t idx) const override;

  [[nodiscard]] const Dataset& dataset() const { return *dataset_; }

 private:
  std::unique_ptr<Dataset> owned_;  // set only for the owning constructor
  const Dataset* dataset_;
};

/// View-based twins of normalize_epochs (dataset.hpp).  The Dataset
/// overloads delegate here through InMemoryView, so every backend runs the
/// same normalize_epoch_panel call and stays bit-identical.
[[nodiscard]] NormalizedEpochs normalize_epochs(const DatasetView& view);
[[nodiscard]] NormalizedEpochs normalize_epochs(
    const DatasetView& view, const std::vector<std::size_t>& epoch_indices);

/// Normalizes rows [first_row, first_row + out.rows) of one epoch panel
/// into `out` ([rows x length], already sized; the whole panel by default).
/// The shared kernel behind normalize_epochs and the streamed loaders — one
/// implementation keeps all paths bit-identical.  It reads the panel's rows
/// in place and writes each normalized row once (the SIMD epoch_zscore
/// entry, one row per lane).  Each row is normalized on its own, so any row
/// range equals the same rows of the whole panel.
void normalize_epoch_panel(const DatasetView::Panel& panel,
                           linalg::MatrixView out, std::size_t first_row = 0);

}  // namespace fcma::fmri
