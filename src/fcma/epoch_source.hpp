// Normalized-epoch access for the pipeline stages, resident or streamed.
//
// Stage 1 consumes eq.2-normalized [voxels x epoch_length] panels.  An
// EpochSource hands out voxel rows of them behind RAII row leases, so the
// pipeline never needs every panel live at once:
//
//   * acquire_rows(first, last, r0, r1) pins voxel rows [r0, r1) of the
//     panels of an epoch range — the column sweep of the merged stages 1+2
//     (pipeline.hpp) leases each brain block's rows once per subject run,
//     and the task's own rows once per task; offline's selected-voxel
//     features lease the rows spanning the selected voxels once per
//     subject run;
//   * acquire(first, last) is the same lease over all rows [0, N) (the
//     baseline and separated stages, which sweep every column of one epoch
//     at a time).  The default acquire_rows narrows it, so wrappers that
//     only forward acquire() keep working.
//
// Two backends:
//
//   * ResidentEpochs — zero-cost adapter over fmri::NormalizedEpochs (the
//     classic fully-resident path; a lease is a bundle of pointer views).
//   * StreamedEpochs — loads from any fmri::DatasetView (in-memory or
//     mmap'd shard store) and normalizes with the shared
//     normalize_epoch_panel kernel.  A lease loads only its rows into a
//     buffer of its own, mapping each subject's shard once for the lease.
//     Row buffers count against a byte budget: a released one is kept as a
//     spare for the next lease while it fits.
//
// Both backends produce bit-identical rows; the repo's standing EXPECT_EQ
// contract (streamed == resident == serial == pooled) holds because
// normalization runs row by row through one shared kernel and gemm
// consumes the same float bits either way.
//
// Observability: StreamedEpochs seeds the io/shard_loads and
// io/bytes_mapped trace counters, which ShardStoreView feeds.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/aligned.hpp"
#include "fmri/dataset.hpp"
#include "fmri/dataset_view.hpp"
#include "linalg/matrix.hpp"
#include "threading/thread_pool.hpp"

namespace fcma::core {

/// Hands out pinned normalized epoch rows for ranges of epoch indices.
class EpochSource {
 public:
  /// RAII pin on voxel rows [r0, r1) of the panels of one epoch range.
  /// `epoch(m)` takes the absolute epoch index (into meta()) and views
  /// those rows of epoch m: (r1 - r0) x length, bit-identical to the same
  /// rows of the whole panel.
  class RowLease {
   public:
    [[nodiscard]] linalg::ConstMatrixView epoch(std::size_t m) const {
      return rows_[m - first_];
    }

   private:
    friend class EpochSource;
    friend class ResidentEpochs;
    friend class StreamedEpochs;
    std::size_t first_ = 0;
    std::vector<linalg::ConstMatrixView> rows_;
    /// What the rows view when the source does not own them for the
    /// lease's lifetime: the rows loaded for it, or a wider lease.
    std::shared_ptr<const void> pin_;
  };
  /// Kept for bench_fcma's TracedEpochs; ROADMAP item 1 deletes it.
  using Lease = RowLease;

  virtual ~EpochSource() = default;

  /// Epoch metadata, subject-major (always resident).
  [[nodiscard]] virtual const std::vector<fmri::Epoch>& meta() const = 0;
  /// Brain voxels per panel row.
  [[nodiscard]] virtual std::size_t voxels() const = 0;

  /// Pins every voxel row [0, voxels()) of the normalized panels of
  /// [first, last).  Throws fcma::Error when the range is out of bounds.
  /// Thread-safe.
  [[nodiscard]] virtual RowLease acquire(std::size_t first,
                                         std::size_t last) = 0;

  /// Pins voxel rows [r0, r1) of the normalized panels of [first, last).
  /// The default narrows acquire(); backends may load only the rows.
  /// Throws fcma::Error when a range is out of bounds.  Thread-safe.
  [[nodiscard]] virtual RowLease acquire_rows(std::size_t first,
                                              std::size_t last,
                                              std::size_t r0, std::size_t r1);

  /// No-op kept for bench_fcma's TracedEpochs; ROADMAP item 1 deletes it.
  virtual void prefetch(std::size_t first, std::size_t last) {
    (void)first;
    (void)last;
  }
};

/// Fully-resident backend over fmri::NormalizedEpochs (not owned).
class ResidentEpochs final : public EpochSource {
 public:
  explicit ResidentEpochs(const fmri::NormalizedEpochs& epochs)
      : epochs_(&epochs) {}

  [[nodiscard]] const std::vector<fmri::Epoch>& meta() const override {
    return epochs_->meta;
  }
  [[nodiscard]] std::size_t voxels() const override {
    return epochs_->per_epoch.empty() ? 0 : epochs_->per_epoch.front().rows();
  }
  [[nodiscard]] RowLease acquire(std::size_t first, std::size_t last) override;

 private:
  const fmri::NormalizedEpochs* epochs_;
};

/// Budget-counted streaming backend over a DatasetView (not owned).
class StreamedEpochs final : public EpochSource {
 public:
  struct Options {
    /// Row-buffer budget in bytes; 0 means unbounded (keep every spare).
    std::size_t budget_bytes = 0;
    /// Ignored; kept for bench_fcma, and ROADMAP item 1 deletes it.
    threading::ThreadPool* pool = nullptr;
  };

  /// Streams the epochs of `view` selected by `epoch_indices` (all epochs
  /// with the two-argument constructor), in the given order.
  StreamedEpochs(const fmri::DatasetView& view,
                 std::vector<std::size_t> epoch_indices, Options options);
  StreamedEpochs(const fmri::DatasetView& view, Options options);

  [[nodiscard]] const std::vector<fmri::Epoch>& meta() const override {
    return meta_;
  }
  [[nodiscard]] std::size_t voxels() const override { return voxels_; }
  /// acquire_rows(first, last, 0, voxels()).
  [[nodiscard]] RowLease acquire(std::size_t first, std::size_t last) override;
  /// Loads only rows [r0, r1) of each epoch, holding one mapping of each
  /// subject's shard for the whole range.
  [[nodiscard]] RowLease acquire_rows(std::size_t first, std::size_t last,
                                      std::size_t r0,
                                      std::size_t r1) override;

  /// Bytes of every row buffer held, leased or spare, for tests and the
  /// oocore bench.  It stays within the budget unless leased rows alone
  /// exceed it.
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  /// A lease's buffer: the smallest spare that fits, or a new one counted
  /// against the budget, kept as a spare again when the lease drops it.
  /// Row buffers are recycled, so a sweep allocates a few, not one per
  /// lease.
  struct Rows;

  /// Frees spare row buffers until within budget (after leased rows pushed
  /// the total past it).  Runs with mu_ held.
  void evict_locked();

  const fmri::DatasetView* view_;
  std::vector<std::size_t> indices_;  ///< into view_->epochs()
  std::vector<fmri::Epoch> meta_;
  std::size_t voxels_ = 0;
  Options options_;

  mutable std::mutex mu_;
  std::size_t bytes_ = 0;  ///< every row buffer, leased or spare
  std::vector<AlignedBuffer<float>> spare_rows_;  ///< released row buffers
};

}  // namespace fcma::core
