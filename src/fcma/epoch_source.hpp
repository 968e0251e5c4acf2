// Normalized-epoch access for the pipeline stages, resident or streamed.
//
// Stage 1 consumes eq.2-normalized [voxels x epoch_length] panels.  An
// EpochSource hands them out one epoch range at a time behind an RAII
// lease, so the pipeline no longer dictates that every panel is live at
// once.  Two backends:
//
//   * ResidentEpochs — zero-cost adapter over fmri::NormalizedEpochs (the
//     classic fully-resident path; leases are pointer bundles).
//   * StreamedEpochs — loads panels on demand from any fmri::DatasetView
//     (in-memory or mmap'd shard store), normalizes them with the shared
//     normalize_epoch_panel kernel, caches them under a byte budget with
//     LRU eviction of unpinned panels, and overlaps loads with compute by
//     prefetching upcoming epochs on the scheduler.  A load that would
//     overflow the budget takes over the evicted panel's buffer instead of
//     freeing one and allocating another, so a streamed run allocates the
//     panels that fit at once, never one per load, and no panel memory
//     changes hands between threads' allocator arenas.
//
// Both backends produce bit-identical panels; the repo's standing
// EXPECT_EQ contract (streamed == resident == serial == pooled) holds
// because normalization runs through one shared kernel and gemm consumes
// the same float bits either way.
//
// Observability: StreamedEpochs maintains the io/* trace metrics —
// io/shard_loads and io/bytes_mapped counters (fed by ShardStoreView),
// an io/prefetch_hits counter (acquired panel was already loaded or
// loading thanks to prefetch) and an io/stall_s gauge (cumulative seconds
// acquire() spent waiting on in-flight loads).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "fmri/dataset.hpp"
#include "fmri/dataset_view.hpp"
#include "linalg/matrix.hpp"
#include "threading/thread_pool.hpp"

namespace fcma::core {

/// Hands out pinned normalized epoch panels for ranges of epoch indices.
class EpochSource {
 public:
  /// RAII pin on the panels of one acquired range.  `epoch(m)` takes the
  /// *absolute* epoch index (into meta()), like per_epoch[m] used to.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept
        : first_(o.first_),
          panels_(std::move(o.panels_)),
          release_(std::exchange(o.release_, nullptr)) {}
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        if (release_) release_();
        first_ = o.first_;
        panels_ = std::move(o.panels_);
        release_ = std::exchange(o.release_, nullptr);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (release_) release_();
    }

    [[nodiscard]] const linalg::Matrix& epoch(std::size_t m) const {
      return *panels_[m - first_];
    }

   private:
    friend class ResidentEpochs;
    friend class StreamedEpochs;
    std::size_t first_ = 0;
    std::vector<const linalg::Matrix*> panels_;
    std::function<void()> release_;
  };

  virtual ~EpochSource() = default;

  /// Epoch metadata, subject-major (always resident).
  [[nodiscard]] virtual const std::vector<fmri::Epoch>& meta() const = 0;
  /// Brain voxels per panel row.
  [[nodiscard]] virtual std::size_t voxels() const = 0;

  /// Pins (loading if needed) the normalized panels of [first, last).
  /// Blocks until every panel in the range is resident.  Thread-safe.
  [[nodiscard]] virtual Lease acquire(std::size_t first, std::size_t last) = 0;

  /// Hints that [first, last) is needed soon; backends may start loads in
  /// the background (never blocks).  The default is a no-op.
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
  [[nodiscard]] Lease acquire(std::size_t first, std::size_t last) override;

 private:
  const fmri::NormalizedEpochs* epochs_;
};

/// Budget-bounded streaming backend over a DatasetView (not owned).
class StreamedEpochs final : public EpochSource {
 public:
  struct Options {
    /// Panel-cache budget in bytes; 0 means unbounded (cache everything).
    std::size_t budget_bytes = 0;
    /// Scheduler for background prefetch loads; nullptr disables overlap
    /// (prefetch() becomes a no-op and acquire() loads synchronously).
    threading::ThreadPool* pool = nullptr;
  };

  /// Streams the epochs of `view` selected by `epoch_indices` (all epochs
  /// with the two-argument constructor), in the given order.
  StreamedEpochs(const fmri::DatasetView& view,
                 std::vector<std::size_t> epoch_indices, Options options);
  StreamedEpochs(const fmri::DatasetView& view, Options options);
  ~StreamedEpochs() override;

  [[nodiscard]] const std::vector<fmri::Epoch>& meta() const override {
    return meta_;
  }
  [[nodiscard]] std::size_t voxels() const override { return voxels_; }
  [[nodiscard]] Lease acquire(std::size_t first, std::size_t last) override;
  void prefetch(std::size_t first, std::size_t last) override;

  /// Cache introspection for tests and the oocore bench.  resident_bytes()
  /// counts every panel buffer the cache holds, loaded or loading; it stays
  /// within the budget unless pinned panels alone exceed it.
  /// panel_allocations() counts the panel buffers ever allocated.
  [[nodiscard]] std::size_t resident_panels() const;
  [[nodiscard]] std::size_t resident_bytes() const;
  [[nodiscard]] std::size_t panel_allocations() const;
  [[nodiscard]] std::size_t budget_bytes() const {
    return options_.budget_bytes;
  }

 private:
  struct Slot {
    enum class State : unsigned char { kEmpty, kLoading, kReady };
    State state = State::kEmpty;
    bool prefetch_queued = false;  ///< submitted to the pool, not started
    bool prefetched = false;       ///< load initiated by prefetch()
    std::size_t refs = 0;
    std::uint64_t last_use = 0;
    linalg::Matrix panel;
  };

  /// Loads slot `m` (caller already transitioned it to kLoading and
  /// claimed `panel` for it), then publishes it ready.  Runs without the
  /// mutex during allocation, I/O and normalize.
  void fill_slot(std::size_t m, linalg::Matrix panel);
  void prefetch_task(std::size_t m);
  void release_range(std::size_t first, std::size_t last);
  /// The following helpers run with mu_ held.
  /// Least recently used ready, unpinned slot (slots_.size() if none).
  [[nodiscard]] std::size_t lru_unpinned_locked() const;
  /// Empties slot `victim` and hands back its panel buffer.
  [[nodiscard]] linalg::Matrix take_panel_locked(std::size_t victim);
  /// True when a fresh panel for slot `m` fits the budget.
  [[nodiscard]] bool fits_locked(std::size_t m) const;
  /// Frees LRU unpinned panels until within budget (after pinned panels
  /// pushed the cache past it).
  void evict_locked();
  /// Reserves slot `m`'s buffer in the budget.  While a fresh panel would
  /// overflow it, evicts the LRU unpinned panel and returns its buffer when
  /// the shapes match; otherwise returns an empty matrix and the caller
  /// allocates outside the lock.
  [[nodiscard]] linalg::Matrix claim_buffer_locked(std::size_t m);
  [[nodiscard]] std::size_t estimated_panel_bytes(std::size_t m) const;

  const fmri::DatasetView* view_;
  std::vector<std::size_t> indices_;  ///< into view_->epochs()
  std::vector<fmri::Epoch> meta_;
  std::size_t voxels_ = 0;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  std::size_t bytes_ = 0;         ///< every panel buffer held, incl. loading
  std::size_t allocations_ = 0;   ///< panel buffers ever allocated
  std::uint64_t tick_ = 0;
  std::size_t inflight_ = 0;  ///< submitted prefetch tasks not yet done
  bool shutdown_ = false;
  double stall_s_ = 0.0;
};

}  // namespace fcma::core
