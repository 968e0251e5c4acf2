#include "fcma/epoch_source.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/trace.hpp"

namespace fcma::core {

EpochSource::RowLease EpochSource::acquire_rows(std::size_t first,
                                                std::size_t last,
                                                std::size_t r0,
                                                std::size_t r1,
                                                threading::ThreadPool*) {
  FCMA_CHECK(r0 <= r1 && r1 <= voxels(), "voxel row range out of bounds");
  auto whole = std::make_shared<RowLease>(acquire(first, last));
  RowLease lease;
  lease.first_ = first;
  lease.rows_.reserve(last - first);
  for (const linalg::ConstMatrixView& panel : whole->rows_) {
    lease.rows_.push_back(linalg::ConstMatrixView{
        panel.row(r0), r1 - r0, panel.cols, panel.ld});
  }
  lease.pin_ = std::move(whole);
  return lease;
}

EpochSource::RowLease ResidentEpochs::acquire(std::size_t first,
                                              std::size_t last) {
  FCMA_CHECK(first <= last && last <= epochs_->per_epoch.size(),
             "epoch range out of bounds");
  RowLease lease;
  lease.first_ = first;
  lease.rows_.reserve(last - first);
  for (std::size_t m = first; m < last; ++m) {
    lease.rows_.push_back(epochs_->per_epoch[m].view());
  }
  return lease;
}

StreamedEpochs::StreamedEpochs(const fmri::DatasetView& view,
                               std::vector<std::size_t> epoch_indices,
                               Options options)
    : view_(&view),
      indices_(std::move(epoch_indices)),
      voxels_(view.voxels()),
      options_(options) {
  meta_.reserve(indices_.size());
  for (const std::size_t idx : indices_) {
    FCMA_CHECK(idx < view.epochs().size(), "epoch index out of range");
    meta_.push_back(view.epochs()[idx]);
  }
  FCMA_CHECK(!meta_.empty(), "streamed epoch source needs epochs");
  // Seed the io metric set so trace consumers see zeros, not holes.
  trace::count("io/shard_loads", 0);
  trace::count("io/bytes_mapped", 0);
}

StreamedEpochs::StreamedEpochs(const fmri::DatasetView& view, Options options)
    : StreamedEpochs(view,
                     [&view] {
                       std::vector<std::size_t> all(view.epochs().size());
                       for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
                       return all;
                     }(),
                     options) {}

std::size_t StreamedEpochs::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

void StreamedEpochs::evict_locked() {
  while (options_.budget_bytes != 0 && bytes_ > options_.budget_bytes &&
         !spare_rows_.empty()) {
    bytes_ -= spare_rows_.back().size() * sizeof(float);
    spare_rows_.pop_back();
  }
}

struct StreamedEpochs::Rows {
  Rows(StreamedEpochs& owner, std::size_t floats) : owner(owner) {
    {
      // Best fit among the spares, so a small task-row lease does not
      // take a block's buffer.
      std::lock_guard<std::mutex> lock(owner.mu_);
      auto& spares = owner.spare_rows_;
      auto best = spares.end();
      for (auto it = spares.begin(); it != spares.end(); ++it) {
        if (it->size() >= floats &&
            (best == spares.end() || it->size() < best->size())) {
          best = it;
        }
      }
      if (best != spares.end()) {
        data = std::move(*best);
        spares.erase(best);
        return;
      }
    }
    data.reset(floats);
    std::lock_guard<std::mutex> lock(owner.mu_);
    owner.bytes_ += data.size() * sizeof(float);
    owner.evict_locked();
  }
  Rows(const Rows&) = delete;
  Rows& operator=(const Rows&) = delete;
  ~Rows() {
    std::lock_guard<std::mutex> lock(owner.mu_);
    owner.spare_rows_.push_back(std::move(data));
    owner.evict_locked();
  }

  StreamedEpochs& owner;
  AlignedBuffer<float> data;
};

EpochSource::RowLease StreamedEpochs::acquire(std::size_t first,
                                              std::size_t last) {
  return acquire_rows(first, last, 0, voxels_);
}

EpochSource::RowLease StreamedEpochs::acquire_rows(
    std::size_t first, std::size_t last, std::size_t r0, std::size_t r1,
    threading::ThreadPool* pool) {
  FCMA_CHECK(first <= last && last <= meta_.size(),
             "epoch range out of bounds");
  FCMA_CHECK(r0 <= r1 && r1 <= voxels_, "voxel row range out of bounds");
  // Shard I/O and eq. 2 normalization of the lease: one layer of its own.
  const trace::Span span("epoch_fill");
  const std::size_t rows = r1 - r0;
  std::size_t floats = 0;
  for (std::size_t m = first; m < last; ++m) floats += rows * meta_[m].length;
  auto buffer = std::make_shared<Rows>(*this, floats);
  RowLease lease;
  lease.first_ = first;
  lease.rows_.reserve(last - first);
  std::vector<linalg::MatrixView> slices;
  slices.reserve(last - first);
  float* dst = buffer->data.data();
  for (std::size_t m = first; m < last; ++m) {
    const std::size_t length = meta_[m].length;
    slices.push_back(linalg::MatrixView{dst, rows, length, length});
    lease.rows_.push_back(slices.back());
    dst += rows * length;
  }
  // One subject's consecutive epochs at a time: their panels are fetched
  // in order on this thread, so the subject's shard is mapped once, then
  // normalized across the pool and released before the next subject's
  // shard is mapped.
  std::vector<fmri::DatasetView::Panel> panels;
  for (std::size_t s0 = first; s0 < last;) {
    std::size_t s1 = s0 + 1;
    while (s1 < last && meta_[s1].subject == meta_[s0].subject) ++s1;
    for (std::size_t m = s0; m < s1; ++m) {
      panels.push_back(view_->epoch_panel(indices_[m]));
    }
    threading::for_each_index(pool, 0, s1 - s0, [&](std::size_t e) {
      fmri::normalize_epoch_panel(panels[e], slices[s0 - first + e], r0);
    });
    panels.clear();
    s0 = s1;
  }
  lease.pin_ = std::move(buffer);
  return lease;
}

}  // namespace fcma::core
