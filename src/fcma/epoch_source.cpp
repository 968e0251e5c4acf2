#include "fcma/epoch_source.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "common/trace.hpp"

namespace fcma::core {

namespace {

std::size_t panel_bytes(const linalg::Matrix& panel) {
  return panel.rows() * panel.ld() * sizeof(float);
}

}  // namespace

EpochSource::Lease ResidentEpochs::acquire(std::size_t first,
                                           std::size_t last) {
  FCMA_CHECK(first <= last && last <= epochs_->per_epoch.size(),
             "epoch range out of bounds");
  Lease lease;
  lease.first_ = first;
  lease.panels_.reserve(last - first);
  for (std::size_t m = first; m < last; ++m) {
    lease.panels_.push_back(&epochs_->per_epoch[m]);
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
  slots_ = std::vector<Slot>(meta_.size());
  // Seed the full io metric set so trace consumers see zeros, not holes.
  trace::count("io/shard_loads", 0);
  trace::count("io/bytes_mapped", 0);
  trace::count("io/prefetch_hits", 0);
  trace::gauge_set("io/stall_s", 0.0);
}

StreamedEpochs::StreamedEpochs(const fmri::DatasetView& view, Options options)
    : StreamedEpochs(view,
                     [&view] {
                       std::vector<std::size_t> all(view.epochs().size());
                       for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
                       return all;
                     }(),
                     options) {}

StreamedEpochs::~StreamedEpochs() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  // Prefetch tasks capture `this`; wait for every submitted one to retire.
  cv_.wait(lock, [this] { return inflight_ == 0; });
}

std::size_t StreamedEpochs::resident_panels() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.state == Slot::State::kReady) ++n;
  }
  return n;
}

std::size_t StreamedEpochs::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::size_t StreamedEpochs::panel_allocations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return allocations_;
}

std::size_t StreamedEpochs::estimated_panel_bytes(std::size_t m) const {
  return voxels_ * meta_[m].length * sizeof(float);
}

std::size_t StreamedEpochs::lru_unpinned_locked() const {
  std::size_t victim = slots_.size();
  for (std::size_t m = 0; m < slots_.size(); ++m) {
    const Slot& s = slots_[m];
    if (s.state != Slot::State::kReady || s.refs != 0) continue;
    if (victim == slots_.size() || s.last_use < slots_[victim].last_use) {
      victim = m;
    }
  }
  return victim;
}

linalg::Matrix StreamedEpochs::take_panel_locked(std::size_t victim) {
  Slot& s = slots_[victim];
  s.state = Slot::State::kEmpty;
  s.prefetched = false;
  return std::exchange(s.panel, linalg::Matrix());
}

void StreamedEpochs::evict_locked() {
  if (options_.budget_bytes == 0) return;
  while (bytes_ > options_.budget_bytes) {
    const std::size_t victim = lru_unpinned_locked();
    if (victim == slots_.size()) return;  // everything left is pinned
    bytes_ -= panel_bytes(take_panel_locked(victim));
  }
}

linalg::Matrix StreamedEpochs::claim_buffer_locked(std::size_t m) {
  const std::size_t need = estimated_panel_bytes(m);
  while (options_.budget_bytes != 0 &&
         bytes_ + need > options_.budget_bytes) {
    const std::size_t victim = lru_unpinned_locked();
    if (victim == slots_.size()) break;  // everything left is pinned
    linalg::Matrix panel = take_panel_locked(victim);
    if (panel.cols() == meta_[m].length) return panel;
    bytes_ -= panel_bytes(panel);
  }
  bytes_ += need;
  ++allocations_;
  return linalg::Matrix();
}

bool StreamedEpochs::fits_locked(std::size_t m) const {
  return options_.budget_bytes == 0 ||
         bytes_ + estimated_panel_bytes(m) <= options_.budget_bytes;
}

void StreamedEpochs::fill_slot(std::size_t m, linalg::Matrix panel) {
  const fmri::Epoch& e = meta_[m];
  if (panel.cols() != e.length) panel = linalg::Matrix(voxels_, e.length);
  // The backing shard (if any) stays mapped only for this call: the
  // Panel's keepalive drops when epoch_panel's result goes out of scope.
  fmri::normalize_epoch_panel(view_->epoch_panel(indices_[m]), panel.view());
  std::lock_guard<std::mutex> lock(mu_);
  Slot& s = slots_[m];
  s.panel = std::move(panel);
  s.state = Slot::State::kReady;
  cv_.notify_all();
}

EpochSource::Lease StreamedEpochs::acquire(std::size_t first,
                                           std::size_t last) {
  FCMA_CHECK(first <= last && last <= meta_.size(),
             "epoch range out of bounds");
  std::vector<std::pair<std::size_t, linalg::Matrix>> to_load;
  std::vector<std::size_t> to_wait;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++tick_;
    // Pin the whole range first, so the buffer claims below never evict a
    // panel of the range itself.
    for (std::size_t m = first; m < last; ++m) {
      ++slots_[m].refs;
      slots_[m].last_use = tick_;
    }
    for (std::size_t m = first; m < last; ++m) {
      Slot& s = slots_[m];
      switch (s.state) {
        case Slot::State::kEmpty:
          // Claim and load synchronously.  Never wait for a queued-but-
          // unstarted prefetch task: with help-first scheduler joins a
          // worker blocking on queued work can deadlock.
          s.state = Slot::State::kLoading;
          to_load.emplace_back(m, claim_buffer_locked(m));
          break;
        case Slot::State::kLoading:
          if (s.prefetched) {
            s.prefetched = false;
            trace::count("io/prefetch_hits");
          }
          to_wait.push_back(m);
          break;
        case Slot::State::kReady:
          if (s.prefetched) {
            s.prefetched = false;
            trace::count("io/prefetch_hits");
          }
          break;
      }
    }
  }
  for (auto& [m, panel] : to_load) fill_slot(m, std::move(panel));
  if (!to_wait.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    for (const std::size_t m : to_wait) {
      cv_.wait(lock,
               [&] { return slots_[m].state == Slot::State::kReady; });
    }
    const std::chrono::duration<double> waited =
        std::chrono::steady_clock::now() - t0;
    stall_s_ += waited.count();
    trace::gauge_set("io/stall_s", stall_s_);
  }

  Lease lease;
  lease.first_ = first;
  lease.panels_.reserve(last - first);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t m = first; m < last; ++m) {
      lease.panels_.push_back(&slots_[m].panel);
    }
  }
  lease.release_ = [this, first, last] { release_range(first, last); };
  return lease;
}

void StreamedEpochs::release_range(std::size_t first, std::size_t last) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t m = first; m < last; ++m) {
    FCMA_CHECK(slots_[m].refs > 0, "epoch lease release underflow");
    --slots_[m].refs;
  }
  evict_locked();
}

void StreamedEpochs::prefetch(std::size_t first, std::size_t last) {
  if (options_.pool == nullptr) return;
  last = std::min(last, meta_.size());
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  for (std::size_t m = first; m < last; ++m) {
    Slot& s = slots_[m];
    if (s.state != Slot::State::kEmpty || s.prefetch_queued) continue;
    // Do not prefetch past the budget: a panel nothing has pinned yet
    // would only evict panels compute is about to use.
    if (!fits_locked(m)) break;
    s.prefetch_queued = true;
    ++inflight_;
    options_.pool->submit([this, m] { prefetch_task(m); });
  }
}

void StreamedEpochs::prefetch_task(std::size_t m) {
  linalg::Matrix panel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& s = slots_[m];
    s.prefetch_queued = false;
    // Loads since the prefetch was queued may have filled the budget; the
    // panel then loads when it is acquired.
    if (shutdown_ || s.state != Slot::State::kEmpty || !fits_locked(m)) {
      if (--inflight_ == 0) cv_.notify_all();
      return;
    }
    s.state = Slot::State::kLoading;
    s.prefetched = true;
    panel = claim_buffer_locked(m);
  }
  fill_slot(m, std::move(panel));
  std::lock_guard<std::mutex> lock(mu_);
  if (--inflight_ == 0) cv_.notify_all();
}

}  // namespace fcma::core
