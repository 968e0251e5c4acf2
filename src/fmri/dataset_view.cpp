#include "fmri/dataset_view.hpp"

#include "common/error.hpp"
#include "linalg/simd.hpp"

namespace fcma::fmri {

std::vector<std::size_t> DatasetView::epochs_of_subject(
    std::int32_t subject) const {
  std::vector<std::size_t> out;
  const std::vector<Epoch>& all = epochs();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].subject == subject) out.push_back(i);
  }
  return out;
}

DatasetView::Panel InMemoryView::epoch_panel(std::size_t idx) const {
  FCMA_CHECK(idx < dataset_->epochs().size(), "epoch index out of range");
  const Epoch& e = dataset_->epochs()[idx];
  const linalg::Matrix& data = dataset_->data();
  Panel p;
  p.view = linalg::ConstMatrixView{data.row(0) + e.start, data.rows(),
                                   e.length, data.ld()};
  // The Dataset outlives the view by contract; nothing to pin.
  return p;
}

void normalize_epoch_panel(const DatasetView::Panel& panel,
                           linalg::MatrixView out, std::size_t first_row) {
  FCMA_CHECK(first_row <= panel.view.rows &&
                 out.rows <= panel.view.rows - first_row &&
                 out.cols == panel.view.cols,
             "panel/output shape mismatch");
  linalg::simd::kernels().epoch_zscore(panel.view.row(first_row),
                                       panel.view.ld, out.data, out.ld,
                                       out.rows, out.cols);
}

NormalizedEpochs normalize_epochs(const DatasetView& view) {
  std::vector<std::size_t> all(view.epochs().size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return normalize_epochs(view, all);
}

NormalizedEpochs normalize_epochs(
    const DatasetView& view, const std::vector<std::size_t>& epoch_indices) {
  NormalizedEpochs out;
  out.per_epoch.reserve(epoch_indices.size());
  out.meta.reserve(epoch_indices.size());
  const std::size_t v = view.voxels();
  for (const std::size_t idx : epoch_indices) {
    FCMA_CHECK(idx < view.epochs().size(), "epoch index out of range");
    const Epoch& e = view.epochs()[idx];
    linalg::Matrix m(v, e.length);
    normalize_epoch_panel(view.epoch_panel(idx), m.view());
    out.per_epoch.push_back(std::move(m));
    out.meta.push_back(e);
  }
  return out;
}

}  // namespace fcma::fmri
