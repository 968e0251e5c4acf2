// The classifier fold loop the offline, online and streaming protocols ran
// before they shared svm::cross_validate: every call rebuilds the
// linear-kernel Gram matrix of all feature rows, trains PhiSVM on
// `train_idx` and scores `test_idx` by the sign of the decision value.
// Tests check the protocols' accuracies against it bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fmri/dataset.hpp"
#include "linalg/matrix.hpp"
#include "linalg/opt.hpp"
#include "svm/dense_solver.hpp"

namespace fcma::oracle {

inline double fold_loop_accuracy(const linalg::Matrix& features,
                                 const std::vector<fmri::Epoch>& meta,
                                 std::span<const std::size_t> train_idx,
                                 std::span<const std::size_t> test_idx,
                                 const svm::TrainOptions& options) {
  linalg::Matrix gram(features.rows(), features.rows());
  linalg::opt::syrk(features.view(), gram.view());
  std::vector<std::int8_t> labels(meta.size());
  for (std::size_t e = 0; e < meta.size(); ++e) {
    labels[e] = meta[e].label == 1 ? std::int8_t{1} : std::int8_t{-1};
  }
  const svm::Model model =
      svm::phisvm_train(gram.view(), labels, train_idx, options);
  std::size_t correct = 0;
  for (const std::size_t t : test_idx) {
    const double f = svm::decision_value(model, gram.view(), t, train_idx);
    correct += ((f >= 0.0 ? 1 : -1) == labels[t]);
  }
  return test_idx.empty() ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(test_idx.size());
}

// The complement of `test` in [0, n), ascending.
inline std::vector<std::size_t> train_indices(
    std::size_t n, const std::vector<std::size_t>& test) {
  std::vector<bool> in_test(n, false);
  for (const std::size_t t : test) in_test[t] = true;
  std::vector<std::size_t> train;
  for (std::size_t t = 0; t < n; ++t) {
    if (!in_test[t]) train.push_back(t);
  }
  return train;
}

}  // namespace fcma::oracle
