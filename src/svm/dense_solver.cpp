#include "svm/dense_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "linalg/simd.hpp"

namespace fcma::svm {

namespace {

using linalg::simd::kSmoTau;

// Adaptive-heuristic schedule: probe each heuristic for kProbe iterations,
// then run the winner for kExploit iterations before re-probing.  This is
// the convergence-rate adaptation PhiSVM inherits from the GPU SVM of
// Catanzaro et al.
constexpr long kProbe = 64;
constexpr long kExploit = 512;

std::size_t pad_to_sweep(std::size_t n) {
  constexpr std::size_t p = linalg::simd::kSmoPad;
  return (n + p - 1) / p * p;
}

AlignedBuffer<float> zeros(std::size_t n) {
  AlignedBuffer<float> buf(n);
  std::fill_n(buf.data(), n, 0.0f);
  return buf;
}

class DenseSmo {
 public:
  DenseSmo(linalg::ConstMatrixView kernel, std::span<const std::int8_t> labels,
           std::span<const std::size_t> train_idx,
           const TrainOptions& options, Heuristic heuristic,
           memsim::Instrument* ins, unsigned lanes, bool materialize_q)
      : options_(options),
        c_(static_cast<float>(options.c)),
        heuristic_(heuristic),
        ins_(ins),
        lanes_(lanes),
        materialize_q_(materialize_q),
        simd_(linalg::simd::kernels()),
        n_(train_idx.size()),
        np_(pad_to_sweep(n_)),
        k_(zeros(n_ * np_)),
        diag_(zeros(np_)),
        y_(n_),
        yf_(zeros(np_)),
        alpha_(zeros(np_)),
        gradient_(zeros(np_)) {
    FCMA_CHECK(n_ >= 2, "need at least two training samples");
    if (materialize_q_) {
      q_buf_i_.resize(n_);
      q_buf_j_.resize(n_);
    }
    std::fill_n(gradient_.data(), n_, -1.0f);
    // Dense float packing of the training submatrix: contiguous rows, no
    // index metadata — this is optimization idea #3 applied to the SVM.
    // Rows are np_ long (zero padded) and the diagonal is kept contiguous
    // for the gain scan.
    for (std::size_t i = 0; i < n_; ++i) {
      y_[i] = labels[train_idx[i]];
      FCMA_CHECK(y_[i] == 1 || y_[i] == -1, "labels must be +1/-1");
      yf_[i] = static_cast<float>(y_[i]);
      const float* src = kernel.row(train_idx[i]);
      float* dst = k_.data() + i * np_;
      for (std::size_t j = 0; j < n_; ++j) dst[j] = src[train_idx[j]];
      diag_[i] = dst[i];
    }
  }

  Model solve() {
    const long max_iter = options_.max_iterations > 0
                              ? options_.max_iterations
                              : std::max<long>(10000000,
                                               100 * static_cast<long>(n_));
    long iter = 0;
    Heuristic active = heuristic_ == Heuristic::kAdaptive
                           ? Heuristic::kSecondOrder
                           : heuristic_;
    // Adaptive state: objective decrease observed per probe window.
    double probe_obj_start = 0.0;
    long phase_left = heuristic_ == Heuristic::kAdaptive ? kProbe : 0;
    int probe_stage = 0;  // 0: probing 2nd order, 1: probing 1st, 2: exploit
    double rate_second = 0.0;
    double rate_first = 0.0;

    while (iter < max_iter) {
      int i = -1;
      int j = -1;
      if (!select(active, i, j)) break;
      update_pair(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
      ++iter;

      if (heuristic_ == Heuristic::kAdaptive && --phase_left <= 0) {
        const double obj = objective();
        const double rate = probe_obj_start - obj;  // decrease this window
        switch (probe_stage) {
          case 0:
            rate_second = rate;
            active = Heuristic::kFirstOrder;
            probe_stage = 1;
            phase_left = kProbe;
            break;
          case 1:
            rate_first = rate;
            // First-order iterations are cheaper (no gain scan); weight its
            // measured decrease accordingly before comparing.
            active = (rate_first * 1.5 > rate_second)
                         ? Heuristic::kFirstOrder
                         : Heuristic::kSecondOrder;
            probe_stage = 2;
            phase_left = kExploit;
            break;
          default:
            active = Heuristic::kSecondOrder;
            probe_stage = 0;
            phase_left = kProbe;
            break;
        }
        probe_obj_start = obj;
      }
    }

    Model model;
    model.iterations = iter;
    model.alpha_y.resize(n_);
    for (std::size_t t = 0; t < n_; ++t) {
      model.alpha_y[t] = static_cast<double>(alpha_[t]) * y_[t];
    }
    model.rho = compute_rho();
    model.objective = objective();
    return model;
  }

 private:
  [[nodiscard]] const float* k_row(std::size_t i) const {
    return k_.data() + i * np_;
  }

  [[nodiscard]] linalg::simd::SmoSweep sweep() const {
    return {yf_.data(), alpha_.data(), gradient_.data(), np_, c_};
  }

  [[nodiscard]] double objective() const {
    double obj = 0.0;
    for (std::size_t t = 0; t < n_; ++t) {
      obj += static_cast<double>(alpha_[t]) * (gradient_[t] - 1.0f);
    }
    return obj / 2.0;
  }

  [[nodiscard]] float minus_yg(int t) const {
    const auto u = static_cast<std::size_t>(t);
    return -yf_[u] * gradient_[u];
  }

  bool select(Heuristic heuristic, int& out_i, int& out_j) {
    // One vector sweep computes -y*G and tracks both extrema.
    int i_max = -1;
    int j_min = -1;
    simd_.smo_select(sweep(), &i_max, &j_min);
    narrate_sweep(3);  // load G, multiply, compare per chunk
    if (i_max < 0 || j_min < 0) return false;
    const float g_max = minus_yg(i_max);
    if (g_max - minus_yg(j_min) < static_cast<float>(options_.tolerance)) {
      return false;
    }

    if (heuristic == Heuristic::kFirstOrder) {
      out_i = i_max;
      out_j = j_min;
      return true;
    }

    // Second order: keep i, rescan for the j maximizing the gain.
    const auto i = static_cast<std::size_t>(i_max);
    const int j_best =
        simd_.smo_gain(sweep(), diag_.data(), k_row(i), diag_[i], g_max);
    narrate_sweep(6);  // the gain scan touches K row + G per element
    if (j_best < 0) return false;
    out_i = i_max;
    out_j = j_best;
    return true;
  }

  void update_pair(std::size_t i, std::size_t j) {
    const float* ki = k_row(i);
    const float* kj = k_row(j);
    const float c = c_;
    const float old_ai = alpha_[i];
    const float old_aj = alpha_[j];

    const float quad = std::max(diag_[i] + diag_[j] - 2.0f * ki[j], kSmoTau);
    if (y_[i] != y_[j]) {
      const float delta = (-gradient_[i] - gradient_[j]) / quad;
      const float diff = alpha_[i] - alpha_[j];
      alpha_[i] += delta;
      alpha_[j] += delta;
      if (diff > 0.0f) {
        if (alpha_[j] < 0.0f) {
          alpha_[j] = 0.0f;
          alpha_[i] = diff;
        }
        if (alpha_[i] > c) {
          alpha_[i] = c;
          alpha_[j] = c - diff;
        }
      } else {
        if (alpha_[i] < 0.0f) {
          alpha_[i] = 0.0f;
          alpha_[j] = -diff;
        }
        if (alpha_[j] > c) {
          alpha_[j] = c;
          alpha_[i] = c + diff;
        }
      }
    } else {
      const float delta = (gradient_[i] - gradient_[j]) / quad;
      const float sum = alpha_[i] + alpha_[j];
      alpha_[i] -= delta;
      alpha_[j] += delta;
      if (sum > c) {
        if (alpha_[i] > c) {
          alpha_[i] = c;
          alpha_[j] = sum - c;
        }
        if (alpha_[j] > c) {
          alpha_[j] = c;
          alpha_[i] = sum - c;
        }
      } else {
        if (alpha_[j] < 0.0f) {
          alpha_[j] = 0.0f;
          alpha_[i] = sum;
        }
        if (alpha_[i] < 0.0f) {
          alpha_[i] = 0.0f;
          alpha_[j] = sum;
        }
      }
    }

    const float dai = alpha_[i] - old_ai;
    const float daj = alpha_[j] - old_aj;
    float* FCMA_RESTRICT g = gradient_.data();
    const float* FCMA_RESTRICT yv = yf_.data();
    if (materialize_q_) {
      // LibSVM structure retained: build the signed Q rows first, then run
      // LibSVM's gradient recurrence over them.
      float* FCMA_RESTRICT qi = q_buf_i_.data();
      float* FCMA_RESTRICT qj = q_buf_j_.data();
      for (std::size_t t = 0; t < n_; ++t) {
        qi[t] = yf_[i] * yv[t] * ki[t];
        qj[t] = yf_[j] * yv[t] * kj[t];
      }
      for (std::size_t t = 0; t < n_; ++t) {
        g[t] += dai * qi[t] + daj * qj[t];
      }
      if (ins_ != nullptr) {
        const std::uint64_t chunks = (n_ + lanes_ - 1) / lanes_;
        // Materialization: 2 multiplies + store per row; update: 2 FMAs.
        ins_->arith(lanes_, 4 * chunks, 4ull * n_);
        ins_->arith(lanes_, 2 * chunks, 4ull * n_);
        for (std::size_t t = 0; t < n_; t += lanes_) {
          const auto l =
              static_cast<unsigned>(std::min<std::size_t>(lanes_, n_ - t));
          ins_->load(ki + t, l);
          ins_->load(kj + t, l);
          ins_->load(yv + t, l);
          ins_->store(qi + t, l);
          ins_->store(qj + t, l);
          ins_->load(qi + t, l);
          ins_->load(qj + t, l);
          ins_->load(g + t, l);
          ins_->store(g + t, l);
        }
      }
    } else {
      // PhiSVM: labels folded into the update constants, one fused pass
      // directly over the kernel rows.
      simd_.smo_update(g, yv, ki, kj, dai * yf_[i], daj * yf_[j], np_);
      if (ins_ != nullptr) {
        // Per chunk: load Ki, Kj, y, G; 3 FMAs; store G.
        const std::uint64_t chunks = (n_ + lanes_ - 1) / lanes_;
        ins_->arith(lanes_, 3 * chunks, 6ull * n_);
        for (std::size_t t = 0; t < n_; t += lanes_) {
          const auto l =
              static_cast<unsigned>(std::min<std::size_t>(lanes_, n_ - t));
          ins_->load(ki + t, l);
          ins_->load(kj + t, l);
          ins_->load(yv + t, l);
          ins_->load(g + t, l);
          ins_->store(g + t, l);
        }
      }
    }
  }

  /// Narrates one vectorized O(n) selection sweep: `ops_per_chunk` vector
  /// instructions per lanes_-wide chunk plus the gradient loads.
  void narrate_sweep(unsigned ops_per_chunk) {
    if (ins_ == nullptr) return;
    for (std::size_t t = 0; t < n_; t += lanes_) {
      const auto l =
          static_cast<unsigned>(std::min<std::size_t>(lanes_, n_ - t));
      ins_->load(gradient_.data() + t, l);
      ins_->arith(l, ops_per_chunk, l);
      // Index/mask bookkeeping of the argmin/argmax reduction is scalar.
      ins_->arith(1, 2);
    }
  }

  double compute_rho() const {
    double upper = std::numeric_limits<double>::infinity();
    double lower = -std::numeric_limits<double>::infinity();
    double sum_free = 0.0;
    std::size_t n_free = 0;
    for (std::size_t t = 0; t < n_; ++t) {
      const double yg = y_[t] * static_cast<double>(gradient_[t]);
      if (alpha_[t] >= c_) {
        if (y_[t] == -1) {
          upper = std::min(upper, yg);
        } else {
          lower = std::max(lower, yg);
        }
      } else if (alpha_[t] <= 0.0f) {
        if (y_[t] == 1) {
          upper = std::min(upper, yg);
        } else {
          lower = std::max(lower, yg);
        }
      } else {
        ++n_free;
        sum_free += yg;
      }
    }
    if (n_free > 0) return sum_free / static_cast<double>(n_free);
    return (upper + lower) / 2.0;
  }

  TrainOptions options_;
  float c_;  // the clamp bound float(C); every set test compares against it
  Heuristic heuristic_;
  memsim::Instrument* ins_;
  unsigned lanes_;
  bool materialize_q_;
  const linalg::simd::KernelTable& simd_;
  std::size_t n_;
  std::size_t np_;                // n_ rounded up to simd::kSmoPad
  AlignedBuffer<float> k_;        // dense [n x np] training kernel
  AlignedBuffer<float> diag_;     // its diagonal, contiguous
  std::vector<std::int8_t> y_;
  // Sweep buffers, np_ long; lanes past n_ have y = 0 (alpha, G start 0).
  AlignedBuffer<float> yf_;
  AlignedBuffer<float> alpha_;
  AlignedBuffer<float> gradient_;
  std::vector<float> q_buf_i_;  // materialized Q rows (LibSVM-structure mode)
  std::vector<float> q_buf_j_;
};

}  // namespace

Model dense_train(linalg::ConstMatrixView kernel,
                  std::span<const std::int8_t> labels,
                  std::span<const std::size_t> train_idx,
                  const TrainOptions& options, Heuristic heuristic,
                  memsim::Instrument* ins, unsigned model_lanes,
                  bool materialize_q) {
  FCMA_CHECK(kernel.rows == kernel.cols, "kernel matrix must be square");
  FCMA_CHECK(labels.size() == kernel.rows, "one label per kernel row");
  DenseSmo smo(kernel, labels, train_idx, options, heuristic, ins,
               model_lanes, materialize_q);
  return smo.solve();
}

}  // namespace fcma::svm
