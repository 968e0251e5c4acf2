// Tests for the three SVM solvers: analytic solutions on tiny problems,
// agreement between LibSVM-faithful and dense implementations, KKT
// conditions, separable-data behaviour, cross-validation, and the
// vector-intensity ordering of Table 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "linalg/opt.hpp"
#include "linalg/simd.hpp"
#include "svm/cross_validation.hpp"

namespace fcma::svm {
namespace {

/// Builds a linear-kernel matrix from 2-D points.
linalg::Matrix kernel_from_points(const std::vector<std::pair<float, float>>& pts) {
  linalg::Matrix k(pts.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      k(i, j) = pts[i].first * pts[j].first + pts[i].second * pts[j].second;
    }
  }
  return k;
}

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

/// A random linearly-separable problem: points at distance >= margin from
/// the separating hyperplane w = (1, 1)/sqrt(2).
struct Separable {
  std::vector<std::pair<float, float>> points;
  std::vector<std::int8_t> labels;
};

Separable make_separable(std::size_t n, float margin, std::uint64_t seed) {
  Rng rng(seed);
  Separable s;
  for (std::size_t i = 0; i < n; ++i) {
    const auto side = static_cast<std::int8_t>((i % 2 == 0) ? 1 : -1);
    // Random point on the correct side, at least `margin` away.
    const float along = rng.uniform(-2.0f, 2.0f);
    const float away = margin + rng.uniform(0.0f, 1.5f);
    // Hyperplane direction (1,1)/sqrt2; offset point along (1,-1)/sqrt2.
    const float inv = 0.70710678f;
    s.points.push_back({along * inv + side * away * inv,
                        -along * inv + side * away * inv});
    s.labels.push_back(side);
  }
  return s;
}

/// Overlapping classes (means +-0.5 apart on x, unit Gaussian noise): the
/// box constraint binds, so bounded support vectors exist.
Separable make_overlapping(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Separable s;
  for (std::size_t i = 0; i < n; ++i) {
    const auto side = static_cast<std::int8_t>((i % 2 == 0) ? 1 : -1);
    s.points.push_back({side * 0.5f + static_cast<float>(rng.gaussian()),
                        static_cast<float>(rng.gaussian())});
    s.labels.push_back(side);
  }
  return s;
}

const TrainOptions kDefault{};

// ---------------------------------------------------------------------------
// Analytic two-point problem: optimal alpha = 1/|x1-x2|^2 (if < C), and the
// margin midpoint determines rho.
// ---------------------------------------------------------------------------

class AllSolvers : public ::testing::TestWithParam<SolverKind> {};

TEST_P(AllSolvers, TwoPointAnalyticSolution) {
  const std::vector<std::pair<float, float>> pts{{2.0f, 0.0f}, {0.0f, 0.0f}};
  const std::vector<std::int8_t> labels{1, -1};
  const linalg::Matrix k = kernel_from_points(pts);
  TrainOptions opts;
  opts.c = 10.0;  // large enough not to bind
  const Model m = train(GetParam(), k.view(), labels, all_indices(2), opts);
  // |x1 - x2|^2 = 4 -> alpha = 2/4 = 0.5 each; w = (1,0); rho = -w.mid = 1.
  EXPECT_NEAR(m.alpha_y[0], 0.5, 1e-3);
  EXPECT_NEAR(m.alpha_y[1], -0.5, 1e-3);
  EXPECT_NEAR(m.rho, 1.0, 1e-2);
  // Decision values: +1 at x1, -1 at x2.
  EXPECT_NEAR(decision_value(m, k.view(), 0, all_indices(2)), 1.0, 1e-2);
  EXPECT_NEAR(decision_value(m, k.view(), 1, all_indices(2)), -1.0, 1e-2);
}

TEST_P(AllSolvers, BoxConstraintBindsForSmallC) {
  const std::vector<std::pair<float, float>> pts{{1.0f, 0.0f}, {-1.0f, 0.0f}};
  const std::vector<std::int8_t> labels{1, -1};
  const linalg::Matrix k = kernel_from_points(pts);
  TrainOptions opts;
  opts.c = 0.1;  // binds: unconstrained alpha would be 0.5
  const Model m = train(GetParam(), k.view(), labels, all_indices(2), opts);
  EXPECT_NEAR(m.alpha_y[0], 0.1, 1e-4);
  EXPECT_NEAR(m.alpha_y[1], -0.1, 1e-4);
}

TEST_P(AllSolvers, SeparableProblemClassifiesPerfectly) {
  const Separable s = make_separable(40, 0.5f, 17);
  const linalg::Matrix k = kernel_from_points(s.points);
  const Model m =
      train(GetParam(), k.view(), s.labels, all_indices(40), kDefault);
  for (std::size_t t = 0; t < 40; ++t) {
    const double f = decision_value(m, k.view(), t, all_indices(40));
    EXPECT_GT(f * s.labels[t], 0.0) << "sample " << t;
  }
}

TEST_P(AllSolvers, DualConstraintHolds) {
  // sum alpha_i y_i = 0 at any SMO solution.
  const Separable s = make_separable(30, 0.2f, 23);
  const linalg::Matrix k = kernel_from_points(s.points);
  const Model m =
      train(GetParam(), k.view(), s.labels, all_indices(30), kDefault);
  const double sum =
      std::accumulate(m.alpha_y.begin(), m.alpha_y.end(), 0.0);
  EXPECT_NEAR(sum, 0.0, 1e-5);
}

TEST_P(AllSolvers, AlphasWithinBox) {
  const Separable s = make_separable(24, 0.1f, 29);
  const linalg::Matrix k = kernel_from_points(s.points);
  TrainOptions opts;
  opts.c = 0.7;
  const Model m = train(GetParam(), k.view(), s.labels, all_indices(24), opts);
  for (std::size_t i = 0; i < m.alpha_y.size(); ++i) {
    const double a = m.alpha_y[i] * s.labels[i];  // recover alpha
    EXPECT_GE(a, -1e-6);
    EXPECT_LE(a, opts.c + 1e-6);
  }
}

TEST_P(AllSolvers, TrainingOnSubsetIgnoresRest) {
  // Samples outside train_idx must not influence the model.
  Separable s = make_separable(20, 0.5f, 31);
  const linalg::Matrix k = kernel_from_points(s.points);
  std::vector<std::size_t> subset;
  for (std::size_t i = 0; i < 12; ++i) subset.push_back(i);
  const Model m1 = train(GetParam(), k.view(), s.labels, subset, kDefault);
  // Corrupt the labels of the unused samples; result must be identical.
  for (std::size_t i = 12; i < 20; ++i) s.labels[i] = -s.labels[i];
  const Model m2 = train(GetParam(), k.view(), s.labels, subset, kDefault);
  ASSERT_EQ(m1.alpha_y.size(), m2.alpha_y.size());
  for (std::size_t i = 0; i < m1.alpha_y.size(); ++i) {
    EXPECT_EQ(m1.alpha_y[i], m2.alpha_y[i]);
  }
  EXPECT_EQ(m1.rho, m2.rho);
}

TEST_P(AllSolvers, ConvergesWhenCRoundsDownToFloat) {
  // float(0.7) < 0.7: alphas are clamped to float(C), so a working-set test
  // against the double C would keep a clamped alpha selectable forever.
  const Separable s = make_overlapping(60, 41);
  const linalg::Matrix k = kernel_from_points(s.points);
  const auto idx = all_indices(60);
  TrainOptions opts;
  opts.c = 0.7;
  opts.max_iterations = 200000;
  ASSERT_LT(static_cast<double>(static_cast<float>(opts.c)), opts.c);
  const Model m = train(GetParam(), k.view(), s.labels, idx, opts);
  EXPECT_LT(m.iterations, 5000);
  std::size_t at_bound = 0;
  for (std::size_t i = 0; i < m.alpha_y.size(); ++i) {
    const double a = m.alpha_y[i] * s.labels[i];
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, opts.c + 1e-6);
    at_bound += std::abs(a - opts.c) <= 1e-6;
  }
  EXPECT_GT(at_bound, 0u) << "the box must bind on this problem";
  const Model lib = libsvm_train(k.view(), s.labels, idx, opts);
  EXPECT_NEAR(m.objective, lib.objective, 1e-3 * (1.0 + std::abs(lib.objective)));
  EXPECT_NEAR(m.rho, lib.rho, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Solvers, AllSolvers,
                         ::testing::Values(SolverKind::kLibSvm,
                                           SolverKind::kOptimizedLibSvm,
                                           SolverKind::kPhiSvm),
                         [](const auto& info) {
                           switch (info.param) {
                             case SolverKind::kLibSvm: return "LibSvm";
                             case SolverKind::kOptimizedLibSvm:
                               return "OptLibSvm";
                             default: return "PhiSvm";
                           }
                         });

// ---------------------------------------------------------------------------
// Cross-implementation agreement
// ---------------------------------------------------------------------------

TEST(SolverAgreement, ObjectivesMatchAcrossImplementations) {
  const Separable s = make_separable(50, 0.1f, 37);
  const linalg::Matrix k = kernel_from_points(s.points);
  const auto idx = all_indices(50);
  const Model lib = libsvm_train(k.view(), s.labels, idx, kDefault);
  const Model opt = optimized_libsvm_train(k.view(), s.labels, idx, kDefault);
  const Model phi = phisvm_train(k.view(), s.labels, idx, kDefault);
  // All solve the same QP: optimal objectives agree to solver tolerance.
  EXPECT_NEAR(lib.objective, opt.objective,
              1e-2 * (1.0 + std::abs(lib.objective)));
  EXPECT_NEAR(lib.objective, phi.objective,
              1e-2 * (1.0 + std::abs(lib.objective)));
}

TEST(SolverAgreement, DecisionValuesMatchOnNoisyProblem) {
  // Overlapping classes: bounded SVs exist; decisions should still agree.
  const Separable s = make_overlapping(60, 41);
  const auto& labels = s.labels;
  const linalg::Matrix k = kernel_from_points(s.points);
  const auto idx = all_indices(60);
  const Model lib = libsvm_train(k.view(), labels, idx, kDefault);
  const Model phi = phisvm_train(k.view(), labels, idx, kDefault);
  int disagreements = 0;
  for (std::size_t t = 0; t < 60; ++t) {
    const double fl = decision_value(lib, k.view(), t, idx);
    const double fp = decision_value(phi, k.view(), t, idx);
    disagreements += ((fl >= 0) != (fp >= 0));
  }
  EXPECT_LE(disagreements, 2);  // only near-boundary points may flip
}

TEST(SolverAgreement, FirstOrderHeuristicConvergesToSameObjective) {
  const Separable s = make_separable(40, 0.2f, 43);
  const linalg::Matrix k = kernel_from_points(s.points);
  const auto idx = all_indices(40);
  const Model second = dense_train(k.view(), s.labels, idx, kDefault,
                                   Heuristic::kSecondOrder);
  const Model first = dense_train(k.view(), s.labels, idx, kDefault,
                                  Heuristic::kFirstOrder);
  EXPECT_NEAR(second.objective, first.objective,
              1e-2 * (1.0 + std::abs(second.objective)));
}

TEST(SolverAgreement, SecondOrderNeedsFewerIterations) {
  // The Fan/Chen/Lin heuristic's whole point: fewer SMO steps.
  const Separable s = make_separable(80, 0.05f, 47);
  const linalg::Matrix k = kernel_from_points(s.points);
  const auto idx = all_indices(80);
  const Model second = dense_train(k.view(), s.labels, idx, kDefault,
                                   Heuristic::kSecondOrder);
  const Model first = dense_train(k.view(), s.labels, idx, kDefault,
                                  Heuristic::kFirstOrder);
  EXPECT_LE(second.iterations, first.iterations);
}

// ---------------------------------------------------------------------------
// Cross-validation machinery
// ---------------------------------------------------------------------------

TEST(CrossValidation, LosoFoldsGroupBySubject) {
  const std::vector<std::int32_t> subj{0, 0, 1, 1, 2, 2, 0};
  const auto folds = loso_folds(subj, 3);
  ASSERT_EQ(folds.size(), 3u);
  EXPECT_EQ(folds[0], (std::vector<std::size_t>{0, 1, 6}));
  EXPECT_EQ(folds[1], (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(folds[2], (std::vector<std::size_t>{4, 5}));
}

TEST(CrossValidation, LosoRejectsEmptySubject) {
  const std::vector<std::int32_t> subj{0, 0, 2, 2};
  EXPECT_THROW(loso_folds(subj, 3), Error);
}

TEST(CrossValidation, PerfectAccuracyOnSeparableData) {
  const Separable s = make_separable(36, 0.8f, 53);
  const linalg::Matrix k = kernel_from_points(s.points);
  std::vector<std::vector<std::size_t>> folds(4);
  for (std::size_t i = 0; i < 36; ++i) folds[i % 4].push_back(i);
  const CvResult cv = cross_validate(SolverKind::kPhiSvm, k.view(), s.labels,
                                     folds, kDefault);
  EXPECT_EQ(cv.total, 36u);
  EXPECT_EQ(cv.correct, 36u);
  EXPECT_DOUBLE_EQ(cv.accuracy(), 1.0);
}

TEST(CrossValidation, ChanceAccuracyOnRandomLabels) {
  Rng rng(59);
  std::vector<std::pair<float, float>> pts;
  std::vector<std::int8_t> labels;
  for (int i = 0; i < 64; ++i) {
    pts.push_back({static_cast<float>(rng.gaussian()),
                   static_cast<float>(rng.gaussian())});
    labels.push_back(rng.uniform() < 0.5 ? std::int8_t{1} : std::int8_t{-1});
  }
  const linalg::Matrix k = kernel_from_points(pts);
  std::vector<std::vector<std::size_t>> folds(4);
  for (std::size_t i = 0; i < 64; ++i) folds[i % 4].push_back(i);
  const CvResult cv = cross_validate(SolverKind::kPhiSvm, k.view(), labels,
                                     folds, kDefault);
  EXPECT_GT(cv.accuracy(), 0.2);
  EXPECT_LT(cv.accuracy(), 0.8);
}

TEST(CrossValidation, AllSolversAgreeOnAccuracy) {
  const Separable s = make_separable(24, 0.4f, 61);
  const linalg::Matrix k = kernel_from_points(s.points);
  std::vector<std::vector<std::size_t>> folds(3);
  for (std::size_t i = 0; i < 24; ++i) folds[i % 3].push_back(i);
  const double lib = cross_validate(SolverKind::kLibSvm, k.view(), s.labels,
                                    folds, kDefault)
                         .accuracy();
  const double opt = cross_validate(SolverKind::kOptimizedLibSvm, k.view(),
                                    s.labels, folds, kDefault)
                         .accuracy();
  const double phi = cross_validate(SolverKind::kPhiSvm, k.view(), s.labels,
                                    folds, kDefault)
                         .accuracy();
  EXPECT_DOUBLE_EQ(lib, opt);
  EXPECT_DOUBLE_EQ(lib, phi);
}

// ---------------------------------------------------------------------------
// Instrumented runs: the Table 8 vector-intensity ordering
// ---------------------------------------------------------------------------

TEST(SvmEvents, IntensityOrderingMatchesTable8) {
  const Separable s = make_separable(64, 0.1f, 67);
  const linalg::Matrix k = kernel_from_points(s.points);
  const auto idx = all_indices(64);
  auto intensity = [&](SolverKind kind) {
    memsim::Instrument ins;
    (void)train(kind, k.view(), s.labels, idx, kDefault, &ins);
    return ins.events().vector_intensity();
  };
  const double lib = intensity(SolverKind::kLibSvm);
  const double opt = intensity(SolverKind::kOptimizedLibSvm);
  const double phi = intensity(SolverKind::kPhiSvm);
  // LibSVM's sparse/double/scalar loops score ~1-2; the dense float
  // implementations approach the vector width.
  EXPECT_LT(lib, 3.0);
  EXPECT_GT(opt, 8.0);
  EXPECT_GT(phi, 8.0);
}

TEST(SvmEvents, InstrumentedResultMatchesUninstrumented) {
  const Separable s = make_separable(30, 0.3f, 71);
  const linalg::Matrix k = kernel_from_points(s.points);
  const auto idx = all_indices(30);
  memsim::Instrument ins;
  const Model with = phisvm_train(k.view(), s.labels, idx, kDefault, &ins);
  const Model without = phisvm_train(k.view(), s.labels, idx, kDefault);
  ASSERT_EQ(with.alpha_y.size(), without.alpha_y.size());
  for (std::size_t i = 0; i < with.alpha_y.size(); ++i) {
    EXPECT_EQ(with.alpha_y[i], without.alpha_y[i]);
  }
}

// ---------------------------------------------------------------------------
// Bit identity of the vector sweeps.  ScalarSmo is the dense SMO as it was
// before the selection sweep, gain scan and gradient update moved to the
// linalg::simd kernels: branchy scalar loops over an unpadded kernel that
// read the diagonal as k_row(t)[t] (instrumentation left out).  The dense
// solvers must reproduce its models bit for bit under whichever SIMD table
// is active; ctest also runs these tests under every FCMA_FORCE_ISA value.
// ---------------------------------------------------------------------------

class ScalarSmo {
 public:
  ScalarSmo(linalg::ConstMatrixView kernel, std::span<const std::int8_t> labels,
            std::span<const std::size_t> train_idx, const TrainOptions& options,
            Heuristic heuristic, bool materialize_q)
      : options_(options),
        heuristic_(heuristic),
        materialize_q_(materialize_q),
        n_(train_idx.size()),
        k_(n_ * n_),
        y_(n_),
        yf_(n_),
        alpha_(n_, 0.0f),
        gradient_(n_, -1.0f),
        q_buf_i_(n_),
        q_buf_j_(n_) {
    for (std::size_t i = 0; i < n_; ++i) {
      y_[i] = labels[train_idx[i]];
      yf_[i] = static_cast<float>(y_[i]);
      for (std::size_t j = 0; j < n_; ++j) {
        k_[i * n_ + j] = kernel.row(train_idx[i])[train_idx[j]];
      }
    }
  }

  Model solve() {
    constexpr long kProbe = 64;
    constexpr long kExploit = 512;
    const long max_iter = options_.max_iterations > 0
                              ? options_.max_iterations
                              : std::max<long>(10000000,
                                               100 * static_cast<long>(n_));
    long iter = 0;
    Heuristic active = heuristic_ == Heuristic::kAdaptive
                           ? Heuristic::kSecondOrder
                           : heuristic_;
    double probe_obj_start = 0.0;
    long phase_left = heuristic_ == Heuristic::kAdaptive ? kProbe : 0;
    int probe_stage = 0;
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
        const double rate = probe_obj_start - obj;
        switch (probe_stage) {
          case 0:
            rate_second = rate;
            active = Heuristic::kFirstOrder;
            probe_stage = 1;
            phase_left = kProbe;
            break;
          case 1:
            rate_first = rate;
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
  static constexpr float kTau = 1e-12f;

  const float* k_row(std::size_t i) const { return k_.data() + i * n_; }

  double objective() const {
    double obj = 0.0;
    for (std::size_t t = 0; t < n_; ++t) {
      obj += static_cast<double>(alpha_[t]) * (gradient_[t] - 1.0f);
    }
    return obj / 2.0;
  }

  bool in_up(std::size_t t) const {
    return y_[t] == 1 ? alpha_[t] < options_.c : alpha_[t] > 0.0f;
  }
  bool in_low(std::size_t t) const {
    return y_[t] == 1 ? alpha_[t] > 0.0f : alpha_[t] < options_.c;
  }

  bool select(Heuristic heuristic, int& out_i, int& out_j) {
    float g_max = -std::numeric_limits<float>::infinity();
    float g_min = std::numeric_limits<float>::infinity();
    int i_max = -1;
    int j_min = -1;
    for (std::size_t t = 0; t < n_; ++t) {
      const float v = -yf_[t] * gradient_[t];
      if (in_up(t) && v >= g_max) {
        g_max = v;
        i_max = static_cast<int>(t);
      }
      if (in_low(t) && v <= g_min) {
        g_min = v;
        j_min = static_cast<int>(t);
      }
    }
    if (i_max < 0 || j_min < 0) return false;
    if (g_max - g_min < static_cast<float>(options_.tolerance)) return false;
    if (heuristic == Heuristic::kFirstOrder) {
      out_i = i_max;
      out_j = j_min;
      return true;
    }
    const auto i = static_cast<std::size_t>(i_max);
    const float* ki = k_row(i);
    const float kii = ki[i];
    int j_best = -1;
    float best = std::numeric_limits<float>::infinity();
    for (std::size_t t = 0; t < n_; ++t) {
      if (!in_low(t)) continue;
      const float v = -yf_[t] * gradient_[t];
      const float diff = g_max - v;
      if (diff <= 0.0f) continue;
      const float quad = std::max(kii + k_row(t)[t] - 2.0f * ki[t], kTau);
      const float gain = -(diff * diff) / quad;
      if (gain <= best) {
        best = gain;
        j_best = static_cast<int>(t);
      }
    }
    if (j_best < 0) return false;
    out_i = i_max;
    out_j = j_best;
    return true;
  }

  void update_pair(std::size_t i, std::size_t j) {
    const float* ki = k_row(i);
    const float* kj = k_row(j);
    const auto c = static_cast<float>(options_.c);
    const float old_ai = alpha_[i];
    const float old_aj = alpha_[j];
    const float quad = std::max(ki[i] + kj[j] - 2.0f * ki[j], kTau);
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
      float* FCMA_RESTRICT qi = q_buf_i_.data();
      float* FCMA_RESTRICT qj = q_buf_j_.data();
      for (std::size_t t = 0; t < n_; ++t) {
        qi[t] = yf_[i] * yv[t] * ki[t];
        qj[t] = yf_[j] * yv[t] * kj[t];
      }
      for (std::size_t t = 0; t < n_; ++t) {
        g[t] += dai * qi[t] + daj * qj[t];
      }
    } else {
      const float ci = dai * yf_[i];
      const float cj = daj * yf_[j];
      for (std::size_t t = 0; t < n_; ++t) {
        g[t] += yv[t] * (ci * ki[t] + cj * kj[t]);
      }
    }
  }

  double compute_rho() const {
    double upper = std::numeric_limits<double>::infinity();
    double lower = -std::numeric_limits<double>::infinity();
    double sum_free = 0.0;
    std::size_t n_free = 0;
    for (std::size_t t = 0; t < n_; ++t) {
      const double yg = y_[t] * static_cast<double>(gradient_[t]);
      if (alpha_[t] >= options_.c) {
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
  Heuristic heuristic_;
  bool materialize_q_;
  std::size_t n_;
  std::vector<float> k_;
  std::vector<std::int8_t> y_;
  std::vector<float> yf_;
  std::vector<float> alpha_;
  std::vector<float> gradient_;
  std::vector<float> q_buf_i_;
  std::vector<float> q_buf_j_;
};

/// A 360-sample linear kernel over 96 noisy features, 8 of them weakly
/// label-informative, scaled like a normalized correlation kernel.  Training
/// on 342 rows (one 18-epoch block held out) is the shape of one FCMA LOSO
/// fold.
struct FoldProblem {
  linalg::Matrix kernel;
  std::vector<std::int8_t> labels;
  std::vector<std::size_t> train_idx;
};

FoldProblem make_fold_problem(std::uint64_t seed) {
  constexpr std::size_t kN = 360;
  constexpr std::size_t kD = 96;
  Rng rng(seed);
  FoldProblem p{linalg::Matrix(kN, kN), {}, {}};
  std::vector<float> x(kN * kD);
  for (std::size_t i = 0; i < kN; ++i) {
    p.labels.push_back((i / 12) % 2 == 0 ? std::int8_t{1} : std::int8_t{-1});
    for (std::size_t f = 0; f < kD; ++f) {
      x[i * kD + f] = static_cast<float>(rng.gaussian()) +
                      (f < 8 ? 0.15f * p.labels[i] : 0.0f);
    }
  }
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      float acc = 0.0f;
      for (std::size_t f = 0; f < kD; ++f) acc += x[i * kD + f] * x[j * kD + f];
      p.kernel(i, j) = acc / kD;
    }
  }
  for (std::size_t i = 0; i < kN; ++i) {
    if (i < 126 || i >= 144) p.train_idx.push_back(i);
  }
  return p;
}

void expect_same_model(const Model& got, const Model& want) {
  EXPECT_GT(want.iterations, 100) << "the problem must exercise the sweeps";
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.alpha_y, want.alpha_y);
  EXPECT_EQ(got.rho, want.rho);
  EXPECT_EQ(got.objective, want.objective);
}

class DenseSweep : public ::testing::TestWithParam<double> {};

TEST_P(DenseSweep, PhiSvmMatchesScalarSweep) {
  SCOPED_TRACE(linalg::simd::isa_name(linalg::simd::active_isa()));
  const FoldProblem p = make_fold_problem(83);
  TrainOptions opts;
  opts.c = GetParam();
  const Model want = ScalarSmo(p.kernel.view(), p.labels, p.train_idx, opts,
                               Heuristic::kAdaptive, false)
                         .solve();
  expect_same_model(
      phisvm_train(p.kernel.view(), p.labels, p.train_idx, opts), want);
}

TEST_P(DenseSweep, OptimizedLibSvmMatchesScalarSweep) {
  SCOPED_TRACE(linalg::simd::isa_name(linalg::simd::active_isa()));
  const FoldProblem p = make_fold_problem(89);
  TrainOptions opts;
  opts.c = GetParam();
  const Model want = ScalarSmo(p.kernel.view(), p.labels, p.train_idx, opts,
                               Heuristic::kSecondOrder, true)
                         .solve();
  expect_same_model(
      optimized_libsvm_train(p.kernel.view(), p.labels, p.train_idx, opts),
      want);
}

TEST_P(DenseSweep, FirstOrderMatchesScalarSweep) {
  SCOPED_TRACE(linalg::simd::isa_name(linalg::simd::active_isa()));
  const FoldProblem p = make_fold_problem(97);
  TrainOptions opts;
  opts.c = GetParam();
  const Model want = ScalarSmo(p.kernel.view(), p.labels, p.train_idx, opts,
                               Heuristic::kFirstOrder, false)
                         .solve();
  expect_same_model(dense_train(p.kernel.view(), p.labels, p.train_idx, opts,
                                Heuristic::kFirstOrder),
                    want);
}

// C = 1 is the default; float(0.1) > 0.1 rounds up, where comparing against
// the clamp bound float(C) cannot change a result either.
INSTANTIATE_TEST_SUITE_P(BoxBounds, DenseSweep, ::testing::Values(1.0, 0.1),
                         [](const auto& info) {
                           return info.param == 1.0 ? "C1" : "C0_1";
                         });

// ---------------------------------------------------------------------------
// Guard rails
// ---------------------------------------------------------------------------

TEST(SvmValidation, RejectsNonSquareKernel) {
  linalg::Matrix k(4, 5);
  const std::vector<std::int8_t> labels{1, -1, 1, -1};
  EXPECT_THROW(
      (void)phisvm_train(k.view(), labels, all_indices(4), kDefault), Error);
}

TEST(SvmValidation, RejectsBadLabels) {
  linalg::Matrix k(4, 4);
  k.fill(0.0f);
  for (int i = 0; i < 4; ++i) k(i, i) = 1.0f;
  const std::vector<std::int8_t> labels{1, 0, 1, -1};
  EXPECT_THROW(
      (void)phisvm_train(k.view(), labels, all_indices(4), kDefault), Error);
  EXPECT_THROW(
      (void)libsvm_train(k.view(), labels, all_indices(4), kDefault), Error);
}

TEST(SvmValidation, RejectsSingleSample) {
  linalg::Matrix k(2, 2);
  k.fill(1.0f);
  const std::vector<std::int8_t> labels{1, -1};
  const std::vector<std::size_t> one{0};
  EXPECT_THROW((void)phisvm_train(k.view(), labels, one, kDefault), Error);
}

TEST(Model, SupportVectorCount) {
  Model m;
  m.alpha_y = {0.5, 0.0, -0.5, 0.0};
  EXPECT_EQ(m.support_vectors(), 2u);
}

}  // namespace
}  // namespace fcma::svm
