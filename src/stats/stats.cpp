#include "stats/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/simd.hpp"

namespace fcma::stats {

double mean(std::span<const float> x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (float v : x) s += v;
  return s / static_cast<double>(x.size());
}

double variance_one_pass(std::span<const float> x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  double sq = 0.0;
  for (float v : x) {
    s += v;
    sq += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(x.size());
  const double m = s / n;
  return std::max(0.0, sq / n - m * m);
}

double pearson(std::span<const float> x, std::span<const float> y) {
  FCMA_CHECK(x.size() == y.size() && !x.empty(), "pearson: bad inputs");
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  const double denom = std::sqrt(sxx * syy);
  return denom == 0.0 ? 0.0 : sxy / denom;
}

void normalize_epoch(std::span<float> x) {
  linalg::simd::kernels().epoch_zscore(x.data(), x.size(), x.data(), x.size(),
                                       1, x.size());
}

float fisher_z(float r) { return linalg::simd::fisher_z(r); }

void fisher_z(std::span<float> x) {
  // The block kernel's first pass over one row; its moments go unused.
  const auto& kernels = linalg::simd::kernels();
  constexpr std::size_t kChunk = 64;
  alignas(64) float sum[kChunk] = {};
  alignas(64) float sumsq[kChunk] = {};
  for (std::size_t j0 = 0; j0 < x.size(); j0 += kChunk) {
    kernels.fisher_moments(x.data() + j0, sum, sumsq,
                           std::min(kChunk, x.size() - j0));
  }
}

float fisher_z_max() { return fisher_z(1.0f); }

void zscore(std::span<float> x) {
  if (x.empty()) return;
  const double var = variance_one_pass(x);
  const double m = mean(x);
  if (var <= 0.0) {
    std::fill(x.begin(), x.end(), 0.0f);
    return;
  }
  const auto inv = static_cast<float>(1.0 / std::sqrt(var));
  for (float& v : x) v = (v - static_cast<float>(m)) * inv;
}

}  // namespace fcma::stats
