#include "fcma/seed_analysis.hpp"

#include <algorithm>

#include "stats/stats.hpp"

namespace fcma::core {

SeedContrast seed_contrast_map(const fmri::NormalizedEpochs& epochs,
                               std::uint32_t seed) {
  FCMA_CHECK(!epochs.per_epoch.empty(), "no epochs");
  const std::size_t n = epochs.per_epoch.front().rows();
  FCMA_CHECK(seed < n, "seed voxel out of range");
  const std::size_t m = epochs.per_epoch.size();

  // Seed correlation per (epoch, voxel): the eq. 2 reduction makes this a
  // matrix-vector product per epoch.
  std::vector<std::vector<float>> z(m, std::vector<float>(n));
  for (std::size_t e = 0; e < m; ++e) {
    const linalg::Matrix& act = epochs.per_epoch[e];
    const float* sv = act.row(seed);
    for (std::size_t v = 0; v < n; ++v) {
      const float* row = act.row(v);
      float r = 0.0f;
      for (std::size_t t = 0; t < act.cols(); ++t) r += sv[t] * row[t];
      z[e][v] = r;
    }
    stats::fisher_z(z[e]);
  }

  // Pair label-1 and label-0 epochs within subject in temporal order; the
  // generator's alternating design gives exact pairs, and real designs are
  // analyzed the same way after balancing.
  std::vector<std::size_t> ones;
  std::vector<std::size_t> zeros;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::int32_t current = epochs.meta.empty() ? 0 : epochs.meta[0].subject;
  auto flush = [&]() {
    const std::size_t k = std::min(ones.size(), zeros.size());
    for (std::size_t i = 0; i < k; ++i) pairs.push_back({ones[i], zeros[i]});
    ones.clear();
    zeros.clear();
  };
  for (std::size_t e = 0; e < m; ++e) {
    if (epochs.meta[e].subject != current) {
      flush();
      current = epochs.meta[e].subject;
    }
    (epochs.meta[e].label == 1 ? ones : zeros).push_back(e);
  }
  flush();
  FCMA_CHECK(pairs.size() >= 2, "need at least two condition pairs");

  SeedContrast out;
  out.seed = seed;
  out.delta_z.resize(n);
  out.t.resize(n);
  out.pvalue.resize(n);
  std::vector<double> a(pairs.size());
  std::vector<double> b(pairs.size());
  for (std::size_t v = 0; v < n; ++v) {
    if (v == seed) {
      out.delta_z[v] = 0.0;
      out.t[v] = 0.0;
      out.pvalue[v] = 1.0;
      continue;
    }
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      a[p] = z[pairs[p].first][v];
      b[p] = z[pairs[p].second][v];
    }
    const stats::TTestResult tt = stats::paired_t_test(a, b);
    double mean_diff = 0.0;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      mean_diff += a[p] - b[p];
    }
    out.delta_z[v] = mean_diff / static_cast<double>(pairs.size());
    out.t[v] = tt.t;
    out.pvalue[v] = tt.pvalue;
  }
  return out;
}

std::vector<std::uint32_t> seed_significant_voxels(
    const SeedContrast& contrast, double q) {
  const auto pass = stats::benjamini_hochberg(contrast.pvalue, q);
  std::vector<std::uint32_t> out;
  for (std::size_t v = 0; v < pass.size(); ++v) {
    if (pass[v]) out.push_back(static_cast<std::uint32_t>(v));
  }
  return out;
}

}  // namespace fcma::core
