#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/simd.hpp"
#include "stats/normalization.hpp"

namespace fcma::stats {

void fisher_zscore_block(float* data, std::size_t epochs, std::size_t width,
                         std::size_t ld) {
  if (epochs == 0 || width == 0) return;
  const float inv_e = 1.0f / static_cast<float>(epochs);
  // Column-chunked two-pass sweep, both passes through the runtime-
  // dispatched SIMD micro-kernels: Fisher + moments, then
  // (x - mean) * inv_sd.
  const auto& kernels = linalg::simd::kernels();
  constexpr std::size_t kChunk = 64;
  alignas(64) float sum[kChunk];
  alignas(64) float sumsq[kChunk];
  for (std::size_t j0 = 0; j0 < width; j0 += kChunk) {
    const std::size_t w = std::min(kChunk, width - j0);
    std::fill(sum, sum + w, 0.0f);
    std::fill(sumsq, sumsq + w, 0.0f);
    for (std::size_t e = 0; e < epochs; ++e) {
      kernels.fisher_moments(data + e * ld + j0, sum, sumsq, w);
    }
    for (std::size_t j = 0; j < w; ++j) {
      const float m = sum[j] * inv_e;
      const float var = std::max(0.0f, sumsq[j] * inv_e - m * m);
      const float inv_sd = var > 0.0f ? 1.0f / std::sqrt(var) : 0.0f;
      sum[j] = m;          // reuse: per-column mean
      sumsq[j] = inv_sd;   // reuse: per-column inverse stddev
    }
    for (std::size_t e = 0; e < epochs; ++e) {
      kernels.zscore_finish(data + e * ld + j0, sum, sumsq, w);
    }
  }
}

void fisher_zscore_block_instrumented(float* data, std::size_t epochs,
                                      std::size_t width, std::size_t ld,
                                      memsim::Instrument& ins,
                                      unsigned model_lanes) {
  if (epochs == 0 || width == 0) return;
  const float inv_e = 1.0f / static_cast<float>(epochs);
  const auto& kernels = linalg::simd::kernels();
  const std::size_t chunk = model_lanes;
  std::vector<float> sum(chunk);
  std::vector<float> sumsq(chunk);
  for (std::size_t j0 = 0; j0 < width; j0 += chunk) {
    const auto w =
        static_cast<unsigned>(std::min<std::size_t>(chunk, width - j0));
    std::fill(sum.begin(), sum.begin() + w, 0.0f);
    std::fill(sumsq.begin(), sumsq.begin() + w, 0.0f);
    for (std::size_t e = 0; e < epochs; ++e) {
      float* row = data + e * ld + j0;
      ins.load(row, w);
      // Fisher per Fig 6: on KNC the transcendental (logf) is one EMU-backed
      // vector sequence; we model it as ~4 vector ops (add, sub, div, log)
      // and count the division + log + scale as 4 FLOPs per element.
      ins.arith(w, 4, 4ull * w);
      ins.arith(w, 2, 3ull * w);  // sum += z; sumsq += z*z (fma)
      kernels.fisher_moments(row, sum.data(), sumsq.data(), w);
      ins.store(row, w);
    }
    ins.arith(w, 6, 6ull * w);  // mean, variance, rsqrt per column chunk
    for (unsigned j = 0; j < w; ++j) {
      const float m = sum[j] * inv_e;
      const float var = std::max(0.0f, sumsq[j] * inv_e - m * m);
      const float inv_sd = var > 0.0f ? 1.0f / std::sqrt(var) : 0.0f;
      sum[j] = m;
      sumsq[j] = inv_sd;
    }
    for (std::size_t e = 0; e < epochs; ++e) {
      float* row = data + e * ld + j0;
      ins.load(row, w);
      ins.arith(w, 1, 2ull * w);  // (x - mean) * inv_sd as one FMA
      for (unsigned j = 0; j < w; ++j) {
        row[j] = (row[j] - sum[j]) * sumsq[j];
      }
      ins.store(row, w);
    }
  }
}

}  // namespace fcma::stats
