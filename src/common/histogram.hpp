// Log-bucketed latency histogram: fixed-footprint percentile tracking.
//
// A span's count and total answer "how much time", but the paper's
// load-balance story (§3.1.1, Table 3) and any straggler diagnosis need the
// *distribution* of span latencies — a handful of slow SVM voxels can hide
// behind a healthy mean.  LatencyHistogram buckets durations by power-of-two
// nanoseconds (bucket b counts durations whose nanosecond value has bit
// width b), which covers 1 ns .. ~290 years in 64 fixed counters with a
// worst-case quantile error of one octave, tightened by linear interpolation
// inside the winning bucket.  Recording is one bit-scan plus one increment;
// merging is 64 additions — cheap enough to fold one histogram per span
// label (or span class) when a view is rendered from the event stream.
#pragma once

#include <bit>
#include <cstdint>

#include <array>

namespace fcma::trace {

class LatencyHistogram {
 public:
  // Bucket b holds durations whose nanosecond count has bit width b:
  // bucket 0 is exactly {0 ns}, bucket b >= 1 covers [2^(b-1), 2^b - 1].
  static constexpr std::size_t kBuckets = 65;  // bit_width ranges 0..64

  /// Folds one duration into the histogram (negative clamps to zero).
  void record_seconds(double seconds) { record_ns(to_ns(seconds)); }

  void record_ns(std::uint64_t ns) {
    ++buckets_[bucket_of(ns)];
    ++count_;
  }

  /// Accumulates every bucket of `other` into this histogram.
  void merge(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t b) const {
    return buckets_[b];
  }

  /// Quantile estimate in seconds for p in [0, 1]: finds the bucket holding
  /// the rank-p sample and interpolates linearly across the bucket's
  /// nanosecond range.  Returns 0 for an empty histogram.  Callers that
  /// track exact min/max should clamp the estimate to them.
  [[nodiscard]] double quantile(double p) const;

  void reset() {
    buckets_.fill(0);
    count_ = 0;
  }

  /// Bucket index of a nanosecond duration: bit width of ns (0 for ns==0).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t ns) {
    return static_cast<std::size_t>(std::bit_width(ns));
  }

  [[nodiscard]] static std::uint64_t to_ns(double seconds) {
    if (seconds <= 0.0) return 0;
    const double ns = seconds * 1e9;
    if (ns >= 9.2e18) return ~std::uint64_t{0} >> 1;  // clamp, no UB
    return static_cast<std::uint64_t>(ns);
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

}  // namespace fcma::trace
