// Statistical primitives underlying FCMA.
//
// Implements the math of the paper's §3.1: Pearson correlation (eq. 1), the
// normalization that reduces correlation to matrix multiply (eq. 2-3), the
// Fisher transformation (eq. 4), and within-population z-scoring (eq. 5).
#pragma once

#include <cstddef>
#include <span>

namespace fcma::stats {

/// Mean of a sequence (0 for empty input).
[[nodiscard]] double mean(std::span<const float> x);

/// Population variance via the one-pass E[X^2] - E[X]^2 formulation the
/// paper uses in its normalization kernel (§4.3).
[[nodiscard]] double variance_one_pass(std::span<const float> x);

/// Pearson correlation coefficient between two equal-length sequences.
/// This is the reference implementation of eq. 1; the pipeline never calls
/// it on hot paths (it uses the eq. 2-3 reduction instead).
[[nodiscard]] double pearson(std::span<const float> x,
                             std::span<const float> y);

/// Normalizes one epoch vector in place per eq. 2: subtract the mean, then
/// divide by the root sum of squares of the mean-centered values, so that
/// the dot product of two normalized vectors is their Pearson correlation.
/// A constant (zero-variance) vector normalizes to all zeros.  The one
/// normalizer of the repo: the one-row call of the SIMD kernel
/// (linalg::simd::KernelTable::epoch_zscore) every epoch panel goes
/// through.
void normalize_epoch(std::span<float> x);

/// Fisher r-to-z transformation (eq. 4), clamped so |r| = 1 maps to a large
/// finite value instead of infinity (matches how FCMA tooling guards the
/// log singularity).  The one Fisher transform of the repo: the SIMD
/// kernel's bits (linalg::simd::fisher_z), so every caller agrees with the
/// normalization hot path.
[[nodiscard]] float fisher_z(float r);

/// fisher_z of every element of `x`, in place, through the vector kernel.
void fisher_z(std::span<float> x);

/// Largest |z| fisher_z can return (the clamp bound).
[[nodiscard]] float fisher_z_max();

/// Z-scores `x` in place using its own mean/stddev (eq. 5).  A population
/// with zero variance becomes all zeros.
void zscore(std::span<float> x);

}  // namespace fcma::stats
