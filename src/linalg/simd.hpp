// Runtime-dispatched SIMD micro-kernels (paper §4.2-4.4 hot loops).
//
// The optimized kernels' inner loops exist in three explicit variants —
// AVX-512F (16 float lanes), AVX2+FMA (8 lanes), and a portable 4-lane
// fallback — written once as width-templated GCC vector-extension code.
// Wider-than-native vectors are synthesized from narrower operations by the
// compiler, so *every* variant runs correctly on *any* host: forcing the
// AVX-512 table on an SSE-only machine is slow but valid, which is what
// keeps all three paths testable everywhere.
//
// Selection happens once, at first use:
//   1. FCMA_FORCE_ISA=scalar|avx2|avx512 overrides everything (tests, A/B
//      runs, reproducing a narrower machine's numerics — though note the
//      variants are in fact bit-identical, see below);
//   2. otherwise CPUID picks the widest ISA the CPU executes natively.
//
// Numerics: each output element accumulates its products in the same
// (ascending-k) order in every variant, so the three tables produce
// bit-identical results — dispatch changes speed, never answers.  The Fisher
// transform and the SMO kernels are elementwise (plus, for SMO, an index
// reduction whose tie rule is fixed), and the epoch z-score runs one row per
// lane with no cross-lane step, so they bit-match across variants too.
#pragma once

#include <cstddef>
#include <string_view>

namespace fcma::linalg::simd {

/// Instruction-set variants of the micro-kernel table.
enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Human-readable name ("scalar", "avx2", "avx512").
[[nodiscard]] const char* isa_name(Isa isa);

/// Parses an FCMA_FORCE_ISA value (case-sensitive, as documented).
/// Returns true and sets *out on success.
[[nodiscard]] bool parse_isa(std::string_view text, Isa* out);

/// Widest ISA the executing CPU supports natively (CPUID).
[[nodiscard]] Isa detect_isa();

/// The ISA the process resolved at first use: FCMA_FORCE_ISA if set (a bad
/// value throws fcma::Error), else detect_isa().  Cached; later environment
/// changes have no effect.
[[nodiscard]] Isa active_isa();

/// Fisher's r is clamped to +-(1 - kFisherREps) before the log, bounding
/// |z| at ~6.1.  The margin is deliberately wider than float round-off:
/// self-correlations computed by different kernels land at 1 +/- O(1e-7)
/// and must all saturate to the *same* z, otherwise the later
/// within-subject z-scoring amplifies kernel-dependent noise into O(1)
/// differences.
inline constexpr float kFisherREps = 1e-5f;

/// Fisher r-to-z transform of one value, z = 0.5 * log((1 + r) / (1 - r))
/// with r clamped as above and NaN mapped to NaN.  It runs the 4-lane code
/// every table's fisher_moments uses for its last columns, so it returns
/// the kernel's bits.  The log is the repo's own (Cephes logf form), not
/// the host libm's; on every float in [-1, 1] the result is within 1 ulp
/// of the same formula evaluated with std::log.
[[nodiscard]] float fisher_z(float r);

/// Lane multiple of the SMO sweep buffers.  The SMO kernels read whole
/// vectors of every lane width, so their buffers hold a multiple of
/// kSmoPad elements; a padding lane has y = 0, which puts it in neither
/// working set, so no ragged tail is needed at any width.
inline constexpr std::size_t kSmoPad = 16;

/// LibSVM's curvature floor TAU: a working pair's quadratic coefficient is
/// max(K_ii + K_tt - 2 K_it, kSmoTau) (NaN stays NaN, as std::max does).
inline constexpr float kSmoTau = 1e-12f;

/// The SMO state the selection kernels read.  Element t is in the "up" set
/// when (y = +1 and alpha < c) or (y = -1 and alpha > 0), and in the "low"
/// set when (y = +1 and alpha > 0) or (y = -1 and alpha < c).
struct SmoSweep {
  const float* y;      ///< labels +1/-1; 0 marks a padding lane
  const float* alpha;  ///< dual variables, clamped to [0, c]
  const float* grad;   ///< gradient G of the dual objective
  std::size_t n;       ///< element count, a multiple of kSmoPad
  float c;             ///< the box bound alpha is clamped to (>= 0)
};

/// The micro-kernels every optimized hot path calls through.  One table per
/// ISA; all entries of a table are non-null.
struct KernelTable {
  /// gemm row-panel: c[j] = sum_k a[k] * bt[k*width + j] for j in [0,width).
  /// The broadcast-FMA inner loop of the correlation gemm (paper §4.2).
  /// Register block: 4 column vectors per broadcast of an A element.
  void (*gemm_row_panel)(const float* a, std::size_t k, const float* bt,
                         std::size_t width, float* c);

  /// syrk panel: accumulates A_panel * A_panel^T into the lower triangle
  /// of c (ldc-strided, m x m), for A_panel = the m x kb block at a (row
  /// stride lda), read in place.  at_local is the caller's kb x m scratch:
  /// the entry first packs A_panel's transpose into it through register
  /// transposes (paper Fig 7's A^T_local), then sweeps micro-tiles that
  /// broadcast A's elements from A's own rows against vectors of at_local.
  /// Each element sums every opt::kSyrkNumericK elements of kb in a
  /// register from zero, in ascending k, then adds that to C, so the tile
  /// shape never moves a bit.  Entries above the diagonal are scratch.
  void (*syrk_panel)(const float* a, std::size_t lda, float* at_local,
                     std::size_t m, std::size_t kb, float* c, std::size_t ldc);

  /// Normalization pass 1 for one row of a column chunk (paper Fig 6):
  /// row[j] = z = fisher_z(row[j]), then sum[j] += z, sumsq[j] += z*z.
  void (*fisher_moments)(float* row, float* sum, float* sumsq,
                         std::size_t width);

  /// Normalization pass 2 for one row: row[j] = (row[j]-mean[j])*inv_sd[j].
  void (*zscore_finish)(float* row, const float* mean, const float* inv_sd,
                        std::size_t width);

  /// Eq. 2 epoch normalization of `rows` rows of `len` samples, one row per
  /// lane: row x = src + r*lds is written to dst + r*ldd as
  /// (x[t] - float(mean)) * float(1 / sqrt(ss)), where mean = sum / len
  /// and ss = sum of (x[t] - mean)^2 accumulate in double over ascending t;
  /// all zeros when ss <= 0, so a constant row becomes zeros and a row
  /// holding NaN or Inf becomes NaN.  dst may equal src when ldd == lds.
  void (*epoch_zscore)(const float* src, std::size_t lds, float* dst,
                       std::size_t ldd, std::size_t rows, std::size_t len);

  /// SMO working-set sweep (paper §4.4, Keerthi et al.): with
  /// v[t] = -y[t] * grad[t], one pass writes the arg-max of v over the up
  /// set to *i_up and the arg-min of v over the low set to *j_low.  Ties go
  /// to the last index; an empty set (or one holding only NaN) gives -1.
  void (*smo_select)(const SmoSweep& s, int* i_up, int* j_low);

  /// Second-order gain scan (Fan, Chen, Lin 2005) for working index i:
  /// the last arg-min, over t in the low set with diff = g_max - v[t] > 0,
  /// of -(diff * diff) / max(kii + diag[t] - 2 * ki[t], kSmoTau); -1 if
  /// none.  ki is row i of the kernel and diag its contiguous diagonal,
  /// both s.n long.
  int (*smo_gain)(const SmoSweep& s, const float* diag, const float* ki,
                  float kii, float g_max);

  /// Fused PhiSVM gradient update over n (a multiple of kSmoPad) elements:
  /// grad[t] += y[t] * (ci * ki[t] + cj * kj[t]).
  void (*smo_update)(float* grad, const float* y, const float* ki,
                     const float* kj, float ci, float cj, std::size_t n);
};

/// The table for an explicit variant (all variants are safe on all hosts).
[[nodiscard]] const KernelTable& kernels(Isa isa);

/// The table for active_isa().
[[nodiscard]] const KernelTable& kernels();

}  // namespace fcma::linalg::simd
