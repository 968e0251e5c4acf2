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
// bit-identical results — dispatch changes speed, never answers.
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

/// The micro-kernels every optimized hot path calls through.  One table per
/// ISA; all entries of a table are non-null.
struct KernelTable {
  /// gemm row-panel: c[j] = sum_k a[k] * bt[k*width + j] for j in [0,width).
  /// The broadcast-FMA inner loop of the correlation gemm (paper §4.2).
  /// Register block: 4 column vectors per broadcast of an A element.
  void (*gemm_row_panel)(const float* a, std::size_t k, const float* bt,
                         std::size_t width, float* c);

  /// syrk packed-panel sweep: accumulates A_panel * A_panel^T into the
  /// lower-triangle micro-tiles of c (ldc-strided, m x m).  a_local is the
  /// m x kb row-major packed panel, at_local its kb x m transpose
  /// (paper Fig 7).  Micro-tiles are 9 rows tall; C is updated every
  /// opt::kSyrkNumericK elements of kb.
  void (*syrk_panel)(const float* a_local, const float* at_local,
                     std::size_t m, std::size_t kb, float* c, std::size_t ldc);

  /// Normalization pass 1 for one (already Fisher-transformed) row of a
  /// column chunk: sum[j] += row[j], sumsq[j] += row[j]*row[j].  The scalar
  /// fisher_z transcendental stays in stats/ (it is elementwise and
  /// identical for every ISA); the moment accumulation is what vectorizes.
  void (*accumulate_moments)(const float* row, float* sum, float* sumsq,
                             std::size_t width);

  /// Normalization pass 2 for one row: row[j] = (row[j]-mean[j])*inv_sd[j].
  void (*zscore_finish)(float* row, const float* mean, const float* inv_sd,
                        std::size_t width);
};

/// The table for an explicit variant (all variants are safe on all hosts).
[[nodiscard]] const KernelTable& kernels(Isa isa);

/// The table for active_isa().
[[nodiscard]] const KernelTable& kernels();

}  // namespace fcma::linalg::simd
