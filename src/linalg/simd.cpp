#include "linalg/simd.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/platform.hpp"
#include "linalg/opt.hpp"

#if defined(__AVX__)
#include <immintrin.h>
#endif

namespace fcma::linalg::simd {

namespace {

// One source, three widths.  A GCC vector of W floats compiles on every
// target: when W exceeds the native register width the compiler splits the
// operation into narrower ones, so the 16-lane table is merely slow — never
// illegal — on an AVX2 or SSE host.  The `aligned(4)` relaxation makes
// every load/store unaligned-safe (panel offsets are not always 64-byte
// multiples).
template <int W>
struct VecOf {
  typedef float type
      __attribute__((vector_size(W * sizeof(float)), aligned(4)));
};

template <int W>
struct IVecOf {
  typedef std::int32_t type
      __attribute__((vector_size(W * sizeof(std::int32_t)), aligned(4)));
};

template <typename Vec, typename T>
FCMA_FORCE_INLINE Vec splat(T x) {
  Vec v;
  for (std::size_t l = 0; l < sizeof(Vec) / sizeof(T); ++l) v[l] = x;
  return v;
}

template <int W>
FCMA_FORCE_INLINE typename VecOf<W>::type vload(const float* p) {
  return *reinterpret_cast<const typename VecOf<W>::type*>(p);
}

template <int W>
FCMA_FORCE_INLINE void vstore(float* p, typename VecOf<W>::type v) {
  *reinterpret_cast<typename VecOf<W>::type*>(p) = v;
}

// Bit-identity across lane widths.  Every variant accumulates each output
// element over ascending k, but whether an expression is FMA-contracted can
// differ between a templated vector loop and a scalar remainder loop — and
// that one ULP would make FCMA_FORCE_ISA change answers.  So the ragged
// tails below are NON-template helpers, compiled exactly once and shared by
// all three tables, and they run the same 4-lane vector expression as the
// main loops (final <4 columns go through a zero-padded 4-lane step rather
// than scalar code).  The element partition "wide vectors for the bulk,
// this shared tail for the rest" is then identical in every variant.

using V4 = VecOf<4>::type;

// ---------------------------------------------------------------------------
// gemm row-panel: the broadcast-FMA stream of the correlation gemm.
// Register block: 4 vectors of W accumulators per step, one broadcast of A
// per K element amortized over all 4 (paper §4.2 idea #1/#3).
// ---------------------------------------------------------------------------

// Columns [j0, width): 4-lane blocks, then one padded 4-lane step.
void gemm_row_tail(const float* FCMA_RESTRICT a, std::size_t k,
                   const float* FCMA_RESTRICT bt, std::size_t width,
                   std::size_t j0, float* FCMA_RESTRICT c) {
  std::size_t j = j0;
  for (; j + 4 <= width; j += 4) {
    V4 acc = {};
    for (std::size_t kk = 0; kk < k; ++kk) {
      acc += a[kk] * vload<4>(bt + kk * width + j);
    }
    vstore<4>(c + j, acc);
  }
  if (j < width) {
    const std::size_t rem = width - j;
    V4 acc = {};
    alignas(16) float tmp[4] = {};
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t l = 0; l < rem; ++l) tmp[l] = bt[kk * width + j + l];
      acc += a[kk] * vload<4>(tmp);
    }
    for (std::size_t l = 0; l < rem; ++l) c[j + l] = acc[l];
  }
}

// U = column vectors advanced per broadcast of an A element.  Each output
// element's dot product is computed whole in one accumulator.
template <int W>
void gemm_row_panel_t(const float* FCMA_RESTRICT a, std::size_t k,
                      const float* FCMA_RESTRICT bt, std::size_t width,
                      float* FCMA_RESTRICT c) {
  using V = typename VecOf<W>::type;
  constexpr int U = opt::kGemmUnroll;
  constexpr std::size_t kStep = U * W;
  std::size_t j = 0;
  for (; j + kStep <= width; j += kStep) {
    V acc[U] = {};
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a[kk];
      const float* FCMA_RESTRICT btk = bt + kk * width + j;
      for (int u = 0; u < U; ++u) {
        acc[u] += av * vload<W>(btk + u * W);
      }
    }
    for (int u = 0; u < U; ++u) {
      vstore<W>(c + j + u * W, acc[u]);
    }
  }
  for (; j + W <= width; j += W) {
    V acc = {};
    for (std::size_t kk = 0; kk < k; ++kk) {
      acc += a[kk] * vload<W>(bt + kk * width + j);
    }
    vstore<W>(c + j, acc);
  }
  gemm_row_tail(a, k, bt, width, j, c);
}

// ---------------------------------------------------------------------------
// syrk panel (paper Fig 7, re-blocked for the host): pack the panel's
// transpose once, then sweep the lower triangle in micro-tiles whose
// broadcasts read A's rows in place.  The register accumulators start at
// zero and flush into C on a FIXED cadence of opt::kSyrkNumericK elements
// at every lane width and tile shape, so every element sees the same
// multiply-add chain whichever tile computes it, and all ISAs round alike.
// The full tiles fix that substep at compile time; ragged substeps fall to
// the shared edge handler.
// ---------------------------------------------------------------------------

// Host micro-tile height: 8 rows by two vectors hold 16 accumulators.
// opt::kSyrkMicroRows (9) is the paper's KNC tile, which the instrumented
// model narrates; it does not bind the host kernel.
constexpr std::size_t kSyrkTileRows = 8;

using V8 = VecOf<8>::type;

// In-register transpose of 4 rows of 4 floats.
FCMA_FORCE_INLINE void transpose4(V4& a, V4& b, V4& c, V4& d) {
  const V4 ab_lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
  const V4 ab_hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
  const V4 cd_lo = __builtin_shufflevector(c, d, 0, 4, 1, 5);
  const V4 cd_hi = __builtin_shufflevector(c, d, 2, 6, 3, 7);
  a = __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5);
  b = __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7);
  c = __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5);
  d = __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7);
}

// In-register transpose of 8 rows of 8 floats: unpack pairs of rows, then
// pairs of pairs, then swap 128-bit halves (vunpck/vshufps/vperm2f128
// where AVX is present).
FCMA_FORCE_INLINE void transpose8(V8 (&r)[8]) {
  V8 t[8];
  for (int p = 0; p < 4; ++p) {
    t[2 * p] = __builtin_shufflevector(r[2 * p], r[2 * p + 1], 0, 8, 1, 9, 4,
                                       12, 5, 13);
    t[2 * p + 1] = __builtin_shufflevector(r[2 * p], r[2 * p + 1], 2, 10, 3,
                                           11, 6, 14, 7, 15);
  }
  V8 u[8];
  for (int h = 0; h < 2; ++h) {
    for (int q = 0; q < 2; ++q) {
      const V8& x = t[4 * h + q];
      const V8& y = t[4 * h + q + 2];
      u[4 * h + 2 * q] =
          __builtin_shufflevector(x, y, 0, 1, 8, 9, 4, 5, 12, 13);
      u[4 * h + 2 * q + 1] =
          __builtin_shufflevector(x, y, 2, 3, 10, 11, 6, 7, 14, 15);
    }
  }
  for (int c = 0; c < 4; ++c) {
    r[c] = __builtin_shufflevector(u[c], u[c + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    r[c + 4] =
        __builtin_shufflevector(u[c], u[c + 4], 4, 5, 6, 7, 12, 13, 14, 15);
  }
}

// at[k * m + i] = a[i * lda + k] for i < m, k < kb: B x B blocks through
// register transposes (B = 8 from the AVX2 table up, 4 in the portable
// one), then 4 x 4 blocks, then single elements for the last rows and
// columns.  A pure copy, so its form cannot change a bit.  The 8 x 8 form
// made the whole M = 216 syrk 3-10% faster than 4 x 4 blocks alone on an
// AVX-512 host.
template <int W>
void syrk_pack_t(const float* FCMA_RESTRICT a, std::size_t lda,
                 std::size_t m, std::size_t kb, float* FCMA_RESTRICT at) {
  std::size_t i = 0;
  if constexpr (W >= 8) {
    for (; i + 8 <= m; i += 8) {
      std::size_t k = 0;
      for (; k + 8 <= kb; k += 8) {
        V8 r[8];
        for (int q = 0; q < 8; ++q) r[q] = vload<8>(a + (i + q) * lda + k);
        transpose8(r);
        for (int q = 0; q < 8; ++q) vstore<8>(at + (k + q) * m + i, r[q]);
      }
      for (; k < kb; ++k) {
        for (std::size_t q = 0; q < 8; ++q) {
          at[k * m + i + q] = a[(i + q) * lda + k];
        }
      }
    }
  }
  for (; i + 4 <= m; i += 4) {
    std::size_t k = 0;
    for (; k + 4 <= kb; k += 4) {
      const float* src = a + i * lda + k;
      V4 r0 = vload<4>(src);
      V4 r1 = vload<4>(src + lda);
      V4 r2 = vload<4>(src + 2 * lda);
      V4 r3 = vload<4>(src + 3 * lda);
      transpose4(r0, r1, r2, r3);
      float* dst = at + k * m + i;
      vstore<4>(dst, r0);
      vstore<4>(dst + m, r1);
      vstore<4>(dst + 2 * m, r2);
      vstore<4>(dst + 3 * m, r3);
    }
    for (; k < kb; ++k) {
      for (std::size_t q = 0; q < 4; ++q) {
        at[k * m + i + q] = a[(i + q) * lda + k];
      }
    }
  }
  for (; i < m; ++i) {
    for (std::size_t k = 0; k < kb; ++k) at[k * m + i] = a[i * lda + k];
  }
}

// kSyrkTileRows x (NV * W) tile over one full substep.
template <int W, int NV>
void syrk_tile_full(const float* FCMA_RESTRICT a_tile, std::size_t lda,
                    const float* FCMA_RESTRICT at_tile, std::size_t ldat,
                    float* FCMA_RESTRICT c_tile, std::size_t ldc) {
  using V = typename VecOf<W>::type;
  V acc[kSyrkTileRows][NV] = {};
  for (std::size_t k = 0; k < opt::kSyrkNumericK; ++k) {
    V at[NV];
    for (int v = 0; v < NV; ++v) at[v] = vload<W>(at_tile + k * ldat + v * W);
    for (std::size_t r = 0; r < kSyrkTileRows; ++r) {
      const float av = a_tile[r * lda + k];
      for (int v = 0; v < NV; ++v) acc[r][v] += av * at[v];
    }
  }
  for (std::size_t r = 0; r < kSyrkTileRows; ++r) {
    for (int v = 0; v < NV; ++v) {
      float* FCMA_RESTRICT crow = c_tile + r * ldc + v * W;
      vstore<W>(crow, vload<W>(crow) + acc[r][v]);
    }
  }
}

// Ragged edges of the triangle (short rows/columns or a short trailing
// substep).  4-lane blocks with a zero-padded final step, so an element
// that lands in a full tile under one lane width or tile shape and here
// under another still sees the exact same multiply-add chain.
void syrk_tile_edge(const float* FCMA_RESTRICT a_tile, std::size_t lda,
                    const float* FCMA_RESTRICT at_tile, std::size_t ldat,
                    std::size_t kb, std::size_t rows, std::size_t cols,
                    float* FCMA_RESTRICT c_tile, std::size_t ldc) {
  for (std::size_t w0 = 0; w0 < cols; w0 += 4) {
    const std::size_t lanes = std::min<std::size_t>(4, cols - w0);
    V4 acc[kSyrkTileRows] = {};
    if (lanes == 4) {
      for (std::size_t k = 0; k < kb; ++k) {
        const V4 at = vload<4>(at_tile + k * ldat + w0);
        for (std::size_t r = 0; r < rows; ++r) {
          acc[r] += a_tile[r * lda + k] * at;
        }
      }
    } else {
      alignas(16) float tmp[4] = {};
      for (std::size_t k = 0; k < kb; ++k) {
        for (std::size_t l = 0; l < lanes; ++l) {
          tmp[l] = at_tile[k * ldat + w0 + l];
        }
        const V4 at = vload<4>(tmp);
        for (std::size_t r = 0; r < rows; ++r) {
          acc[r] += a_tile[r * lda + k] * at;
        }
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      float* crow = c_tile + r * ldc + w0;
      for (std::size_t l = 0; l < lanes; ++l) crow[l] += acc[r][l];
    }
  }
}

// Packs the panel's transpose into at_local, then sweeps row strips of
// kSyrkTileRows over the columns each strip needs of the lower triangle:
// two-vector tiles while the second vector still reaches the strip's
// diagonal, a one-vector tile for the rest while a whole vector fits, and
// the edge handler for what is left.
template <int W>
void syrk_panel_t(const float* FCMA_RESTRICT a, std::size_t lda,
                  float* FCMA_RESTRICT at_local, std::size_t m,
                  std::size_t kb, float* FCMA_RESTRICT c, std::size_t ldc) {
  static_assert(W <= 16, "tiles sized for <= 16 lanes");
  syrk_pack_t<W>(a, lda, m, kb, at_local);
  for (std::size_t k0 = 0; k0 < kb; k0 += opt::kSyrkNumericK) {
    const std::size_t kbs = std::min(opt::kSyrkNumericK, kb - k0);
    for (std::size_t i0 = 0; i0 < m; i0 += kSyrkTileRows) {
      const std::size_t rows = std::min(kSyrkTileRows, m - i0);
      // Columns [0, i0 + rows) hold the strip's lower-triangle elements;
      // mirror_upper overwrites whatever a tile writes above the diagonal.
      const std::size_t j_end = i0 + rows;
      const bool full = rows == kSyrkTileRows && kbs == opt::kSyrkNumericK;
      const float* a_tile = a + i0 * lda + k0;
      const float* at_tile = at_local + k0 * m;
      float* c_tile = c + i0 * ldc;
      std::size_t j0 = 0;
      if (full) {
        for (; j0 + W < j_end && j0 + 2 * W <= m; j0 += 2 * W) {
          syrk_tile_full<W, 2>(a_tile, lda, at_tile + j0, m, c_tile + j0,
                               ldc);
        }
        for (; j0 < j_end && j0 + W <= m; j0 += W) {
          syrk_tile_full<W, 1>(a_tile, lda, at_tile + j0, m, c_tile + j0,
                               ldc);
        }
      }
      if (j0 < j_end) {
        syrk_tile_edge(a_tile, lda, at_tile + j0, m, kbs, rows, j_end - j0,
                       c_tile + j0, ldc);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Normalization inner loops (paper §4.3 / Fig 6).  Column-parallel, so lane
// width never reorders a column's accumulation: all variants bit-match.
// ---------------------------------------------------------------------------

// Fisher's z = 0.5 * log(q), q = (1 + r) / (1 - r), with a repo-owned log
// (the Cephes logf form) so no answer depends on the host libm:
//   q = m * 2^e, m in [0.5, 1) from the float's bits; m < sqrt(1/2) is
//   doubled (and e decremented) so x = m - 1 lies in [-0.293, 0.414);
//   log q = x - x^2/2 + x^3 P(x) + e * ln 2, P of degree 8, ln 2 split
//   into 0.693359375 (exact in float) - 2.12194440e-4.
// After the clamp q lies in [~5e-6, ~2e5]: always a normal float, so no
// zero, infinity or denormal branch is needed.  A NaN r gives a NaN q,
// whose bits would decode to a finite m; the final select passes it on.
template <int W>
FCMA_FORCE_INLINE typename VecOf<W>::type fisher_z_vec(
    typename VecOf<W>::type r) {
  using V = typename VecOf<W>::type;
  using I = typename IVecOf<W>::type;
  constexpr float kHi = 1.0f - kFisherREps;
  r = r > kHi ? splat<V>(kHi) : r;
  r = r < -kHi ? splat<V>(-kHi) : r;
  const V q = (1.0f + r) / (1.0f - r);
  const I bits = reinterpret_cast<I>(q);
  I e = ((bits >> 23) & 0xff) - 126;
  const V m = reinterpret_cast<V>((bits & 0x007fffff) | 0x3f000000);
  const I small = m < 0.707106781186547524f;  // -1 where true
  e += small;
  const V x = (m + (small ? m : V{})) - 1.0f;
  const V x2 = x * x;
  V p = splat<V>(7.0376836292e-2f);
  p = p * x - 1.1514610310e-1f;
  p = p * x + 1.1676998740e-1f;
  p = p * x - 1.2420140846e-1f;
  p = p * x + 1.4249322787e-1f;
  p = p * x - 1.6668057665e-1f;
  p = p * x + 2.0000714765e-1f;
  p = p * x - 2.4999993993e-1f;
  p = p * x + 3.3333331174e-1f;
  const V fe = __builtin_convertvector(e, V);
  V y = p * x * x2;
  y += -2.12194440e-4f * fe;
  y += -0.5f * x2;
  V log_q = x + y;
  log_q += 0.693359375f * fe;
  return q == q ? 0.5f * log_q : q;
}

// The 4-lane transform, compiled once: the tail below and the one-value
// fisher_z() both call it, so they share its exact instructions.
__attribute__((noinline)) V4 fisher_z4(V4 r) { return fisher_z_vec<4>(r); }

// Columns [j0, width) for the Fisher + moments pass, shared by all lane
// widths.
void fisher_moments_tail(float* FCMA_RESTRICT row, float* FCMA_RESTRICT sum,
                         float* FCMA_RESTRICT sumsq, std::size_t width,
                         std::size_t j0) {
  std::size_t j = j0;
  for (; j + 4 <= width; j += 4) {
    const V4 z = fisher_z4(vload<4>(row + j));
    vstore<4>(row + j, z);
    vstore<4>(sum + j, vload<4>(sum + j) + z);
    vstore<4>(sumsq + j, vload<4>(sumsq + j) + z * z);
  }
  if (j < width) {
    const std::size_t rem = width - j;
    alignas(16) float rt[4] = {};
    alignas(16) float st[4] = {};
    alignas(16) float qt[4] = {};
    for (std::size_t l = 0; l < rem; ++l) {
      rt[l] = row[j + l];
      st[l] = sum[j + l];
      qt[l] = sumsq[j + l];
    }
    const V4 z = fisher_z4(vload<4>(rt));
    const V4 s = vload<4>(st) + z;
    const V4 q = vload<4>(qt) + z * z;
    for (std::size_t l = 0; l < rem; ++l) {
      row[j + l] = z[l];
      sum[j + l] = s[l];
      sumsq[j + l] = q[l];
    }
  }
}

template <int W>
void fisher_moments_t(float* FCMA_RESTRICT row, float* FCMA_RESTRICT sum,
                      float* FCMA_RESTRICT sumsq, std::size_t width) {
  using V = typename VecOf<W>::type;
  std::size_t j = 0;
  for (; j + W <= width; j += W) {
    const V z = fisher_z_vec<W>(vload<W>(row + j));
    vstore<W>(row + j, z);
    vstore<W>(sum + j, vload<W>(sum + j) + z);
    vstore<W>(sumsq + j, vload<W>(sumsq + j) + z * z);
  }
  fisher_moments_tail(row, sum, sumsq, width, j);
}

// Columns [j0, width) for the z-score pass, shared by all lane widths.
void zscore_finish_tail(float* FCMA_RESTRICT row,
                        const float* FCMA_RESTRICT mean,
                        const float* FCMA_RESTRICT inv_sd, std::size_t width,
                        std::size_t j0) {
  std::size_t j = j0;
  for (; j + 4 <= width; j += 4) {
    vstore<4>(row + j,
              (vload<4>(row + j) - vload<4>(mean + j)) * vload<4>(inv_sd + j));
  }
  if (j < width) {
    const std::size_t rem = width - j;
    alignas(16) float rt[4] = {};
    alignas(16) float mt[4] = {};
    alignas(16) float it[4] = {};
    for (std::size_t l = 0; l < rem; ++l) {
      rt[l] = row[j + l];
      mt[l] = mean[j + l];
      it[l] = inv_sd[j + l];
    }
    const V4 out = (vload<4>(rt) - vload<4>(mt)) * vload<4>(it);
    for (std::size_t l = 0; l < rem; ++l) row[j + l] = out[l];
  }
}

template <int W>
void zscore_finish_t(float* FCMA_RESTRICT row, const float* FCMA_RESTRICT mean,
                     const float* FCMA_RESTRICT inv_sd, std::size_t width) {
  std::size_t j = 0;
  for (; j + W <= width; j += W) {
    vstore<W>(row + j,
              (vload<W>(row + j) - vload<W>(mean + j)) * vload<W>(inv_sd + j));
  }
  zscore_finish_tail(row, mean, inv_sd, width, j);
}

// ---------------------------------------------------------------------------
// Epoch normalization (eq. 2), one row per lane.  Every lane runs the scalar
// formula's exact steps — a double sum over ascending t, mean = sum / len, a
// double sum of squared deviations, float(1 / sqrt(ss)), then
// (x - float(mean)) * inv — and no step mixes lanes, so a row gets the same
// bits at every width and in the shared tail.
//
// A group of W rows is W/4 parts of 4 rows, and every step runs on 4-lane
// vectors (4 doubles are one register from AVX up; a wider double vector
// has no machine mode below AVX-512, and GCC keeps it in memory), the
// parts interleaved for independent chains.  Each 4 x 4 block of a part (4 rows,
// 4 samples) comes in as 4 row loads and a register transpose, so sample t
// of a part is one vector; the first pass sums it and parks it in a stack
// tile, tile[t * W + l], for the other two, and the outputs leave through
// the reverse transpose.  The tile holds kEpochTileT samples: a longer row
// is re-read chunk by chunk in each pass.  Every chunk is read before its
// outputs are written, so dst may alias src.
// ---------------------------------------------------------------------------
constexpr std::size_t kEpochTileT = 32;

typedef double D4 __attribute__((vector_size(4 * sizeof(double))));
using I4 = IVecOf<4>::type;

// Lane-wise float -> double.  Spelled element by element because GCC 12
// lowers a widening __builtin_convertvector to two half-width conversions
// and a shuffle, where this form is one vcvtps2pd.
FCMA_FORCE_INLINE D4 widen(V4 x) { return D4{x[0], x[1], x[2], x[3]}; }

// Lane-wise sqrt, correctly rounded either way.  The scalar builtin keeps
// an errno branch per lane, so AVX builds take the vector instruction.
FCMA_FORCE_INLINE D4 sqrt4(D4 x) {
#if defined(__AVX__)
  return reinterpret_cast<D4>(_mm256_sqrt_pd(reinterpret_cast<__m256d>(x)));
#else
  return D4{__builtin_sqrt(x[0]), __builtin_sqrt(x[1]), __builtin_sqrt(x[2]),
            __builtin_sqrt(x[3])};
#endif
}

// Parks samples [t0, t0 + tn) of `lanes` rows in tile[t * W + l], adding
// each part's samples to sum[p] in ascending t when kSum.  Whole parts go
// through 4 x 4 transposes; fewer than 4 rows (only W == 4) are read one
// sample at a time, their missing lanes zero.
template <int W, bool kSum>
FCMA_FORCE_INLINE void epoch_load(const float* src, std::size_t lds,
                                  std::size_t lanes, std::size_t t0,
                                  std::size_t tn, float* FCMA_RESTRICT tile,
                                  D4* sum) {
  constexpr int P = W / 4;
  if (lanes < 4) {
    for (std::size_t t = 0; t < tn; ++t) {
      V4 x = {};
      for (std::size_t l = 0; l < lanes; ++l) x[l] = src[l * lds + t0 + t];
      vstore<4>(tile + t * W, x);
      if (kSum) sum[0] += widen(x);
    }
    return;
  }
  std::size_t t = 0;
  for (; t + 4 <= tn; t += 4) {
    for (int p = 0; p < P; ++p) {
      const float* row = src + 4 * p * lds + t0 + t;
      V4 a = vload<4>(row);
      V4 b = vload<4>(row + lds);
      V4 c = vload<4>(row + 2 * lds);
      V4 d = vload<4>(row + 3 * lds);
      transpose4(a, b, c, d);
      float* at = tile + t * W + 4 * p;
      vstore<4>(at, a);
      vstore<4>(at + W, b);
      vstore<4>(at + 2 * W, c);
      vstore<4>(at + 3 * W, d);
      if (kSum) {
        sum[p] += widen(a);
        sum[p] += widen(b);
        sum[p] += widen(c);
        sum[p] += widen(d);
      }
    }
  }
  for (; t < tn; ++t) {
    for (int p = 0; p < P; ++p) {
      const float* row = src + 4 * p * lds + t0 + t;
      const V4 x = {row[0], row[lds], row[2 * lds], row[3 * lds]};
      vstore<4>(tile + t * W + 4 * p, x);
      if (kSum) sum[p] += widen(x);
    }
  }
}

// Writes the normalized samples [t0, t0 + tn) of `lanes` rows from the
// parked ones, the reverse of epoch_load.
template <int W>
FCMA_FORCE_INLINE void epoch_store(const float* FCMA_RESTRICT tile,
                                   std::size_t lanes, std::size_t t0,
                                   std::size_t tn, const V4* mean,
                                   const V4* inv, const I4* flat, float* dst,
                                   std::size_t ldd) {
  constexpr int P = W / 4;
  const auto z = [&](int p, std::size_t t) {
    const V4 v = (vload<4>(tile + t * W + 4 * p) - mean[p]) * inv[p];
    return flat[p] ? V4{} : v;
  };
  if (lanes < 4) {
    for (std::size_t t = 0; t < tn; ++t) {
      const V4 y = z(0, t);
      for (std::size_t l = 0; l < lanes; ++l) dst[l * ldd + t0 + t] = y[l];
    }
    return;
  }
  std::size_t t = 0;
  for (; t + 4 <= tn; t += 4) {
    for (int p = 0; p < P; ++p) {
      V4 a = z(p, t);
      V4 b = z(p, t + 1);
      V4 c = z(p, t + 2);
      V4 d = z(p, t + 3);
      transpose4(a, b, c, d);
      float* row = dst + 4 * p * ldd + t0 + t;
      vstore<4>(row, a);
      vstore<4>(row + ldd, b);
      vstore<4>(row + 2 * ldd, c);
      vstore<4>(row + 3 * ldd, d);
    }
  }
  for (; t < tn; ++t) {
    for (int p = 0; p < P; ++p) {
      const V4 y = z(p, t);
      float* row = dst + 4 * p * ldd + t0 + t;
      for (int l = 0; l < 4; ++l) row[l * ldd] = y[l];
    }
  }
}

// Normalizes `lanes` rows: W of them, or 1-3 (W == 4) for the last rows of
// the tail.
template <int W>
FCMA_FORCE_INLINE void epoch_zscore_group(const float* src, std::size_t lds,
                                          float* dst, std::size_t ldd,
                                          std::size_t lanes, std::size_t len) {
  constexpr int P = W / 4;
  alignas(64) float tile[kEpochTileT * W];
  const bool reload = len > kEpochTileT;
  D4 sum[P] = {};
  for (std::size_t t0 = 0; t0 < len; t0 += kEpochTileT) {
    const std::size_t tn = std::min(kEpochTileT, len - t0);
    epoch_load<W, true>(src, lds, lanes, t0, tn, tile, sum);
  }
  D4 mean[P];
  for (int p = 0; p < P; ++p) mean[p] = sum[p] / static_cast<double>(len);
  D4 ss[P] = {};
  for (std::size_t t0 = 0; t0 < len; t0 += kEpochTileT) {
    const std::size_t tn = std::min(kEpochTileT, len - t0);
    if (reload) epoch_load<W, false>(src, lds, lanes, t0, tn, tile, nullptr);
    for (std::size_t t = 0; t < tn; ++t) {
      for (int p = 0; p < P; ++p) {
        const D4 d = widen(vload<4>(tile + t * W + 4 * p)) - mean[p];
        ss[p] += d * d;
      }
    }
  }
  V4 mean_f[P];
  V4 inv[P];
  I4 flat[P];
  for (int p = 0; p < P; ++p) {
    mean_f[p] = __builtin_convertvector(mean[p], V4);
    inv[p] = __builtin_convertvector(1.0 / sqrt4(ss[p]), V4);
    flat[p] = __builtin_convertvector(ss[p] <= 0.0, I4);
  }
  for (std::size_t t0 = 0; t0 < len; t0 += kEpochTileT) {
    const std::size_t tn = std::min(kEpochTileT, len - t0);
    if (reload) epoch_load<W, false>(src, lds, lanes, t0, tn, tile, nullptr);
    epoch_store<W>(tile, lanes, t0, tn, mean_f, inv, flat, dst, ldd);
  }
}

// Rows past the last full group, shared by all lane widths: 4-row groups,
// then the last 1-3 rows.
__attribute__((noinline)) void epoch_zscore_tail(const float* src,
                                                 std::size_t lds, float* dst,
                                                 std::size_t ldd,
                                                 std::size_t rows,
                                                 std::size_t len) {
  for (std::size_t r = 0; r < rows; r += 4) {
    epoch_zscore_group<4>(src + r * lds, lds, dst + r * ldd, ldd,
                          std::min<std::size_t>(4, rows - r), len);
  }
}

template <int W>
void epoch_zscore_t(const float* src, std::size_t lds, float* dst,
                    std::size_t ldd, std::size_t rows, std::size_t len) {
  std::size_t r = 0;
  for (; r + W <= rows; r += W) {
    epoch_zscore_group<W>(src + r * lds, lds, dst + r * ldd, ldd, W, len);
  }
  epoch_zscore_tail(src + r * lds, lds, dst + r * ldd, ldd, rows - r, len);
}

// ---------------------------------------------------------------------------
// SMO sweeps (paper §4.4, PhiSVM).  Each lane keeps its own extremum and the
// last index reaching it; the lanes then reduce to the global extremum with
// ties going to the largest index, which is exactly the last index a
// sequential `>=` / `<=` scan would keep.  Every element's float arithmetic
// is the scalar expression, so the result does not depend on W.
// ---------------------------------------------------------------------------
template <int W, int... L>
FCMA_FORCE_INLINE typename IVecOf<W>::type lane_ids(
    std::integer_sequence<int, L...>) {
  return typename IVecOf<W>::type{L...};
}

template <int W>
FCMA_FORCE_INLINE typename IVecOf<W>::type lane_ids() {
  return lane_ids<W>(std::make_integer_sequence<int, W>());
}

// Butterfly reduction: after log2(W) exchange steps every lane holds the
// pick of all lanes.  `pick(a, b)` must be commutative and associative.
template <int Step, typename Vec, int... L>
FCMA_FORCE_INLINE Vec swap_lanes(Vec v, std::integer_sequence<int, L...>) {
  return __builtin_shufflevector(v, v, (L ^ Step)...);
}

template <int W, int Step = W / 2, typename Vec, typename Pick>
FCMA_FORCE_INLINE Vec all_lanes(Vec v, Pick pick) {
  if constexpr (Step == 0) {
    return v;
  } else {
    v = pick(v, swap_lanes<Step>(v, std::make_integer_sequence<int, W>()));
    return all_lanes<W, Step / 2>(v, pick);
  }
}

// Reduces per-lane (extremum, last index reaching it) pairs to the global
// extremum's largest index; -1 when no lane took an element.  kMax picks
// the largest value, otherwise the smallest.  Lanes that took nothing still
// hold their ±inf start value and index -1, so they never win a tie.  No
// lane holds a NaN.
template <bool kMax, int W>
int reduce_last_extremum(typename VecOf<W>::type best,
                         typename IVecOf<W>::type idx) {
  using V = typename VecOf<W>::type;
  using I = typename IVecOf<W>::type;
  const V m = all_lanes<W>(best, [](V a, V b) {
    return kMax ? (a > b ? a : b) : (a < b ? a : b);
  });
  const I at_m = best == m ? idx : splat<I>(-1);
  return all_lanes<W>(at_m, [](I a, I b) { return a > b ? a : b; })[0];
}

// One chunk's candidates: v = -y*G where the element is in the up (low)
// set, NaN elsewhere, so a single ordered compare both applies the set and
// tracks the extremum.  With ya = y*alpha (exact for y in {-1, 0, 1}):
//   up:  y = +1: alpha < c  <=>  ya < c;   y = -1: alpha > 0  <=>  ya < 0
//   low: y = +1: alpha > 0  <=>  ya > 0;   y = -1: alpha < c  <=>  ya > -c
// i.e. ya < max(c*y, 0) and ya > min(c*y, 0); a padding lane (y = 0) fails
// both.
template <int W>
struct SmoCandidates {
  typename VecOf<W>::type up;
  typename VecOf<W>::type low;
};

template <int W>
FCMA_FORCE_INLINE SmoCandidates<W> smo_candidates(const SmoSweep& s,
                                                  std::size_t t) {
  using V = typename VecOf<W>::type;
  const V zero = {};
  const V nan = splat<V>(std::numeric_limits<float>::quiet_NaN());
  const V y = vload<W>(s.y + t);
  const V v = -y * vload<W>(s.grad + t);
  const V ya = y * vload<W>(s.alpha + t);
  const V cy = s.c * y;
  return {ya < (cy > zero ? cy : zero) ? v : nan,
          ya > (cy < zero ? cy : zero) ? v : nan};
}

template <int W>
void smo_select_t(const SmoSweep& s, int* i_up, int* j_low) {
  using V = typename VecOf<W>::type;
  using I = typename IVecOf<W>::type;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  V up_best = splat<V>(-kInf);
  V low_best = splat<V>(kInf);
  I up_idx = splat<I>(-1);
  I low_idx = splat<I>(-1);
  I idx = lane_ids<W>();
  for (std::size_t t = 0; t < s.n; t += W) {
    const SmoCandidates<W> v = smo_candidates<W>(s, t);
    const I take_up = v.up >= up_best;
    const I take_low = v.low <= low_best;
    up_best = take_up ? v.up : up_best;
    up_idx = take_up ? idx : up_idx;
    low_best = take_low ? v.low : low_best;
    low_idx = take_low ? idx : low_idx;
    idx += W;
  }
  *i_up = reduce_last_extremum<true, W>(up_best, up_idx);
  *j_low = reduce_last_extremum<false, W>(low_best, low_idx);
}

template <int W>
int smo_gain_t(const SmoSweep& s, const float* FCMA_RESTRICT diag,
               const float* FCMA_RESTRICT ki, float kii, float g_max) {
  using V = typename VecOf<W>::type;
  using I = typename IVecOf<W>::type;
  const V zero = {};
  const V tau = splat<V>(kSmoTau);
  V best = splat<V>(std::numeric_limits<float>::infinity());
  I best_idx = splat<I>(-1);
  I idx = lane_ids<W>();
  for (std::size_t t = 0; t < s.n; t += W) {
    // v is NaN outside the low set, and so then are diff and gain.
    const V diff = g_max - smo_candidates<W>(s, t).low;
    // Subproblem curvature ||phi(x_i) - phi(x_t)||^2; std::max(q, tau).
    const V q = kii + vload<W>(diag + t) - 2.0f * vload<W>(ki + t);
    const V quad = q < tau ? tau : q;
    const V gain = -(diff * diff) / quad;
    // The scan skips diff <= 0; a NaN gain never passes `<=`.
    const I take = (diff > zero) & (gain <= best);
    best = take ? gain : best;
    best_idx = take ? idx : best_idx;
    idx += W;
  }
  return reduce_last_extremum<false, W>(best, best_idx);
}

template <int W>
void smo_update_t(float* FCMA_RESTRICT grad, const float* FCMA_RESTRICT y,
                  const float* FCMA_RESTRICT ki,
                  const float* FCMA_RESTRICT kj, float ci, float cj,
                  std::size_t n) {
  for (std::size_t t = 0; t < n; t += W) {
    vstore<W>(grad + t,
              vload<W>(grad + t) +
                  vload<W>(y + t) * (ci * vload<W>(ki + t) +
                                     cj * vload<W>(kj + t)));
  }
}

template <int W>
constexpr KernelTable make_table() {
  static_assert(kSmoPad % W == 0, "SMO buffers must hold whole vectors");
  return KernelTable{&gemm_row_panel_t<W>,
                     &syrk_panel_t<W>,
                     &fisher_moments_t<W>,
                     &zscore_finish_t<W>,
                     &epoch_zscore_t<W>,
                     &smo_select_t<W>,
                     &smo_gain_t<W>,
                     &smo_update_t<W>};
}

// kScalar = 4-lane portable vectors: GCC lowers them to SSE where present
// and to plain scalar code elsewhere, so this table has no ISA requirement
// at all.
constexpr KernelTable kTables[3] = {
    make_table<4>(),   // Isa::kScalar
    make_table<8>(),   // Isa::kAvx2
    make_table<16>(),  // Isa::kAvx512
};

Isa resolve_active() {
  const char* forced = std::getenv("FCMA_FORCE_ISA");
  if (forced != nullptr && forced[0] != '\0') {
    Isa isa;
    FCMA_CHECK(parse_isa(forced, &isa),
               "FCMA_FORCE_ISA must be scalar, avx2, or avx512 (got \"" +
                   std::string(forced) + "\")");
    return isa;
  }
  return detect_isa();
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "unknown";
}

bool parse_isa(std::string_view text, Isa* out) {
  if (text == "scalar") {
    *out = Isa::kScalar;
  } else if (text == "avx2") {
    *out = Isa::kAvx2;
  } else if (text == "avx512") {
    *out = Isa::kAvx512;
  } else {
    return false;
  }
  return true;
}

Isa detect_isa() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Isa::kAvx2;
  }
#endif
  return Isa::kScalar;
}

Isa active_isa() {
  static const Isa isa = resolve_active();
  return isa;
}

const KernelTable& kernels(Isa isa) {
  return kTables[static_cast<int>(isa)];
}

const KernelTable& kernels() { return kernels(active_isa()); }

float fisher_z(float r) { return fisher_z4(V4{r, 0.0f, 0.0f, 0.0f})[0]; }

}  // namespace fcma::linalg::simd
