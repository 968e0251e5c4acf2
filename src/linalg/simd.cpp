#include "linalg/simd.hpp"

#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "common/platform.hpp"
#include "linalg/opt.hpp"

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
// syrk packed-panel sweep (paper Fig 7): ROWS x W-col micro-tiles over the
// lower triangle.  The register accumulators flush into C on a FIXED cadence
// of opt::kSyrkNumericK elements at every lane width, so all ISAs round
// alike.  The full-tile kernel fixes that substep at compile time (a
// runtime bound defeats the strided a_local loads' unrolling); ragged
// substeps fall to the shared edge handler.
// ---------------------------------------------------------------------------
constexpr std::size_t kSyrkMaxRows = opt::kSyrkMicroRows;  // edge acc bound

template <int W, std::size_t ROWS>
void syrk_tile_full(const float* FCMA_RESTRICT a_tile, std::size_t lda,
                    const float* FCMA_RESTRICT at_tile, std::size_t ldat,
                    float* FCMA_RESTRICT c_tile, std::size_t ldc) {
  using V = typename VecOf<W>::type;
  V acc[ROWS] = {};
  for (std::size_t k = 0; k < opt::kSyrkNumericK; ++k) {
    const V at = vload<W>(at_tile + k * ldat);
    for (std::size_t r = 0; r < ROWS; ++r) {
      acc[r] += a_tile[r * lda + k] * at;
    }
  }
  for (std::size_t r = 0; r < ROWS; ++r) {
    float* FCMA_RESTRICT crow = c_tile + r * ldc;
    vstore<W>(crow, vload<W>(crow) + acc[r]);
  }
}

// Ragged edges of the triangle (short rows/columns or a short trailing
// substep).  4-lane blocks with a zero-padded final step, so an element
// that lands in a full tile under one lane width or micro-tile height and
// here under another still sees the exact same multiply-add chain.
void syrk_tile_edge(const float* FCMA_RESTRICT a_tile, std::size_t lda,
                    const float* FCMA_RESTRICT at_tile, std::size_t ldat,
                    std::size_t kb, std::size_t rows, std::size_t cols,
                    float* FCMA_RESTRICT c_tile, std::size_t ldc) {
  for (std::size_t w0 = 0; w0 < cols; w0 += 4) {
    const std::size_t lanes = std::min<std::size_t>(4, cols - w0);
    V4 acc[kSyrkMaxRows] = {};
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

template <int W, std::size_t ROWS>
void syrk_panel_t(const float* FCMA_RESTRICT a_local,
                  const float* FCMA_RESTRICT at_local, std::size_t m,
                  std::size_t kb, float* FCMA_RESTRICT c, std::size_t ldc) {
  static_assert(W <= 16, "edge accumulator sized for <= 16 lanes");
  static_assert(ROWS <= kSyrkMaxRows, "edge accumulator sized for 9 rows");
  for (std::size_t k0 = 0; k0 < kb; k0 += opt::kSyrkNumericK) {
    const std::size_t kbs = std::min(opt::kSyrkNumericK, kb - k0);
    for (std::size_t i0 = 0; i0 < m; i0 += ROWS) {
      const std::size_t rows = std::min(ROWS, m - i0);
      // Only tiles intersecting the lower triangle; mirror_upper finishes C.
      for (std::size_t j0 = 0; j0 <= i0 + rows - 1;
           j0 += static_cast<std::size_t>(W)) {
        const std::size_t cols = std::min<std::size_t>(W, m - j0);
        const float* a_tile = a_local + i0 * kb + k0;
        const float* at_tile = at_local + k0 * m + j0;
        float* c_tile = c + i0 * ldc + j0;
        if (rows == ROWS && cols == static_cast<std::size_t>(W) &&
            kbs == opt::kSyrkNumericK) {
          syrk_tile_full<W, ROWS>(a_tile, kb, at_tile, m, c_tile, ldc);
        } else {
          syrk_tile_edge(a_tile, kb, at_tile, m, kbs, rows, cols, c_tile,
                         ldc);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Normalization inner loops (paper §4.3 / Fig 6).  Column-parallel, so lane
// width never reorders a column's accumulation: all variants bit-match.
// ---------------------------------------------------------------------------
// Columns [j0, width) for the moments pass, shared by all lane widths.
void accumulate_moments_tail(const float* FCMA_RESTRICT row,
                             float* FCMA_RESTRICT sum,
                             float* FCMA_RESTRICT sumsq, std::size_t width,
                             std::size_t j0) {
  std::size_t j = j0;
  for (; j + 4 <= width; j += 4) {
    const V4 z = vload<4>(row + j);
    vstore<4>(sum + j, vload<4>(sum + j) + z);
    vstore<4>(sumsq + j, vload<4>(sumsq + j) + z * z);
  }
  if (j < width) {
    const std::size_t rem = width - j;
    alignas(16) float zt[4] = {};
    alignas(16) float st[4] = {};
    alignas(16) float qt[4] = {};
    for (std::size_t l = 0; l < rem; ++l) {
      zt[l] = row[j + l];
      st[l] = sum[j + l];
      qt[l] = sumsq[j + l];
    }
    const V4 z = vload<4>(zt);
    const V4 s = vload<4>(st) + z;
    const V4 q = vload<4>(qt) + z * z;
    for (std::size_t l = 0; l < rem; ++l) {
      sum[j + l] = s[l];
      sumsq[j + l] = q[l];
    }
  }
}

template <int W>
void accumulate_moments_t(const float* FCMA_RESTRICT row,
                          float* FCMA_RESTRICT sum,
                          float* FCMA_RESTRICT sumsq, std::size_t width) {
  using V = typename VecOf<W>::type;
  std::size_t j = 0;
  for (; j + W <= width; j += W) {
    const V z = vload<W>(row + j);
    vstore<W>(sum + j, vload<W>(sum + j) + z);
    vstore<W>(sumsq + j, vload<W>(sumsq + j) + z * z);
  }
  accumulate_moments_tail(row, sum, sumsq, width, j);
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

template <int W>
constexpr KernelTable make_table() {
  return KernelTable{&gemm_row_panel_t<W>,
                     &syrk_panel_t<W, opt::kSyrkMicroRows>,
                     &accumulate_moments_t<W>,
                     &zscore_finish_t<W>};
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

}  // namespace fcma::linalg::simd
