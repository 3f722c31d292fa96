#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"

/// \file kernels_avx2.cc
/// \brief AVX2 microkernels. Compiled with -mavx2 -O3 -ffp-contract=off
/// (no -mfma: the parity contract forbids contraction). Self-guarded so a
/// -DDLSYS_SIMD=OFF or non-x86 build compiles only the nullptr stub.
///
/// fp32 kernels vectorize across independent output columns and keep each
/// element's mul-then-add chain in ascending p, so they are bitwise
/// identical to the scalar reference; matmul is cache-blocked over packed
/// 16-column B panels (see kernels.h). Integer kernels accumulate in int32
/// (associative — exact in any lane order) via sign-extend + vpmaddwd, in
/// 4x8 C tiles per block.

#if DLSYS_SIMD && (defined(__x86_64__) || defined(__i386__)) && \
    defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

namespace dlsys {
namespace simd {
namespace {

// ---------------------------------------------------------------- fp32

constexpr int64_t kMr = 4;   // C rows per register tile
constexpr int64_t kNr = 16;  // C columns per register tile (2 ymm)
constexpr int64_t kKc = 256;  // k rows per packed panel block (16 KB)
/// Fewest rows that take the panel loop; a shorter range runs the scalar
/// body. Higher than on AVX-512 because a 16-column panel copies half as
/// much per B row fetched: in the E34 A/B one wide-MLP batch (256x1024,
/// 1024x1024 and 1024x10 layers) was faster on the scalar body at 1-5
/// rows and on the panel loop from 6 rows.
constexpr int64_t kMinPanelRows = 6;

/// Column tail [j, n) of rows [i0, i1): plain ascending-p loops from +0.0.
void MatMulColTailAvx2(const float* a, const float* b, float* c, int64_t i0,
                       int64_t i1, int64_t k, int64_t n, int64_t j) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::fill(crow + j, crow + n, 0.0f);
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (int64_t jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
    }
  }
}

/// R x 16 register tile of C over kc k-rows of a packed panel: \p a at
/// A[i, p0] (row stride k), \p panel at the block's first row (row
/// stride kNr), \p c at C[i, j]; same chain, resume rule and inlining as
/// the AVX-512 tile.
template <int R>
__attribute__((always_inline)) inline void TileAvx2(const float* a, int64_t k,
                                                    const float* panel,
                                                    int64_t kc, float* c,
                                                    int64_t n, bool first) {
  __m256 acc[R][2];
  for (int r = 0; r < R; ++r) {
    if (first) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    } else {
      acc[r][0] = _mm256_loadu_ps(c + r * n);
      acc[r][1] = _mm256_loadu_ps(c + r * n + 8);
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_load_ps(panel + p * kNr);
    const __m256 b1 = _mm256_load_ps(panel + p * kNr + 8);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * k + p]);
      acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(av, b0));
      acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(av, b1));
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm256_storeu_ps(c + r * n, acc[r][0]);
    _mm256_storeu_ps(c + r * n + 8, acc[r][1]);
  }
}

/// Cache-blocked body, the AVX-512 loop at 16 columns: full 16-column
/// panels are copied once per kKc block into an aligned stack buffer and
/// reused by every 4x16 tile; the column tail streams.
void MatMulRangeAvx2(const float* a, const float* b, float* c, int64_t i0,
                     int64_t i1, int64_t k, int64_t n) {
  if (i1 - i0 < kMinPanelRows || k == 0) {
    MatMulRangeScalar(a, b, c, i0, i1, k, n);
    return;
  }
  alignas(32) float panel[kKc * kNr];
  int64_t j = 0;
  for (; j + kNr <= n; j += kNr) {
    for (int64_t p0 = 0; p0 < k; p0 += kKc) {
      const int64_t kc = std::min(kKc, k - p0);
      const bool first = p0 == 0;
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = b + (p0 + p) * n + j;
        _mm256_store_ps(panel + p * kNr, _mm256_loadu_ps(src));
        _mm256_store_ps(panel + p * kNr + 8, _mm256_loadu_ps(src + 8));
      }
      int64_t i = i0;
      for (; i + kMr <= i1; i += kMr) {
        TileAvx2<kMr>(a + i * k + p0, k, panel, kc, c + i * n + j, n, first);
      }
      const float* at = a + i * k + p0;
      float* ct = c + i * n + j;
      switch (i1 - i) {
        case 1: TileAvx2<1>(at, k, panel, kc, ct, n, first); break;
        case 2: TileAvx2<2>(at, k, panel, kc, ct, n, first); break;
        case 3: TileAvx2<3>(at, k, panel, kc, ct, n, first); break;
        default: break;
      }
    }
  }
  if (j < n) MatMulColTailAvx2(a, b, c, i0, i1, k, n, j);
}

void MatMulTransARangeAvx2(const float* a, const float* b, float* c,
                           int64_t i0, int64_t i1, int64_t k, int64_t m,
                           int64_t n) {
  int64_t i = i0;
  for (; i + kMr <= i1; i += kMr) {
    int64_t j = 0;
    for (; j + kNr <= n; j += kNr) {
      __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
      __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
      __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
      __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
      for (int64_t p = 0; p < k; ++p) {
        const float* brow = b + p * n + j;
        const float* acol = a + p * m + i;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 av = _mm256_set1_ps(acol[0]);
        c00 = _mm256_add_ps(c00, _mm256_mul_ps(av, b0));
        c01 = _mm256_add_ps(c01, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(acol[1]);
        c10 = _mm256_add_ps(c10, _mm256_mul_ps(av, b0));
        c11 = _mm256_add_ps(c11, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(acol[2]);
        c20 = _mm256_add_ps(c20, _mm256_mul_ps(av, b0));
        c21 = _mm256_add_ps(c21, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(acol[3]);
        c30 = _mm256_add_ps(c30, _mm256_mul_ps(av, b0));
        c31 = _mm256_add_ps(c31, _mm256_mul_ps(av, b1));
      }
      float* crow = c + i * n + j;
      _mm256_storeu_ps(crow, c00);
      _mm256_storeu_ps(crow + 8, c01);
      _mm256_storeu_ps(crow + n, c10);
      _mm256_storeu_ps(crow + n + 8, c11);
      _mm256_storeu_ps(crow + 2 * n, c20);
      _mm256_storeu_ps(crow + 2 * n + 8, c21);
      _mm256_storeu_ps(crow + 3 * n, c30);
      _mm256_storeu_ps(crow + 3 * n + 8, c31);
    }
    if (j < n) {
      for (int64_t ii = 0; ii < kMr; ++ii) {
        float* crow = c + (i + ii) * n;
        std::fill(crow + j, crow + n, 0.0f);
        for (int64_t p = 0; p < k; ++p) {
          const float av = a[p * m + i + ii];
          const float* brow = b + p * n;
          for (int64_t jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
        }
      }
    }
  }
  if (i < i1) MatMulTransARangeScalar(a, b, c, i, i1, k, m, n);
}

/// Four dot products A[row] . B[j..j+3] with the scalar reference's exact
/// chain: float multiply, widen, double add, ascending p. The 4x4
/// transpose turns row-major B loads into per-p column vectors; each
/// _mm256_add_pd advances every column's chain by exactly one p.
inline void DotCols4Avx2(const float* arow, const float* b0, const float* b1,
                         const float* b2, const float* b3, int64_t k,
                         double init, float* out) {
  __m256d acc = _mm256_set1_pd(init);
  int64_t p = 0;
  for (; p + 4 <= k; p += 4) {
    __m128 r0 = _mm_loadu_ps(b0 + p);
    __m128 r1 = _mm_loadu_ps(b1 + p);
    __m128 r2 = _mm_loadu_ps(b2 + p);
    __m128 r3 = _mm_loadu_ps(b3 + p);
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    acc = _mm256_add_pd(
        acc, _mm256_cvtps_pd(_mm_mul_ps(_mm_set1_ps(arow[p + 0]), r0)));
    acc = _mm256_add_pd(
        acc, _mm256_cvtps_pd(_mm_mul_ps(_mm_set1_ps(arow[p + 1]), r1)));
    acc = _mm256_add_pd(
        acc, _mm256_cvtps_pd(_mm_mul_ps(_mm_set1_ps(arow[p + 2]), r2)));
    acc = _mm256_add_pd(
        acc, _mm256_cvtps_pd(_mm_mul_ps(_mm_set1_ps(arow[p + 3]), r3)));
  }
  alignas(32) double s[4];
  _mm256_store_pd(s, acc);
  for (; p < k; ++p) {
    const float av = arow[p];
    s[0] += av * b0[p];
    s[1] += av * b1[p];
    s[2] += av * b2[p];
    s[3] += av * b3[p];
  }
  out[0] = static_cast<float>(s[0]);
  out[1] = static_cast<float>(s[1]);
  out[2] = static_cast<float>(s[2]);
  out[3] = static_cast<float>(s[3]);
}

/// dot_gemm_range: four columns per DotCols4Avx2 call, then the scalar
/// chain for the 1-3 columns left.
void DotGemmRangeAvx2(const float* a, const float* b, const float* bias,
                      float* c, int64_t i0, int64_t i1, int64_t j0, int64_t j1,
                      int64_t k, int64_t n, int relu) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    const double init = bias != nullptr ? static_cast<double>(bias[i]) : 0.0;
    int64_t j = j0;
    for (; j + 4 <= j1; j += 4) {
      DotCols4Avx2(arow, b + (j + 0) * k, b + (j + 1) * k, b + (j + 2) * k,
                   b + (j + 3) * k, k, init, c + i * n + j);
    }
    for (; j < j1; ++j) {
      const float* brow = b + j * k;
      double s = init;
      for (int64_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      c[i * n + j] = static_cast<float>(s);
    }
  }
  BiasActEpilogue<Isa::kAvx2>(nullptr, relu, c, n, i0, i1, j0, j1);
}

// ------------------------------------------------------- block-quantized
//
// Both block GEMMs run one 4-row x 8-column C tile per 32-element block:
// the eight B blocks are widened to int16 once into an L1 buffer and
// reused by every row, each A block is widened once and reused by every
// column, the 8 x R int32 dot vectors are reduced by one hadd tree per
// row, and the float epilogue runs across the 8 columns at once. The dots
// are exact int32 sums (any order); the epilogue is the scalar chain
// sum += float(dot) * (a_scale * b_scale), ascending block, per lane.

constexpr int64_t kQMr = 4;  // C rows per block tile
constexpr int64_t kQNr = 8;  // C columns per block tile (one ymm of sums)

/// Sign-extends a 32-element q8 block to int16: elements 0-15 and 16-31.
inline void WidenQ8Avx2(const int8_t* p, __m256i* lo, __m256i* hi) {
  *lo = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  *hi = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)));
}

/// Unpacks a nibble-packed q4 block to int16 in the same element order:
/// byte t = element t (low nibble) and 16+t (high nibble), code = q + 8.
inline void WidenQ4Avx2(const uint8_t* p, __m256i* lo, __m256i* hi) {
  const __m128i packed = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i mask = _mm_set1_epi8(0x0F);
  const __m256i eight = _mm256_set1_epi16(8);
  *lo = _mm256_sub_epi16(_mm256_cvtepu8_epi16(_mm_and_si128(packed, mask)),
                         eight);
  *hi = _mm256_sub_epi16(
      _mm256_cvtepu8_epi16(_mm_and_si128(_mm_srli_epi16(packed, 4), mask)),
      eight);
}

/// Lane t = the sum of d[t]'s eight int32 lanes.
inline __m256i HsumI32x8(const __m256i d[8]) {
  const __m256i s01 = _mm256_hadd_epi32(d[0], d[1]);
  const __m256i s23 = _mm256_hadd_epi32(d[2], d[3]);
  const __m256i s45 = _mm256_hadd_epi32(d[4], d[5]);
  const __m256i s67 = _mm256_hadd_epi32(d[6], d[7]);
  // Low 128 bits: lanes 0-3 of d0..d3; high: lanes 4-7 (then d4..d7).
  const __m256i s0123 = _mm256_hadd_epi32(s01, s23);
  const __m256i s4567 = _mm256_hadd_epi32(s45, s67);
  return _mm256_add_epi32(_mm256_permute2x128_si256(s0123, s4567, 0x20),
                          _mm256_permute2x128_si256(s0123, s4567, 0x31));
}

/// The q8 (int8 rows of kp) and q4 (nibble rows of kp/2) weight layouts.
struct Q8Weights {
  const int8_t* b;
  int64_t kp;
  void Widen(int64_t col, int64_t block, __m256i* lo, __m256i* hi) const {
    WidenQ8Avx2(b + col * kp + block * 32, lo, hi);
  }
};
struct Q4Weights {
  const uint8_t* b;
  int64_t kp;
  void Widen(int64_t col, int64_t block, __m256i* lo, __m256i* hi) const {
    WidenQ4Avx2(b + col * (kp / 2) + block * 16, lo, hi);
  }
};

/// R rows x columns [j, j+cols) of C, cols <= 8. Columns past cols are
/// widened as zero blocks with zero scales and never stored.
template <int R, typename Weights>
inline void BlockTileAvx2(const int8_t* a, const float* a_scales,
                          const Weights& w, const float* b_scales, float* c,
                          int64_t kp, int64_t n, int64_t j, int64_t cols) {
  const int64_t nb = kp / 32;
  const __m256i col_lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i live = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(cols)), col_lane);
  // Column t's scale for block bb sits at b_scales[(j + t) * nb + bb].
  const __m256i scale_idx =
      _mm256_mullo_epi32(col_lane, _mm256_set1_epi32(static_cast<int>(nb)));
  __m256 sum[R];
  for (int r = 0; r < R; ++r) sum[r] = _mm256_setzero_ps();
  __m256i bw[kQNr][2];  // the tile's B blocks, widened once per block
  for (int64_t bb = 0; bb < nb; ++bb) {
    for (int64_t t = 0; t < kQNr; ++t) {
      if (t < cols) {
        w.Widen(j + t, bb, &bw[t][0], &bw[t][1]);
      } else {
        bw[t][0] = bw[t][1] = _mm256_setzero_si256();
      }
    }
    const __m256 bs = _mm256_mask_i32gather_ps(
        _mm256_setzero_ps(), b_scales + j * nb + bb, scale_idx,
        _mm256_castsi256_ps(live), 4);
    for (int r = 0; r < R; ++r) {
      __m256i alo, ahi;
      WidenQ8Avx2(a + r * kp + bb * 32, &alo, &ahi);
      __m256i d[kQNr];
      for (int64_t t = 0; t < kQNr; ++t) {
        d[t] = _mm256_add_epi32(_mm256_madd_epi16(alo, bw[t][0]),
                                _mm256_madd_epi16(ahi, bw[t][1]));
      }
      const __m256 dot = _mm256_cvtepi32_ps(HsumI32x8(d));
      const __m256 scale =
          _mm256_mul_ps(_mm256_set1_ps(a_scales[r * nb + bb]), bs);
      sum[r] = _mm256_add_ps(sum[r], _mm256_mul_ps(dot, scale));
    }
  }
  for (int r = 0; r < R; ++r) {
    if (cols == kQNr) {
      _mm256_storeu_ps(c + r * n + j, sum[r]);
    } else {
      _mm256_maskstore_ps(c + r * n + j, live, sum[r]);
    }
  }
}

template <typename Weights>
void BlockGemmRowsAvx2(const int8_t* a, const float* a_scales,
                       const Weights& w, const float* b_scales, float* c,
                       int64_t i0, int64_t i1, int64_t kp, int64_t n) {
  const int64_t nb = kp / 32;
  for (int64_t i = i0; i < i1; i += kQMr) {
    const int8_t* ai = a + i * kp;
    const float* asi = a_scales + i * nb;
    float* ci = c + i * n;
    for (int64_t j = 0; j < n; j += kQNr) {
      const int64_t cols = std::min(kQNr, n - j);
      switch (std::min(kQMr, i1 - i)) {
        case 1:
          BlockTileAvx2<1>(ai, asi, w, b_scales, ci, kp, n, j, cols);
          break;
        case 2:
          BlockTileAvx2<2>(ai, asi, w, b_scales, ci, kp, n, j, cols);
          break;
        case 3:
          BlockTileAvx2<3>(ai, asi, w, b_scales, ci, kp, n, j, cols);
          break;
        default:
          BlockTileAvx2<kQMr>(ai, asi, w, b_scales, ci, kp, n, j, cols);
          break;
      }
    }
  }
}

const KernelTable kAvx2Table = {
    Isa::kAvx2,
    "kernel.avx2",
    &MatMulRangeAvx2,
    &MatMulTransARangeAvx2,
    &DotGemmRangeAvx2,
    &Q8GemmRowsAvx2,
    &Q4GemmRowsAvx2,
    &MatMulBiasActRange<Isa::kAvx2, &MatMulRangeAvx2>,
};

}  // namespace

// The block GEMMs have external linkage: the AVX-512 table runs these
// bodies too (see kernels.h).
void Q8GemmRowsAvx2(const int8_t* a, const float* a_scales, const int8_t* b,
                    const float* b_scales, float* c, int64_t i0, int64_t i1,
                    int64_t kp, int64_t n) {
  BlockGemmRowsAvx2(a, a_scales, Q8Weights{b, kp}, b_scales, c, i0, i1, kp,
                    n);
}

void Q4GemmRowsAvx2(const int8_t* a, const float* a_scales, const uint8_t* b,
                    const float* b_scales, float* c, int64_t i0, int64_t i1,
                    int64_t kp, int64_t n) {
  BlockGemmRowsAvx2(a, a_scales, Q4Weights{b, kp}, b_scales, c, i0, i1, kp,
                    n);
}

const KernelTable* GetAvx2Table() { return &kAvx2Table; }

}  // namespace simd
}  // namespace dlsys

#else  // stub: SIMD off, non-x86 (NEON backend not yet written), or no AVX2

namespace dlsys {
namespace simd {
const KernelTable* GetAvx2Table() { return nullptr; }
}  // namespace simd
}  // namespace dlsys

#endif
