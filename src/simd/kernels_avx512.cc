#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"

/// \file kernels_avx512.cc
/// \brief AVX-512 microkernels (F+BW+VL+DQ). Compiled with -mavx512f
/// -mavx512bw -mavx512vl -mavx512dq -O3 -ffp-contract=off. Same parity
/// contract as the AVX2 TU: fp32 is bitwise identical to scalar (mul then
/// add, ascending p, vectorized across output elements only); matmul is
/// cache-blocked over packed 32-column B panels (see kernels.h). The table's
/// q8/q4 block-GEMM entries are the AVX2 bodies from kernels_avx2.cc:
/// 512-bit variants measured slower on AVX-512 hosts (EXPERIMENTS E34).

#if DLSYS_SIMD && (defined(__x86_64__) || defined(__i386__)) &&      \
    defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512DQ__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

namespace dlsys {
namespace simd {
namespace {

// ---------------------------------------------------------------- fp32

constexpr int64_t kMr = 4;   // C rows per transA register tile
constexpr int64_t kNr = 32;  // C columns per register tile (2 zmm)
constexpr int64_t kPanelMr = 8;  // C rows per register tile on a panel
constexpr int64_t kKc = 256;     // k rows per packed panel block (32 KB)
/// Fewest rows that take the panel loop; a shorter range runs the scalar
/// body, which reads each B row once in place. From an alternating A/B of
/// the two on the wide MLP's layers (EXPERIMENTS E34): the panel loop was
/// 1.3-2.3x slower for one row, faster at 2, 3, 5 and 6 rows, and slower
/// at exactly 4, where the scalar body's own 4x32 tile streams B once.
constexpr int64_t kMinPanelRows = 2;

/// Lanes [0, cols) of a 16-lane mask (all lanes for cols >= 16, none for
/// cols <= 0).
inline __mmask16 LaneMask(int64_t cols) {
  if (cols >= 16) return static_cast<__mmask16>(0xFFFF);
  if (cols <= 0) return 0;
  return static_cast<__mmask16>((1u << cols) - 1u);
}

/// R x 32 register tile of C over kc k-rows of a packed panel. \p a
/// points at A[i, p0] (row stride k), \p panel at the block's first row
/// (row stride kNr, lanes past the matrix edge zeroed), \p c at C[i, j].
/// The first k-block starts every accumulator at +0.0; later blocks resume
/// from the float partial sums the previous block stored, which is the
/// same chain (a float store/reload is exact). Lanes outside m0/m1 are
/// never read from C nor written. Always inlined: as an out-of-line call
/// the accumulators round-trip through the stack on every tile.
template <int R>
__attribute__((always_inline)) inline void TileAvx512(
    const float* a, int64_t k, const float* panel, int64_t kc, float* c,
    int64_t n, bool first, __mmask16 m0, __mmask16 m1) {
  __m512 acc[R][2];
  for (int r = 0; r < R; ++r) {
    if (first) {
      acc[r][0] = _mm512_setzero_ps();
      acc[r][1] = _mm512_setzero_ps();
    } else {
      acc[r][0] = _mm512_maskz_loadu_ps(m0, c + r * n);
      acc[r][1] = _mm512_maskz_loadu_ps(m1, c + r * n + 16);
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    const __m512 b0 = _mm512_load_ps(panel + p * kNr);
    const __m512 b1 = _mm512_load_ps(panel + p * kNr + 16);
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * k + p]);
      acc[r][0] = _mm512_add_ps(acc[r][0], _mm512_mul_ps(av, b0));
      acc[r][1] = _mm512_add_ps(acc[r][1], _mm512_mul_ps(av, b1));
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm512_mask_storeu_ps(c + r * n, m0, acc[r][0]);
    _mm512_mask_storeu_ps(c + r * n + 16, m1, acc[r][1]);
  }
}

/// Copies B[p0:p0+kc, j:j+32) into \p panel (row stride 32), zeroing the
/// lanes past the matrix edge that \p m0 / \p m1 mask off.
inline void PackPanelAvx512(const float* b, int64_t n, int64_t p0,
                            int64_t kc, int64_t j, __mmask16 m0,
                            __mmask16 m1, float* panel) {
  for (int64_t p = 0; p < kc; ++p) {
    const float* src = b + (p0 + p) * n + j;
    _mm512_store_ps(panel + p * kNr, _mm512_maskz_loadu_ps(m0, src));
    _mm512_store_ps(panel + p * kNr + 16, _mm512_maskz_loadu_ps(m1, src + 16));
  }
}

/// The 1..R rows under the last full kPanelMr tile, on a packed panel:
/// runs the tile instantiated for exactly \p rows rows.
template <int R>
inline void PanelTailAvx512(int64_t rows, const float* a, int64_t k,
                            const float* panel, int64_t kc, float* c,
                            int64_t n, bool first, __mmask16 m0,
                            __mmask16 m1) {
  if constexpr (R > 0) {
    if (rows == R) {
      TileAvx512<R>(a, k, panel, kc, c, n, first, m0, m1);
    } else {
      PanelTailAvx512<R - 1>(rows, a, k, panel, kc, c, n, first, m0, m1);
    }
  }
}

/// Cache-blocked body: the 32-column panel is the outer loop and k is
/// split into kKc-row blocks. Each block of the panel is copied once into
/// an aligned stack buffer and reused from L1 by every 8x32 row tile of
/// the range (the 1-7 rows under the last one run a shorter tile),
/// instead of every row tile re-streaming a 4n-byte-strided panel from
/// L2/L3.
void MatMulRangeAvx512(const float* a, const float* b, float* c, int64_t i0,
                       int64_t i1, int64_t k, int64_t n) {
  if (i1 - i0 < kMinPanelRows || k == 0) {
    MatMulRangeScalar(a, b, c, i0, i1, k, n);
    return;
  }
  alignas(64) float panel[kKc * kNr];
  for (int64_t j = 0; j < n; j += kNr) {
    const __mmask16 m0 = LaneMask(n - j);
    const __mmask16 m1 = LaneMask(n - j - 16);
    for (int64_t p0 = 0; p0 < k; p0 += kKc) {
      const int64_t kc = std::min(kKc, k - p0);
      const bool first = p0 == 0;
      PackPanelAvx512(b, n, p0, kc, j, m0, m1, panel);
      int64_t i = i0;
      for (; i + kPanelMr <= i1; i += kPanelMr) {
        TileAvx512<kPanelMr>(a + i * k + p0, k, panel, kc, c + i * n + j, n,
                             first, m0, m1);
      }
      PanelTailAvx512<kPanelMr - 1>(i1 - i, a + i * k + p0, k, panel, kc,
                                    c + i * n + j, n, first, m0, m1);
    }
  }
}

void MatMulTransARangeAvx512(const float* a, const float* b, float* c,
                             int64_t i0, int64_t i1, int64_t k, int64_t m,
                             int64_t n) {
  int64_t i = i0;
  for (; i + kMr <= i1; i += kMr) {
    int64_t j = 0;
    for (; j + kNr <= n; j += kNr) {
      __m512 c00 = _mm512_setzero_ps(), c01 = _mm512_setzero_ps();
      __m512 c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
      __m512 c20 = _mm512_setzero_ps(), c21 = _mm512_setzero_ps();
      __m512 c30 = _mm512_setzero_ps(), c31 = _mm512_setzero_ps();
      for (int64_t p = 0; p < k; ++p) {
        const float* brow = b + p * n + j;
        const float* acol = a + p * m + i;
        const __m512 b0 = _mm512_loadu_ps(brow);
        const __m512 b1 = _mm512_loadu_ps(brow + 16);
        __m512 av = _mm512_set1_ps(acol[0]);
        c00 = _mm512_add_ps(c00, _mm512_mul_ps(av, b0));
        c01 = _mm512_add_ps(c01, _mm512_mul_ps(av, b1));
        av = _mm512_set1_ps(acol[1]);
        c10 = _mm512_add_ps(c10, _mm512_mul_ps(av, b0));
        c11 = _mm512_add_ps(c11, _mm512_mul_ps(av, b1));
        av = _mm512_set1_ps(acol[2]);
        c20 = _mm512_add_ps(c20, _mm512_mul_ps(av, b0));
        c21 = _mm512_add_ps(c21, _mm512_mul_ps(av, b1));
        av = _mm512_set1_ps(acol[3]);
        c30 = _mm512_add_ps(c30, _mm512_mul_ps(av, b0));
        c31 = _mm512_add_ps(c31, _mm512_mul_ps(av, b1));
      }
      float* crow = c + i * n + j;
      _mm512_storeu_ps(crow, c00);
      _mm512_storeu_ps(crow + 16, c01);
      _mm512_storeu_ps(crow + n, c10);
      _mm512_storeu_ps(crow + n + 16, c11);
      _mm512_storeu_ps(crow + 2 * n, c20);
      _mm512_storeu_ps(crow + 2 * n + 16, c21);
      _mm512_storeu_ps(crow + 3 * n, c30);
      _mm512_storeu_ps(crow + 3 * n + 16, c31);
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

/// Eight dot products A[row] . B[j..j+7] with the exact scalar chain:
/// float multiply, widen to double, double add, ascending p. An 8x8
/// in-register transpose turns eight row loads into per-p column vectors;
/// each _mm512_add_pd advances all eight chains by exactly one p.
inline void DotCols8Avx512(const float* arow, const float* b, int64_t j,
                           int64_t k, double init, float* out) {
  const float* b0 = b + (j + 0) * k;
  const float* b1 = b + (j + 1) * k;
  const float* b2 = b + (j + 2) * k;
  const float* b3 = b + (j + 3) * k;
  const float* b4 = b + (j + 4) * k;
  const float* b5 = b + (j + 5) * k;
  const float* b6 = b + (j + 6) * k;
  const float* b7 = b + (j + 7) * k;
  __m512d acc = _mm512_set1_pd(init);
  int64_t p = 0;
  for (; p + 8 <= k; p += 8) {
    __m256 r0 = _mm256_loadu_ps(b0 + p);
    __m256 r1 = _mm256_loadu_ps(b1 + p);
    __m256 r2 = _mm256_loadu_ps(b2 + p);
    __m256 r3 = _mm256_loadu_ps(b3 + p);
    __m256 r4 = _mm256_loadu_ps(b4 + p);
    __m256 r5 = _mm256_loadu_ps(b5 + p);
    __m256 r6 = _mm256_loadu_ps(b6 + p);
    __m256 r7 = _mm256_loadu_ps(b7 + p);
    // 8x8 transpose: r_t becomes [b0[p+t], b1[p+t], ..., b7[p+t]].
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    r0 = _mm256_permute2f128_ps(u0, u4, 0x20);
    r1 = _mm256_permute2f128_ps(u1, u5, 0x20);
    r2 = _mm256_permute2f128_ps(u2, u6, 0x20);
    r3 = _mm256_permute2f128_ps(u3, u7, 0x20);
    r4 = _mm256_permute2f128_ps(u0, u4, 0x31);
    r5 = _mm256_permute2f128_ps(u1, u5, 0x31);
    r6 = _mm256_permute2f128_ps(u2, u6, 0x31);
    r7 = _mm256_permute2f128_ps(u3, u7, 0x31);
    acc = _mm512_add_pd(
        acc, _mm512_cvtps_pd(_mm256_mul_ps(_mm256_set1_ps(arow[p + 0]), r0)));
    acc = _mm512_add_pd(
        acc, _mm512_cvtps_pd(_mm256_mul_ps(_mm256_set1_ps(arow[p + 1]), r1)));
    acc = _mm512_add_pd(
        acc, _mm512_cvtps_pd(_mm256_mul_ps(_mm256_set1_ps(arow[p + 2]), r2)));
    acc = _mm512_add_pd(
        acc, _mm512_cvtps_pd(_mm256_mul_ps(_mm256_set1_ps(arow[p + 3]), r3)));
    acc = _mm512_add_pd(
        acc, _mm512_cvtps_pd(_mm256_mul_ps(_mm256_set1_ps(arow[p + 4]), r4)));
    acc = _mm512_add_pd(
        acc, _mm512_cvtps_pd(_mm256_mul_ps(_mm256_set1_ps(arow[p + 5]), r5)));
    acc = _mm512_add_pd(
        acc, _mm512_cvtps_pd(_mm256_mul_ps(_mm256_set1_ps(arow[p + 6]), r6)));
    acc = _mm512_add_pd(
        acc, _mm512_cvtps_pd(_mm256_mul_ps(_mm256_set1_ps(arow[p + 7]), r7)));
  }
  alignas(64) double s[8];
  _mm512_store_pd(s, acc);
  for (; p < k; ++p) {
    const float av = arow[p];
    s[0] += av * b0[p];
    s[1] += av * b1[p];
    s[2] += av * b2[p];
    s[3] += av * b3[p];
    s[4] += av * b4[p];
    s[5] += av * b5[p];
    s[6] += av * b6[p];
    s[7] += av * b7[p];
  }
  for (int t = 0; t < 8; ++t) out[t] = static_cast<float>(s[t]);
}

void MatMulTransBRangeAvx512(const float* a, const float* b, float* c,
                             int64_t i0, int64_t i1, int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      DotCols8Avx512(arow, b, j, k, 0.0, c + i * n + j);
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      double s = 0.0;
      for (int64_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      c[i * n + j] = static_cast<float>(s);
    }
  }
}

void ConvGemmBiasColsAvx512(const float* a, const float* b, const float* bias,
                            float* c, int64_t m, int64_t k, int64_t n,
                            int64_t j0, int64_t j1) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const double bias_i = static_cast<double>(bias[i]);
    int64_t j = j0;
    for (; j + 8 <= j1; j += 8) {
      DotCols8Avx512(arow, b, j, k, bias_i, c + i * n + j);
    }
    for (; j < j1; ++j) {
      const float* brow = b + j * k;
      double s = bias_i;
      for (int64_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      c[i * n + j] = static_cast<float>(s);
    }
  }
}

// ------------------------------------------------------ fused epilogues
//
// GEMM body untouched; bias + optional relu applied to the stored rows.
// _mm512_max_ps(v, 0) with zero as the second operand matches the scalar
// `v > 0.0f ? v : 0.0f` on NaN and the -0/+0 tie, so fusion stays
// bitwise neutral (see the AVX2 TU for the full argument).

void MatMulBiasActRangeAvx512(const float* a, const float* b,
                              const float* bias, float* c, int64_t i0,
                              int64_t i1, int64_t k, int64_t n, int relu) {
  MatMulRangeAvx512(a, b, c, i0, i1, k, n);
  const __m512 zero = _mm512_setzero_ps();
  for (int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m512 v = _mm512_add_ps(_mm512_loadu_ps(crow + j),
                               _mm512_loadu_ps(bias + j));
      if (relu != 0) v = _mm512_max_ps(v, zero);
      _mm512_storeu_ps(crow + j, v);
    }
    for (; j < n; ++j) {
      const float v = crow[j] + bias[j];
      crow[j] = relu != 0 ? (v > 0.0f ? v : 0.0f) : v;
    }
  }
}

void ConvGemmBiasActColsAvx512(const float* a, const float* b,
                               const float* bias, float* c, int64_t m,
                               int64_t k, int64_t n, int64_t j0, int64_t j1,
                               int relu) {
  ConvGemmBiasColsAvx512(a, b, bias, c, m, k, n, j0, j1);
  if (relu == 0) return;
  const __m512 zero = _mm512_setzero_ps();
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    int64_t j = j0;
    for (; j + 16 <= j1; j += 16) {
      _mm512_storeu_ps(crow + j,
                       _mm512_max_ps(_mm512_loadu_ps(crow + j), zero));
    }
    for (; j < j1; ++j) crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f;
  }
}

const KernelTable kAvx512Table = {
    Isa::kAvx512,
    "kernel.avx512",
    &MatMulRangeAvx512,
    &MatMulTransARangeAvx512,
    &MatMulTransBRangeAvx512,
    &ConvGemmBiasColsAvx512,
    &Q8GemmRowsAvx2,  // composed: AVX2 bodies time faster on AVX-512 hosts
    &Q4GemmRowsAvx2,
    &MatMulBiasActRangeAvx512,
    &ConvGemmBiasActColsAvx512,
};

}  // namespace

const KernelTable* GetAvx512Table() { return &kAvx512Table; }

}  // namespace simd
}  // namespace dlsys

#else  // stub: SIMD off, non-x86, or AVX-512 F+BW+VL+DQ not all available

namespace dlsys {
namespace simd {
const KernelTable* GetAvx512Table() { return nullptr; }
}  // namespace simd
}  // namespace dlsys

#endif
