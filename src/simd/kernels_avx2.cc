#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"

/// \file kernels_avx2.cc
/// \brief AVX2 microkernels. Compiled with -mavx2 -O3 -ffp-contract=off
/// (no -mfma: the parity contract forbids contraction). Self-guarded so a
/// -DDLSYS_SIMD=OFF or non-x86 build compiles only the nullptr stub.
///
/// fp32 kernels vectorize across independent output columns and keep each
/// element's mul-then-add chain in ascending p, so they are bitwise
/// identical to the scalar reference. Integer kernels accumulate in int32
/// (associative — exact in any lane order) via sign-extend + vpmaddwd.

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

void MatMulRangeAvx2(const float* a, const float* b, float* c, int64_t i0,
                     int64_t i1, int64_t k, int64_t n) {
  int64_t i = i0;
  for (; i + kMr <= i1; i += kMr) {
    const float* a0 = a + (i + 0) * k;
    const float* a1 = a + (i + 1) * k;
    const float* a2 = a + (i + 2) * k;
    const float* a3 = a + (i + 3) * k;
    int64_t j = 0;
    for (; j + kNr <= n; j += kNr) {
      __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
      __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
      __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
      __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
      for (int64_t p = 0; p < k; ++p) {
        const float* brow = b + p * n + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 av = _mm256_set1_ps(a0[p]);
        c00 = _mm256_add_ps(c00, _mm256_mul_ps(av, b0));
        c01 = _mm256_add_ps(c01, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a1[p]);
        c10 = _mm256_add_ps(c10, _mm256_mul_ps(av, b0));
        c11 = _mm256_add_ps(c11, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a2[p]);
        c20 = _mm256_add_ps(c20, _mm256_mul_ps(av, b0));
        c21 = _mm256_add_ps(c21, _mm256_mul_ps(av, b1));
        av = _mm256_set1_ps(a3[p]);
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
      // Column tail: plain ascending-p loops onto the pre-zeroed C.
      for (int64_t ii = 0; ii < kMr; ++ii) {
        const float* arow = a + (i + ii) * k;
        float* crow = c + (i + ii) * n;
        for (int64_t p = 0; p < k; ++p) {
          const float av = arow[p];
          const float* brow = b + p * n;
          for (int64_t jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
        }
      }
    }
  }
  if (i < i1) MatMulRangeScalar(a, b, c, i, i1, k, n);
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

void MatMulTransBRangeAvx2(const float* a, const float* b, float* c,
                           int64_t i0, int64_t i1, int64_t k, int64_t n) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      DotCols4Avx2(arow, b + (j + 0) * k, b + (j + 1) * k, b + (j + 2) * k,
                   b + (j + 3) * k, k, 0.0, c + i * n + j);
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      double s = 0.0;
      for (int64_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      c[i * n + j] = static_cast<float>(s);
    }
  }
}

void ConvGemmBiasColsAvx2(const float* a, const float* b, const float* bias,
                          float* c, int64_t m, int64_t k, int64_t n,
                          int64_t j0, int64_t j1) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const double bias_i = static_cast<double>(bias[i]);
    int64_t j = j0;
    for (; j + 4 <= j1; j += 4) {
      DotCols4Avx2(arow, b + (j + 0) * k, b + (j + 1) * k, b + (j + 2) * k,
                   b + (j + 3) * k, k, bias_i, c + i * n + j);
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
// Store/reload of a float is the identical bit pattern, and
// _mm256_max_ps(v, 0) with zero as the SECOND operand returns the second
// operand on NaN and on the -0/+0 tie, matching the scalar
// `v > 0.0f ? v : 0.0f` exactly — so fusion stays bitwise neutral.

void MatMulBiasActRangeAvx2(const float* a, const float* b, const float* bias,
                            float* c, int64_t i0, int64_t i1, int64_t k,
                            int64_t n, int relu) {
  MatMulRangeAvx2(a, b, c, i0, i1, k, n);
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 v = _mm256_add_ps(_mm256_loadu_ps(crow + j),
                               _mm256_loadu_ps(bias + j));
      if (relu != 0) v = _mm256_max_ps(v, zero);
      _mm256_storeu_ps(crow + j, v);
    }
    for (; j < n; ++j) {
      const float v = crow[j] + bias[j];
      crow[j] = relu != 0 ? (v > 0.0f ? v : 0.0f) : v;
    }
  }
}

void ConvGemmBiasActColsAvx2(const float* a, const float* b,
                             const float* bias, float* c, int64_t m,
                             int64_t k, int64_t n, int64_t j0, int64_t j1,
                             int relu) {
  ConvGemmBiasColsAvx2(a, b, bias, c, m, k, n, j0, j1);
  if (relu == 0) return;
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    int64_t j = j0;
    for (; j + 8 <= j1; j += 8) {
      _mm256_storeu_ps(crow + j,
                       _mm256_max_ps(_mm256_loadu_ps(crow + j), zero));
    }
    for (; j < j1; ++j) crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f;
  }
}

// ------------------------------------------------------- block-quantized

inline int32_t HorizontalSumI32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// Exact int32 dot of one 32-element q8 block pair.
inline int32_t DotQ8BlockAvx2(const int8_t* a, const int8_t* b) {
  const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  const __m256i a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
  const __m256i a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
  const __m256i b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
  const __m256i b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
  const __m256i acc = _mm256_add_epi32(_mm256_madd_epi16(a_lo, b_lo),
                                       _mm256_madd_epi16(a_hi, b_hi));
  return HorizontalSumI32(acc);
}

/// Exact int32 dot of a q8 activation block against a nibble-packed q4
/// weight block: byte t = element t (low nibble) and 16+t (high nibble),
/// code = q + 8.
inline int32_t DotQ4BlockAvx2(const int8_t* a, const uint8_t* b) {
  const __m128i packed = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const __m128i mask = _mm_set1_epi8(0x0F);
  const __m128i lo = _mm_and_si128(packed, mask);
  const __m128i hi = _mm_and_si128(_mm_srli_epi16(packed, 4), mask);
  const __m256i eight = _mm256_set1_epi16(8);
  const __m256i b_lo = _mm256_sub_epi16(_mm256_cvtepu8_epi16(lo), eight);
  const __m256i b_hi = _mm256_sub_epi16(_mm256_cvtepu8_epi16(hi), eight);
  const __m256i a_lo = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(a)));
  const __m256i a_hi = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + 16)));
  const __m256i acc = _mm256_add_epi32(_mm256_madd_epi16(a_lo, b_lo),
                                       _mm256_madd_epi16(a_hi, b_hi));
  return HorizontalSumI32(acc);
}

const KernelTable kAvx2Table = {
    Isa::kAvx2,
    "kernel.avx2",
    &MatMulRangeAvx2,
    &MatMulTransARangeAvx2,
    &MatMulTransBRangeAvx2,
    &ConvGemmBiasColsAvx2,
    &Q8GemmRowsAvx2,
    &Q4GemmRowsAvx2,
    &MatMulBiasActRangeAvx2,
    &ConvGemmBiasActColsAvx2,
};

}  // namespace

// The block GEMMs have external linkage: the AVX-512 table runs these
// bodies too (see kernels.h).
void Q8GemmRowsAvx2(const int8_t* a, const float* a_scales, const int8_t* b,
                    const float* b_scales, float* c, int64_t i0, int64_t i1,
                    int64_t kp, int64_t n) {
  const int64_t nb = kp / 32;
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* arow = a + i * kp;
    const float* as = a_scales + i * nb;
    for (int64_t j = 0; j < n; ++j) {
      const int8_t* brow = b + j * kp;
      const float* bs = b_scales + j * nb;
      float sum = 0.0f;
      for (int64_t bb = 0; bb < nb; ++bb) {
        const int32_t dot = DotQ8BlockAvx2(arow + bb * 32, brow + bb * 32);
        sum += static_cast<float>(dot) * (as[bb] * bs[bb]);
      }
      c[i * n + j] = sum;
    }
  }
}

void Q4GemmRowsAvx2(const int8_t* a, const float* a_scales, const uint8_t* b,
                    const float* b_scales, float* c, int64_t i0, int64_t i1,
                    int64_t kp, int64_t n) {
  const int64_t nb = kp / 32;
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* arow = a + i * kp;
    const float* as = a_scales + i * nb;
    for (int64_t j = 0; j < n; ++j) {
      const uint8_t* brow = b + j * (kp / 2);
      const float* bs = b_scales + j * nb;
      float sum = 0.0f;
      for (int64_t bb = 0; bb < nb; ++bb) {
        const int32_t dot = DotQ4BlockAvx2(arow + bb * 32, brow + bb * 16);
        sum += static_cast<float>(dot) * (as[bb] * bs[bb]);
      }
      c[i * n + j] = sum;
    }
  }
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
