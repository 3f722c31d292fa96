#include <algorithm>
#include <cstdint>

#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"

/// \file kernels_scalar.cc
/// \brief The always-available reference kernels. The fp32 bodies are
/// the pre-dispatch kernels from src/tensor/ops.cc (edge tiles zero their
/// own elements, so a range overwrites its rows), compiled with the same
/// flags (-O3 -march=native -ffp-contract=off via src/CMakeLists.txt), so
/// a -DDLSYS_SIMD=OFF or DLSYS_ISA=scalar run is bitwise identical to the
/// tree before the SIMD backend existed. The q8/q4 block kernels are the
/// scalar references the SIMD variants bit-compare against.

namespace dlsys {
namespace simd {

// ---------------------------------------------------------------- fp32
//
// Tile shape: kMr x kNr floats of C held in registers across the whole
// p loop. The accumulation order for any single C element is ascending-p,
// one float multiply then one add per term — the contract every other ISA
// reproduces exactly.

namespace {
constexpr int64_t kMr = 4;   // C rows per register tile
constexpr int64_t kNr = 32;  // C columns per register tile
}  // namespace

void MatMulRangeScalar(const float* a, const float* b, float* c, int64_t i0,
                       int64_t i1, int64_t k, int64_t n) {
  const float* pa = a;
  const float* pb = b;
  float* pc = c;
  for (int64_t i = i0; i < i1; i += kMr) {
    const int64_t ir = std::min<int64_t>(kMr, i1 - i);
    int64_t j = 0;
    for (; j + kNr <= n && ir == kMr; j += kNr) {
      float acc[kMr][kNr] = {};
      for (int64_t p = 0; p < k; ++p) {
        const float* brow = pb + p * n + j;
        for (int64_t ii = 0; ii < kMr; ++ii) {
          const float av = pa[(i + ii) * k + p];
          for (int64_t jj = 0; jj < kNr; ++jj) acc[ii][jj] += av * brow[jj];
        }
      }
      for (int64_t ii = 0; ii < kMr; ++ii) {
        float* crow = pc + (i + ii) * n + j;
        for (int64_t jj = 0; jj < kNr; ++jj) crow[jj] = acc[ii][jj];
      }
    }
    // Edge tiles (tail columns, or a short row block): plain loops with
    // the same ascending-p accumulation order per element, starting from
    // +0.0 like the register tile, so the rows are overwritten.
    for (int64_t ii = 0; ii < ir; ++ii) {
      const float* arow = pa + (i + ii) * k;
      float* crow = pc + (i + ii) * n;
      std::fill(crow + j, crow + n, 0.0f);
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        const float* brow = pb + p * n;
        for (int64_t jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
      }
    }
  }
}

void MatMulTransARangeScalar(const float* a, const float* b, float* c,
                             int64_t i0, int64_t i1, int64_t k, int64_t m,
                             int64_t n) {
  const float* pa = a;
  const float* pb = b;
  float* pc = c;
  for (int64_t i = i0; i < i1; i += kMr) {
    const int64_t ir = std::min<int64_t>(kMr, i1 - i);
    int64_t j = 0;
    for (; j + kNr <= n && ir == kMr; j += kNr) {
      float acc[kMr][kNr] = {};
      for (int64_t p = 0; p < k; ++p) {
        const float* brow = pb + p * n + j;
        const float* acol = pa + p * m + i;
        for (int64_t ii = 0; ii < kMr; ++ii) {
          const float av = acol[ii];
          for (int64_t jj = 0; jj < kNr; ++jj) acc[ii][jj] += av * brow[jj];
        }
      }
      for (int64_t ii = 0; ii < kMr; ++ii) {
        float* crow = pc + (i + ii) * n + j;
        for (int64_t jj = 0; jj < kNr; ++jj) crow[jj] = acc[ii][jj];
      }
    }
    for (int64_t ii = 0; ii < ir; ++ii) {
      float* crow = pc + (i + ii) * n;
      std::fill(crow + j, crow + n, 0.0f);
      for (int64_t p = 0; p < k; ++p) {
        const float av = pa[p * m + i + ii];
        const float* brow = pb + p * n;
        for (int64_t jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
      }
    }
  }
}

namespace {

/// Four columns per step, each a double chain from the row's start value:
/// float multiply, widen, double add, ascending p.
void DotGemmRangeScalar(const float* a, const float* b, const float* bias,
                        float* c, int64_t i0, int64_t i1, int64_t j0,
                        int64_t j1, int64_t k, int64_t n, int relu) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    const double init = bias != nullptr ? static_cast<double>(bias[i]) : 0.0;
    float* crow = c + i * n;
    int64_t j = j0;
    for (; j + 4 <= j1; j += 4) {
      const float* b0 = b + (j + 0) * k;
      const float* b1 = b + (j + 1) * k;
      const float* b2 = b + (j + 2) * k;
      const float* b3 = b + (j + 3) * k;
      double s0 = init, s1 = init, s2 = init, s3 = init;
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        s0 += av * b0[p];
        s1 += av * b1[p];
        s2 += av * b2[p];
        s3 += av * b3[p];
      }
      crow[j + 0] = static_cast<float>(s0);
      crow[j + 1] = static_cast<float>(s1);
      crow[j + 2] = static_cast<float>(s2);
      crow[j + 3] = static_cast<float>(s3);
    }
    for (; j < j1; ++j) {
      const float* brow = b + j * k;
      double s = init;
      for (int64_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] = static_cast<float>(s);
    }
  }
  BiasActEpilogue<Isa::kScalar>(nullptr, relu, c, n, i0, i1, j0, j1);
}

}  // namespace

// ------------------------------------------------------- block-quantized
//
// Per 32-element block: the integer dot product is exact (int32), and the
// running float sum adds float(dot) * (a_scale * b_scale) in ascending
// block order. SIMD variants keep this exact float chain per element and
// only vectorize the integer dot, so results are bitwise identical.

void Q8GemmRowsScalar(const int8_t* a, const float* a_scales, const int8_t* b,
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
        const int8_t* ab = arow + bb * 32;
        const int8_t* bbp = brow + bb * 32;
        int32_t dot = 0;
        for (int t = 0; t < 32; ++t) {
          dot += static_cast<int32_t>(ab[t]) * static_cast<int32_t>(bbp[t]);
        }
        sum += static_cast<float>(dot) * (as[bb] * bs[bb]);
      }
      c[i * n + j] = sum;
    }
  }
}

void Q4GemmRowsScalar(const int8_t* a, const float* a_scales,
                      const uint8_t* b, const float* b_scales, float* c,
                      int64_t i0, int64_t i1, int64_t kp, int64_t n) {
  const int64_t nb = kp / 32;
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* arow = a + i * kp;
    const float* as = a_scales + i * nb;
    for (int64_t j = 0; j < n; ++j) {
      const uint8_t* brow = b + j * (kp / 2);
      const float* bs = b_scales + j * nb;
      float sum = 0.0f;
      for (int64_t bb = 0; bb < nb; ++bb) {
        const int8_t* ab = arow + bb * 32;
        const uint8_t* bbp = brow + bb * 16;
        // Block layout (see Q4BlockMatrix): byte t holds element t in its
        // low nibble and element 16+t in its high nibble, code = q + 8.
        int32_t dot = 0;
        for (int t = 0; t < 16; ++t) {
          const int32_t blo = static_cast<int32_t>(bbp[t] & 0x0F) - 8;
          const int32_t bhi = static_cast<int32_t>(bbp[t] >> 4) - 8;
          dot += static_cast<int32_t>(ab[t]) * blo;
          dot += static_cast<int32_t>(ab[16 + t]) * bhi;
        }
        sum += static_cast<float>(dot) * (as[bb] * bs[bb]);
      }
      c[i * n + j] = sum;
    }
  }
}

namespace {
const KernelTable kScalarTable = {
    Isa::kScalar,
    "kernel.scalar",
    &MatMulRangeScalar,
    &MatMulTransARangeScalar,
    &DotGemmRangeScalar,
    &Q8GemmRowsScalar,
    &Q4GemmRowsScalar,
    &MatMulBiasActRange<Isa::kScalar, &MatMulRangeScalar>,
};
}  // namespace

const KernelTable* GetScalarTable() { return &kScalarTable; }

}  // namespace simd
}  // namespace dlsys
