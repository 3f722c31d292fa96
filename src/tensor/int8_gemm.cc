#include "src/tensor/int8_gemm.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/compress/quantization.h"
#include "src/core/status.h"
#include "src/obs/cost.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"

namespace dlsys {

namespace {

constexpr int64_t kRowGrain = 8;  // min C rows per ParallelFor range

// ------------------------------------------------- block quantizer bodies
// The quantizers declared in src/compress/quantization.h, written
// branch-free and libm-free so that this kernel-flags TU vectorizes them;
// quantization.h gives the scalar formulation they equal bit for bit and
// the argument why.

/// max|x| over one block, NaN elements skipped: NaN maps to +0, and the
/// non-negative floats left order like their int32 bit patterns, so the
/// integer max may reduce in any order.
inline float BlockMaxAbs(const float* x) {
  int32_t m = 0;
  for (int t = 0; t < kQuantBlock; ++t) {
    const float v = std::abs(x[t]);
    const int32_t bits = std::bit_cast<int32_t>(v > 0.0f ? v : 0.0f);
    m = bits > m ? bits : m;
  }
  return std::bit_cast<float>(m);
}

/// The block scale of quantization.h: max|x| / lim, 1 for an all-zero
/// block.
template <int kLim>
inline float BlockScale(float maxabs) {
  return maxabs > 0.0f ? maxabs / static_cast<float>(kLim) : 1.0f;
}

/// clamp(std::lround(y), -lim, lim), as a float.
inline float RoundClamp(float y, float lim) {
  // Half away from zero in the magnitude (|y| - trunc(|y|) is exact),
  // clamped, then y's sign.
  const float a = std::abs(y);
  const float ta = std::trunc(a);
  float r = ta + (a - ta >= 0.5f ? 1.0f : 0.0f);
  r = r < lim ? r : lim;
  r = std::copysign(r, y);
  // Where lround has no result (NaN, |y| >= 2^63) it returns LONG_MIN,
  // which the clamp turns into -lim.
  return a < 0x1p63f ? r : -lim;
}

/// Block-quantizes one row of \p cols floats: one scale per block to
/// \p scales, and each block's codes through \p codes(b, x, inv, n),
/// which encodes the first n of the 32 floats at x as RoundClamp(x * inv)
/// and the rest as q = 0. Full blocks go in chunks of kChunk: first every
/// block's max and scale, then every block's codes, so one block's
/// max/divide latency overlaps the others' work instead of stalling its
/// own codes.
template <int kLim, typename Codes>
inline void QuantizeRow(const float* row, int64_t cols, float* scales,
                        Codes&& codes) {
  constexpr int64_t kChunk = 16;
  const int64_t full = cols / kQuantBlock;
  for (int64_t b0 = 0; b0 < full; b0 += kChunk) {
    const int64_t n = std::min(kChunk, full - b0);
    float inv[kChunk];
    for (int64_t b = 0; b < n; ++b) {
      const float scale =
          BlockScale<kLim>(BlockMaxAbs(row + (b0 + b) * kQuantBlock));
      scales[b0 + b] = scale;
      inv[b] = 1.0f / scale;
    }
    for (int64_t b = 0; b < n; ++b) {
      codes(b0 + b, row + (b0 + b) * kQuantBlock, inv[b], kQuantBlock);
    }
  }
  const int64_t tail = cols - full * kQuantBlock;
  if (tail > 0) {
    // Zero padding cannot raise a max that starts at 0.
    float buf[kQuantBlock] = {};
    std::copy(row + full * kQuantBlock, row + cols, buf);
    const float scale = BlockScale<kLim>(BlockMaxAbs(buf));
    scales[full] = scale;
    codes(full, buf, 1.0f / scale, tail);
  }
}

}  // namespace

void Q8BlockQuantizeRowInto(const float* row, int64_t cols, int8_t* values,
                            float* scales) {
  QuantizeRow<127>(row, cols, scales,
                   [=](int64_t b, const float* x, float inv, int64_t n) {
                     int8_t* q = values + b * kQuantBlock;
                     for (int t = 0; t < kQuantBlock; ++t) {
                       q[t] = static_cast<int8_t>(
                           t < n ? RoundClamp(x[t] * inv, 127.0f) : 0.0f);
                     }
                   });
}

void Q8BlockQuantizeRowsInto(const float* x, int64_t rows, int64_t cols,
                             int8_t* values, float* scales) {
  const int64_t kp = PadToQuantBlock(cols);
  const int64_t nb = kp / kQuantBlock;
  ParallelFor(0, rows, 4, [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      Q8BlockQuantizeRowInto(x + i * cols, cols, values + i * kp,
                             scales + i * nb);
    }
  });
}

void Q4BlockQuantizeRowsInto(const float* x, int64_t rows, int64_t cols,
                             uint8_t* values, float* scales) {
  const int64_t kp = PadToQuantBlock(cols);
  const int64_t nb = kp / kQuantBlock;
  constexpr int kHalf = kQuantBlock / 2;
  ParallelFor(0, rows, 4, [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      uint8_t* vrow = values + i * kp / 2;
      QuantizeRow<7>(
          x + i * cols, cols, scales + i * nb,
          [=](int64_t b, const float* xb, float inv, int64_t n) {
            // Byte t: code q + 8 of element t (low nibble) and of element
            // 16 + t (high nibble).
            uint8_t* block = vrow + b * kHalf;
            for (int t = 0; t < kHalf; ++t) {
              const int lo = static_cast<int>(
                  t < n ? RoundClamp(xb[t] * inv, 7.0f) : 0.0f);
              const int hi = static_cast<int>(
                  t + kHalf < n ? RoundClamp(xb[t + kHalf] * inv, 7.0f)
                                : 0.0f);
              block[t] = static_cast<uint8_t>((lo + 8) | ((hi + 8) << 4));
            }
          });
    }
  });
}

void BiasActQ8QuantizeRowsInto(const float* bias, bool relu, float* c,
                               int64_t m, int64_t n, int8_t* q_values,
                               float* q_scales) {
  const int64_t kp = PadToQuantBlock(n);
  ParallelFor(0, m, kRowGrain, [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      // This TU is built with the scalar table's kernel flags, so the
      // scalar table's copy of the shared epilogue is the right one.
      simd::BiasActEpilogue<simd::Isa::kScalar>(bias, relu ? 1 : 0, c, n, i,
                                                i + 1, 0, n);
      if (q_values != nullptr) {
        Q8BlockQuantizeRowInto(c + i * n, n, q_values + i * kp,
                               q_scales + i * (kp / kQuantBlock));
      }
    }
  });
}

void Q8BlockGemmTransBInto(const int8_t* a, const float* a_scales,
                           const int8_t* b, const float* b_scales, float* c,
                           int64_t m, int64_t kp, int64_t n) {
  DLSYS_CHECK(kp % 32 == 0, "Q8BlockGemmTransBInto: kp must be 32-padded");
  const simd::KernelTable& kt = simd::ActiveKernels();
  simd::CountDispatch(kt);
  DLSYS_TRACE_SPAN_COST_CAT("gemm.q8_block_tb", kt.span_cat, 2 * m * kp * n,
                            m * kp + n * kp + 4 * m * n);
  DLSYS_COST_FLOPS(2 * m * kp * n);
  auto* kernel = kt.q8_gemm_rows;
  ParallelFor(0, m, kRowGrain, [=](int64_t i0, int64_t i1) {
    kernel(a, a_scales, b, b_scales, c, i0, i1, kp, n);
  });
}

void Q4BlockGemmTransBInto(const int8_t* a, const float* a_scales,
                           const uint8_t* b, const float* b_scales, float* c,
                           int64_t m, int64_t kp, int64_t n) {
  DLSYS_CHECK(kp % 32 == 0, "Q4BlockGemmTransBInto: kp must be 32-padded");
  const simd::KernelTable& kt = simd::ActiveKernels();
  simd::CountDispatch(kt);
  DLSYS_TRACE_SPAN_COST_CAT("gemm.q4_block_tb", kt.span_cat, 2 * m * kp * n,
                            m * kp + n * kp / 2 + 4 * m * n);
  DLSYS_COST_FLOPS(2 * m * kp * n);
  auto* kernel = kt.q4_gemm_rows;
  ParallelFor(0, m, kRowGrain, [=](int64_t i0, int64_t i1) {
    kernel(a, a_scales, b, b_scales, c, i0, i1, kp, n);
  });
}

}  // namespace dlsys
