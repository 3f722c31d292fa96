#ifndef DLSYS_TESTS_BLOCK_GEMM_REFERENCE_H_
#define DLSYS_TESTS_BLOCK_GEMM_REFERENCE_H_

#include <cstdint>

#include "src/core/status.h"
#include "src/simd/kernels.h"

/// \file block_gemm_reference.h
/// \brief Test-side references for the block-quantized GEMMs of
/// src/tensor/int8_gemm.h: the scalar table's row bodies run serially
/// over every row, with no dispatch, no ParallelFor and no tracing, so
/// the dispatched, threaded entry points can be bit-compared against them.

namespace dlsys {

/// \brief Reference for Q8BlockGemmTransBInto (bit-exact target).
inline void NaiveQ8BlockGemmTransBInto(const int8_t* a, const float* a_scales,
                                       const int8_t* b, const float* b_scales,
                                       float* c, int64_t m, int64_t kp,
                                       int64_t n) {
  DLSYS_CHECK(kp % 32 == 0, "NaiveQ8BlockGemmTransBInto: kp must be 32-padded");
  simd::Q8GemmRowsScalar(a, a_scales, b, b_scales, c, 0, m, kp, n);
}

/// \brief Reference for Q4BlockGemmTransBInto (bit-exact target).
inline void NaiveQ4BlockGemmTransBInto(const int8_t* a, const float* a_scales,
                                       const uint8_t* b,
                                       const float* b_scales, float* c,
                                       int64_t m, int64_t kp, int64_t n) {
  DLSYS_CHECK(kp % 32 == 0, "NaiveQ4BlockGemmTransBInto: kp must be 32-padded");
  simd::Q4GemmRowsScalar(a, a_scales, b, b_scales, c, 0, m, kp, n);
}

}  // namespace dlsys

#endif  // DLSYS_TESTS_BLOCK_GEMM_REFERENCE_H_
