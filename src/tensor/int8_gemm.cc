#include "src/tensor/int8_gemm.h"

#include "src/core/status.h"
#include "src/obs/cost.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"

namespace dlsys {

namespace {
constexpr int64_t kRowGrain = 8;  // min C rows per ParallelFor range
}  // namespace

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

void NaiveQ8BlockGemmTransBInto(const int8_t* a, const float* a_scales,
                                const int8_t* b, const float* b_scales,
                                float* c, int64_t m, int64_t kp, int64_t n) {
  DLSYS_CHECK(kp % 32 == 0, "NaiveQ8BlockGemmTransBInto: kp must be 32-padded");
  simd::Q8GemmRowsScalar(a, a_scales, b, b_scales, c, 0, m, kp, n);
}

void NaiveQ4BlockGemmTransBInto(const int8_t* a, const float* a_scales,
                                const uint8_t* b, const float* b_scales,
                                float* c, int64_t m, int64_t kp, int64_t n) {
  DLSYS_CHECK(kp % 32 == 0, "NaiveQ4BlockGemmTransBInto: kp must be 32-padded");
  simd::Q4GemmRowsScalar(a, a_scales, b, b_scales, c, 0, m, kp, n);
}

}  // namespace dlsys
