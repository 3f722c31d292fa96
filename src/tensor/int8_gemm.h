#ifndef DLSYS_TENSOR_INT8_GEMM_H_
#define DLSYS_TENSOR_INT8_GEMM_H_

#include <cstdint>

/// \file int8_gemm.h
/// \brief Block-quantized integer GEMM kernels for the quantized
/// inference path.
///
/// The engine's int8 and int4 modes (src/infer) store Dense weights in the
/// ggml-style block formats of src/compress/quantization.h (Q8BlockMatrix /
/// Q4BlockMatrix: one scale per 32-element block along K), quantize
/// activations to q8 blocks on the fly, and dequantize inside the GEMM
/// inner loop, so the entry points below produce fp32 output directly.
/// Each block's int8 x int8 dot accumulates in int32; integer addition is
/// associative, so any instruction schedule (including the AVX2/AVX-512
/// vpmaddwd microkernels behind the dispatch registry, src/simd/dispatch.h)
/// gives the exact same dot at any thread count, and the float epilogue
/// follows one fixed order.
///
/// int8_gemm.cc also holds the bodies of the block quantizers declared in
/// src/compress/quantization.h, so they build with the kernel flags.

namespace dlsys {

/// \brief C(MxN) = dequant(A) * dequant(B)^T for q8-block operands with
/// dequantization fused into the inner loop.
///
/// A is M x kp int8 with one float scale per 32-element block (kp = K
/// padded up to a multiple of 32; pad codes are 0 so they contribute
/// nothing). B is N x kp in the same layout. Per block the int32 dot is
/// exact; the fp32 output accumulates float(dot) * (a_scale * b_scale) in
/// ascending block order, so every ISA produces bit-identical results.
void Q8BlockGemmTransBInto(const int8_t* a, const float* a_scales,
                           const int8_t* b, const float* b_scales, float* c,
                           int64_t m, int64_t kp, int64_t n);

/// \brief Like Q8BlockGemmTransBInto but B is nibble-packed q4: 16 bytes
/// per 32-element block, byte t = element t (low nibble) | element 16+t
/// (high nibble), stored code = q + 8 with q in [-8, 7] (the quantizer
/// emits [-7, 7]; -8 only ever appears via the fused subtract).
void Q4BlockGemmTransBInto(const int8_t* a, const float* a_scales,
                           const uint8_t* b, const float* b_scales, float* c,
                           int64_t m, int64_t kp, int64_t n);

/// \brief The quantized Dense epilogue over an m x n row-major \p c, in
/// place and row-parallel: c = act(c + bias) per element (act = relu when
/// \p relu, else identity; the float chain of simd::BiasActEpilogue),
/// then, when \p q_values is non-null, each finished row q8-block
/// quantized by Q8BlockQuantizeRowInto into \p q_values (m x
/// PadToQuantBlock(n)) and \p q_scales (m x PadToQuantBlock(n) / 32), the
/// codes the next quantized layer reads under quant elimination.
void BiasActQ8QuantizeRowsInto(const float* bias, bool relu, float* c,
                               int64_t m, int64_t n, int8_t* q_values,
                               float* q_scales);

}  // namespace dlsys

#endif  // DLSYS_TENSOR_INT8_GEMM_H_
