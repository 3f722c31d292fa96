#ifndef DLSYS_TENSOR_OPS_H_
#define DLSYS_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

/// \file ops.h
/// \brief Dense kernels over Tensor: GEMM variants, elementwise math,
/// row-wise reductions.
///
/// The GEMM variants are cache-blocked, register-tiled kernels dispatched
/// through the multi-threaded runtime (src/runtime/runtime.h) and the
/// per-ISA microkernel registry (src/simd/dispatch.h), which selects the
/// best SIMD table the CPU supports (scalar / AVX2 / AVX-512) at startup;
/// elementwise ops, RowSoftmax, and Transpose route through the same
/// ParallelFor primitive. Every kernel is **bitwise deterministic for any
/// thread count and any dispatched ISA**: workers own disjoint, statically
/// partitioned output ranges, so the floating-point accumulation order per
/// output element never depends on DLSYS_THREADS, and the SIMD kernels
/// vectorize only across independent output elements (see
/// src/simd/kernels.h for the parity contract). The Naive* reference
/// kernels retain the plain loop nests with the same per-element operation
/// order; tests assert bitwise equality between the optimised and naive
/// paths at every ISA.

namespace dlsys {

/// \brief C = A(MxK) * B(KxN). Shapes are checked.
Tensor MatMul(const Tensor& a, const Tensor& b);
/// \brief C = A^T(KxM -> MxK as given) * B: computes A'(MxK)^T? No —
/// computes C(MxN) = A(KxM)^T * B(KxN).
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
/// \brief C(MxN) = A(MxK) * B(NxK)^T.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// \brief Reference GEMM: plain single-threaded loop nest with the same
/// per-element accumulation order as MatMul. Retained for determinism
/// tests and as the bench baseline; bitwise identical to MatMul.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b);
/// \brief Reference single-threaded kernel for MatMulTransA (see
/// NaiveMatMul).
Tensor NaiveMatMulTransA(const Tensor& a, const Tensor& b);
/// \brief Reference single-threaded kernel for MatMulTransB (see
/// NaiveMatMul).
Tensor NaiveMatMulTransB(const Tensor& a, const Tensor& b);

/// \brief C(MxN) = A(MxK) * B(KxN) written into caller storage \p c.
///
/// The same blocked kernel as MatMul (bitwise identical output), but
/// allocation-free: \p c is overwritten in place (what it held never
/// matters). The inference engine's arena-planned hot loop dispatches
/// through this entry point.
void MatMulInto(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);

/// \brief C(MxN) = act(A(MxK) * B(KxN) + bias(N)) into caller storage —
/// MatMulInto with the bias add and optional relu fused into the range
/// kernel's epilogue (act = relu when \p relu is true, identity
/// otherwise).
///
/// The GEMM accumulation sequence is exactly MatMulInto's; the epilogue
/// adds bias[j] to each finished element and applies
/// `v > 0.0f ? v : 0.0f`, so the result is bitwise identical to
/// MatMulInto followed by separate bias / relu output passes. The graph
/// compiler's fusion pass (src/infer/passes.h) dispatches dense layers
/// through this entry point.
void MatMulBiasActInto(const float* a, const float* b, const float* bias,
                       float* c, int64_t m, int64_t k, int64_t n, bool relu);

/// \brief C(MxN) = act(bias(M) + A(MxK) * B(NxK)^T) into caller storage,
/// with the convolution forward's accumulation semantics (act = relu when
/// \p relu is true, identity otherwise).
///
/// Each output element starts from bias[i] in a double accumulator and
/// adds float products a[i,p]*b[j,p] in ascending p — exactly the
/// (ic, ky, kx) term order of Conv2D's direct loop nest. With A = the
/// (out_ch x in_ch*k*k) weight matrix and B = im2col patches (positions x
/// in_ch*k*k), the result is the conv output plane, bitwise identical to
/// the direct path on finite data (padded zero taps add +/-0.0f products,
/// which leave a finite accumulator unchanged). The relu runs on each
/// finished element inside the column range, bitwise identical to a
/// separate relu pass over the output. Column-parallel, allocation-free.
void ConvGemmBiasActInto(const float* a, const float* b, const float* bias,
                         float* c, int64_t m, int64_t k, int64_t n,
                         bool relu);

/// \brief Returns a + b elementwise (same shape required).
Tensor Add(const Tensor& a, const Tensor& b);
/// \brief Returns a - b elementwise (same shape required).
Tensor Sub(const Tensor& a, const Tensor& b);
/// \brief Returns a * b elementwise (same shape required).
Tensor Mul(const Tensor& a, const Tensor& b);
/// \brief a += alpha * b, elementwise in place (same size required).
void Axpy(float alpha, const Tensor& b, Tensor* a);
/// \brief a *= alpha in place.
void Scale(float alpha, Tensor* a);

/// \brief Row-wise numerically-stable softmax of a rank-2 tensor.
Tensor RowSoftmax(const Tensor& logits);
/// \brief Per-row argmax of a rank-2 tensor.
std::vector<int64_t> ArgMaxRows(const Tensor& m);
/// \brief One-hot encodes \p labels into an NxC matrix.
Tensor OneHot(const std::vector<int64_t>& labels, int64_t num_classes);

/// \brief Mean over rows: returns a length-C vector tensor from NxC.
Tensor MeanRows(const Tensor& m);
/// \brief Extracts row range [begin, end) of a rank-2 tensor.
Tensor SliceRows(const Tensor& m, int64_t begin, int64_t end);
/// \brief Transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& m);

/// \brief Fraction of rows whose argmax equals the label.
double Accuracy(const Tensor& logits, const std::vector<int64_t>& labels);

}  // namespace dlsys

#endif  // DLSYS_TENSOR_OPS_H_
