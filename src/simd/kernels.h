#ifndef DLSYS_SIMD_KERNELS_H_
#define DLSYS_SIMD_KERNELS_H_

#include <cstdint>

/// \file kernels.h
/// \brief Internal per-ISA microkernel declarations behind the dispatch
/// registry (src/simd/dispatch.h). Not part of the public API: callers go
/// through src/tensor/ops.h and src/tensor/int8_gemm.h, which fetch the
/// active KernelTable and hand these range kernels to ParallelFor.
///
/// ## Parity contract (the reason these signatures look the way they do)
///
/// Every kernel computes a *range* of output elements — rows [i0, i1) or
/// columns [j0, j1) — so the runtime's static partition decides only which
/// worker runs a range, never the arithmetic inside it. Within a range:
///
/// - fp32 kernels reproduce the scalar reference's per-element operation
///   sequence exactly: one float multiply then one add (or one float
///   multiply, widen, double add for the TransB/conv family) per p, in
///   ascending p. SIMD variants vectorize across *independent output
///   elements* only, never across the reduction, and are compiled with
///   -ffp-contract=off, so they are **bitwise identical** to the scalar
///   kernels — no FMA, no reassociation, no tolerance needed.
/// - q8/q4 block kernels accumulate each block's dot in int32, which is
///   associative: any vector order is exact, so the dots are bit-exact by
///   construction. The per-block float epilogue follows the scalar chain
///   (ascending block index, float(dot) * (a_scale * b_scale))
///   element-for-element.
///
/// Each ISA translation unit is compiled with exactly the target flags it
/// needs (-mavx2 / -mavx512*) and self-guards; its code only executes
/// after runtime detection picks its table. That does not make the binary
/// portable: the scalar table and the other kernel TUs (ops.cc, conv.cc,
/// runtime.cc) are built with -march=native when the compiler accepts it
/// (src/CMakeLists.txt), so the library targets the build host and the
/// "scalar" table is portable C++ auto-vectorized for that host. Non-x86
/// builds (e.g. aarch64/NEON, currently a stub) fall back to the scalar
/// table.

namespace dlsys {
namespace simd {

struct KernelTable;

/// Scalar reference table: always available, bitwise identical to the
/// pre-dispatch kernels (same source moved verbatim, same build flags).
const KernelTable* GetScalarTable();
/// AVX2 table, or nullptr when not compiled into this binary.
const KernelTable* GetAvx2Table();
/// AVX-512 (F+BW+VL+DQ) table, or nullptr when not compiled in.
const KernelTable* GetAvx512Table();

// ------------------------------------------------------ scalar kernels
// The fp32 bodies are the pre-SIMD kernels from src/tensor/ops.cc, moved
// verbatim; the q8/q4 bodies are the block-GEMM references. See
// kernels_scalar.cc.

void MatMulRangeScalar(const float* a, const float* b, float* c, int64_t i0,
                       int64_t i1, int64_t k, int64_t n);
void MatMulTransARangeScalar(const float* a, const float* b, float* c,
                             int64_t i0, int64_t i1, int64_t k, int64_t m,
                             int64_t n);
void MatMulTransBRangeScalar(const float* a, const float* b, float* c,
                             int64_t i0, int64_t i1, int64_t k, int64_t n);
void ConvGemmBiasColsScalar(const float* a, const float* b, const float* bias,
                            float* c, int64_t m, int64_t k, int64_t n,
                            int64_t j0, int64_t j1);
void Q8GemmRowsScalar(const int8_t* a, const float* a_scales, const int8_t* b,
                      const float* b_scales, float* c, int64_t i0, int64_t i1,
                      int64_t kp, int64_t n);
void Q4GemmRowsScalar(const int8_t* a, const float* a_scales,
                      const uint8_t* b, const float* b_scales, float* c,
                      int64_t i0, int64_t i1, int64_t kp, int64_t n);
void MatMulBiasActRangeScalar(const float* a, const float* b,
                              const float* bias, float* c, int64_t i0,
                              int64_t i1, int64_t k, int64_t n, int relu);
void ConvGemmBiasActColsScalar(const float* a, const float* b,
                               const float* bias, float* c, int64_t m,
                               int64_t k, int64_t n, int64_t j0, int64_t j1,
                               int relu);

// -------------------------------------------------------- AVX2 kernels
// Shared with the AVX-512 table, which runs these bodies for its q8/q4
// entries (they time faster than 512-bit variants on AVX-512 hosts; see
// EXPERIMENTS E34). Defined in kernels_avx2.cc, which is compiled
// whenever kernels_avx512.cc is (any -mavx512f compiler accepts -mavx2);
// only call them after the CPU check for the table that holds them.

void Q8GemmRowsAvx2(const int8_t* a, const float* a_scales, const int8_t* b,
                    const float* b_scales, float* c, int64_t i0, int64_t i1,
                    int64_t kp, int64_t n);
void Q4GemmRowsAvx2(const int8_t* a, const float* a_scales, const uint8_t* b,
                    const float* b_scales, float* c, int64_t i0, int64_t i1,
                    int64_t kp, int64_t n);

}  // namespace simd
}  // namespace dlsys

#endif  // DLSYS_SIMD_KERNELS_H_
