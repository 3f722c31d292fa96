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
///   sequence exactly: starting from +0.0, one float multiply then one add
///   (or one float multiply, widen, double add for the TransB/conv family)
///   per p, in ascending p. SIMD variants vectorize across *independent
///   output elements* only, never across the reduction, and are compiled
///   with -ffp-contract=off, so they are **bitwise identical** to the
///   scalar kernels — no FMA, no reassociation, no tolerance needed. The
///   row-range bodies (matmul, transA, matmul+bias+act) overwrite their
///   rows: full tiles store their accumulators and tails zero their own
///   elements before accumulating, so what C held never matters.
/// - q8/q4 block kernels accumulate each block's dot in int32, which is
///   associative: any vector order is exact, so the dots are bit-exact by
///   construction. The per-block float epilogue follows the scalar chain
///   (sum = +0.0, then sum += float(dot) * (a_scale * b_scale) in
///   ascending block index) element-for-element.
///
/// ## Cache blocking (what the AVX bodies do inside a range)
///
/// - fp32 matmul_range (and matmul_bias_act_range, which runs it): the
///   AVX-512 body loops over 32-column B panels outermost and splits k
///   into blocks of 256 rows. Each panel block is copied once into a
///   64-byte-aligned 32 KB stack buffer (zero-padded past column n) and
///   reused from L1 by every 8x32 register tile of the range; the 1-7
///   leftover rows run the same loop as a shorter tile. The AVX2 body is
///   the same loop with 16-column panels and 4x16 tiles (the column tail
///   streams). Splitting k keeps the bits: between blocks a tile stores
///   its float partial sums to C and the next block reloads them, and a
///   float store/reload is exact, so each element still sees one
///   ascending-p chain of separate multiplies and adds from +0.0.
/// - A range shorter than the body's kMinPanelRows (2 on AVX-512, 6 on
///   AVX2), or with k = 0, runs the scalar body, which reads each B row
///   once in place; longer ranges take the panel loop. Both thresholds
///   come from an alternating A/B of the two bodies (EXPERIMENTS E34).
///   The choice depends on the call's shape alone: no option selects it.
/// - q8/q4 (the AVX2 bodies, which the AVX-512 table also runs): one
///   4-row x 8-column C tile per 32-element block. The eight B blocks are
///   loaded or nibble-unpacked and widened once and reused by every row;
///   each A block is widened once and reused by every column; the eight
///   int32 dot vectors of a row are reduced by one hadd tree; and the
///   epilogue applies float(dot) * (a_scale * b_scale) across the 8
///   columns at once in ascending block order. Row and column remainders
///   run the same tile with fewer rows or masked columns.
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
/// pre-dispatch kernels (same source and build flags; the only change is
/// that edge tiles zero their elements instead of relying on the caller).
const KernelTable* GetScalarTable();
/// AVX2 table, or nullptr when not compiled into this binary.
const KernelTable* GetAvx2Table();
/// AVX-512 (F+BW+VL+DQ) table, or nullptr when not compiled in.
const KernelTable* GetAvx512Table();

// ------------------------------------------------------ scalar kernels
// The fp32 bodies are the pre-SIMD kernels from src/tensor/ops.cc; the
// q8/q4 bodies are the block-GEMM references. See kernels_scalar.cc.

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
