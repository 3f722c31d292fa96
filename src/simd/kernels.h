#ifndef DLSYS_SIMD_KERNELS_H_
#define DLSYS_SIMD_KERNELS_H_

#include <cstdint>

#include "src/simd/dispatch.h"

/// \file kernels.h
/// \brief Internal per-ISA microkernel declarations behind the dispatch
/// registry (src/simd/dispatch.h). Not part of the public API: callers go
/// through src/tensor/ops.h and src/tensor/int8_gemm.h, which fetch the
/// active KernelTable and hand these range kernels to ParallelFor.
///
/// ## Parity contract (the reason these signatures look the way they do)
///
/// Every kernel computes a *range* of output elements — rows [i0, i1),
/// or for dot_gemm_range any rows x columns [j0, j1) block — so the
/// runtime's static partition decides only which worker runs a range,
/// never the arithmetic inside it. Within a range:
///
/// - fp32 kernels reproduce the scalar reference's per-element operation
///   sequence exactly: starting from +0.0, one float multiply then one add
///   (or, for dot_gemm_range, from the row's bias or +0.0, one float
///   multiply, widen, double add) per p, in ascending p. SIMD variants
///   vectorize across *independent output elements* only, never across
///   the reduction, and are compiled with -ffp-contract=off, so they are
///   **bitwise identical** to the scalar kernels — no FMA, no
///   reassociation, no tolerance needed. Every fp32 entry overwrites the
///   elements of its range: full tiles store their accumulators and tails
///   zero their own elements before accumulating, so what C held never
///   matters.
/// - The fused bias/relu work of every table is BiasActEpilogue below,
///   written once: matmul_bias_act_range is the table's matmul_range
///   followed by it, and dot_gemm_range ends with it for the relu. A float
///   stored and reloaded is the identical bit pattern, so running the
///   epilogue after the GEMM instead of inside its tile loop cannot move
///   a bit.
/// - q8/q4 block kernels accumulate each block's dot in int32, which is
///   associative: any vector order is exact, so the dots are bit-exact by
///   construction. The per-block float epilogue follows the scalar chain
///   (sum = +0.0, then sum += float(dot) * (a_scale * b_scale) in
///   ascending block index) element-for-element.
///
/// ## Cache blocking (what the AVX bodies do inside a range)
///
/// - fp32 matmul_range (and so matmul_bias_act_range): the AVX-512 body
///   loops over 32-column B panels outermost and splits k into blocks of
///   256 rows. Each panel block is copied once into a 64-byte-aligned
///   32 KB stack buffer (zero-padded past column n) and reused from L1 by
///   every 8x32 register tile of the range; the 1-7 leftover rows run the
///   same loop as a shorter tile. The AVX2 body is the same loop with
///   16-column panels and 4x16 tiles (the column tail streams). Splitting
///   k keeps the bits: between blocks a tile stores its float partial
///   sums to C and the next block reloads them, and a float store/reload
///   is exact, so each element still sees one ascending-p chain of
///   separate multiplies and adds from +0.0.
/// - A range shorter than the body's kMinPanelRows (2 on AVX-512, 6 on
///   AVX2), or with k = 0, runs the scalar body, which reads each B row
///   once in place; longer ranges take the panel loop. Both thresholds
///   come from an alternating A/B of the two bodies (EXPERIMENTS E34).
///   The choice depends on the call's shape alone: no option selects it.
/// - dot_gemm_range: 4 (AVX2) or 8 (AVX-512) output columns per step, fed
///   by a 4x4 / 8x8 register transpose of the B rows.
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
void Q8GemmRowsScalar(const int8_t* a, const float* a_scales, const int8_t* b,
                      const float* b_scales, float* c, int64_t i0, int64_t i1,
                      int64_t kp, int64_t n);
void Q4GemmRowsScalar(const int8_t* a, const float* a_scales,
                      const uint8_t* b, const float* b_scales, float* c,
                      int64_t i0, int64_t i1, int64_t kp, int64_t n);

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

// ------------------------------------------------ shared fused epilogue
// Written once and instantiated by every ISA translation unit for its own
// table, so each copy is auto-vectorized with that TU's target flags. The
// Isa parameter is what keeps the copies apart: one inline body shared by
// TUs built for different instruction sets could be merged by the linker
// into a single copy that some CPUs cannot run.

/// The signature of a matmul_range body.
using MatMulRangeFn = void (*)(const float* a, const float* b, float* c,
                               int64_t i0, int64_t i1, int64_t k, int64_t n);

/// C[i0:i1, j0:j1) = act(C + bias_j) in place, C with row stride \p n:
/// adds the column bias \p bias[j] when it is non-null, then applies
/// `v > 0.0f ? v : 0.0f` when \p relu != 0 — the float chain of separate
/// bias and relu passes over the output, so fusing it is bit-neutral.
template <Isa kIsa>
inline void BiasActEpilogue(const float* bias, int relu, float* c, int64_t n,
                            int64_t i0, int64_t i1, int64_t j0, int64_t j1) {
  if (bias == nullptr && relu == 0) return;
  for (int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    if (bias == nullptr) {
      for (int64_t j = j0; j < j1; ++j) {
        crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f;
      }
    } else if (relu != 0) {
      for (int64_t j = j0; j < j1; ++j) {
        const float v = crow[j] + bias[j];
        crow[j] = v > 0.0f ? v : 0.0f;
      }
    } else {
      for (int64_t j = j0; j < j1; ++j) crow[j] += bias[j];
    }
  }
}

/// matmul_bias_act_range of the \p kIsa table: its matmul_range body over
/// the rows, then the epilogue on the same rows while they are cache-hot
/// (inside the caller's ParallelFor range, so the fusion is kept).
template <Isa kIsa, MatMulRangeFn kMatMul>
void MatMulBiasActRange(const float* a, const float* b, const float* bias,
                        float* c, int64_t i0, int64_t i1, int64_t k, int64_t n,
                        int relu) {
  kMatMul(a, b, c, i0, i1, k, n);
  BiasActEpilogue<kIsa>(bias, relu, c, n, i0, i1, 0, n);
}

}  // namespace simd
}  // namespace dlsys

#endif  // DLSYS_SIMD_KERNELS_H_
