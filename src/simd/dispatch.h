#ifndef DLSYS_SIMD_DISPATCH_H_
#define DLSYS_SIMD_DISPATCH_H_

#include <cstdint>

/// \file dispatch.h
/// \brief Runtime CPU-feature dispatch for the hot GEMM microkernels.
///
/// The binary carries one kernel table per instruction set — scalar
/// (always), AVX2, and AVX-512 (F+BW+VL+DQ). The AVX tables are compiled
/// in their own translation units with exactly the target flags they
/// need; the scalar table is built with -march=native when the compiler
/// accepts it (src/CMakeLists.txt), so it is auto-vectorized for the
/// build host and the binary as a whole targets that host, not any CPU.
/// At first use the registry probes the CPU (GCC/Clang
/// __builtin_cpu_supports) and selects the best table the machine can
/// run; every public kernel entry point in src/tensor then fetches the
/// active table and hands its range functions to ParallelFor.
///
/// A table is a set of entries, not one ISA's code throughout: the
/// AVX-512 table's q8_gemm_rows and q4_gemm_rows entries are the AVX2
/// bodies (Q8GemmRowsAvx2 / Q4GemmRowsAvx2), which time faster on
/// AVX-512 hosts, so selecting it requires AVX2 as well.
///
/// ## Forcing a path
///
/// - `DLSYS_ISA=scalar|avx2|avx512` (environment, read once at first
///   dispatch) forces that table; requesting an ISA the CPU or the build
///   cannot run aborts with a clear message — a forced path that silently
///   fell back would invalidate any parity or perf conclusion drawn from
///   the run.
/// - SetIsa() is the API equivalent for tests and benches; call it between
///   kernels (like RuntimeConfig::SetThreads), not inside a ParallelFor.
/// - Building with -DDLSYS_SIMD=OFF compiles the AVX translation units to
///   stubs: only the scalar table exists, and because the scalar kernels
///   are the pre-dispatch sources compiled with the same flags, that build
///   is bitwise identical to the tree before this layer existed.
///
/// ## Observability
///
/// Each dispatched kernel launch tags its trace span with the table's
/// category ("kernel.scalar" / "kernel.avx2" / "kernel.avx512") and bumps
/// the `kernel.dispatch.<isa>` counter, so an exported Perfetto trace or a
/// registry snapshot shows which table ran. Both name the *table*, not the
/// instruction set of every body in it: a q8/q4 launch counted under
/// avx512 ran the AVX2 body.
///
/// Determinism: dispatch never changes results. fp32 kernels are bitwise
/// identical across every ISA (see src/simd/kernels.h for the contract);
/// integer kernels are exact. DLSYS_ISA is a speed knob, not a numerics
/// knob, and tests enforce that.

#ifndef DLSYS_SIMD
#define DLSYS_SIMD 1
#endif

namespace dlsys {
namespace simd {

/// \brief Instruction sets the dispatcher knows, in ascending preference.
enum class Isa : int {
  kScalar = 0,  ///< reference kernels; always available
  kAvx2 = 1,    ///< 256-bit float + vpmaddwd integer kernels
  kAvx512 = 2,  ///< 512-bit fp32 kernels + the AVX2 q8/q4 bodies
                ///< (requires AVX2 and F+BW+VL+DQ)
};

inline constexpr int kNumIsas = 3;

/// \brief Lowercase name, e.g. "avx512"; also the DLSYS_ISA spelling.
const char* IsaName(Isa isa);

/// \brief One ISA's full set of range microkernels.
///
/// Function pointers, not virtuals: the table is selected once and the hot
/// path pays one pointer load per kernel launch (not per range). All
/// members are always non-null within a registered table.
struct KernelTable {
  Isa isa = Isa::kScalar;
  /// Trace-span category literal ("kernel.<isa>"); pointer-stable for the
  /// process lifetime as TraceSpan requires.
  const char* span_cat = "kernel.scalar";

  /// C[i0:i1, :] = A(MxK) * B(KxN) rows. Every fp32 row-range entry
  /// below (matmul_range, matmul_ta_range, matmul_bias_act_range)
  /// overwrites its rows: each element's chain starts from +0.0, whatever
  /// C held, in full tiles and tails alike.
  void (*matmul_range)(const float* a, const float* b, float* c, int64_t i0,
                       int64_t i1, int64_t k, int64_t n) = nullptr;
  /// C[i0:i1, :] = A(KxM)^T * B(KxN) rows.
  void (*matmul_ta_range)(const float* a, const float* b, float* c,
                          int64_t i0, int64_t i1, int64_t k, int64_t m,
                          int64_t n) = nullptr;
  /// C[i0:i1, :] = A(MxK) * B(NxK)^T rows (double accumulation).
  void (*matmul_tb_range)(const float* a, const float* b, float* c,
                          int64_t i0, int64_t i1, int64_t k,
                          int64_t n) = nullptr;
  /// C[:, j0:j1) = bias + A(MxK) * B(NxK)^T columns (conv epilogue order).
  void (*conv_gemm_bias_cols)(const float* a, const float* b,
                              const float* bias, float* c, int64_t m,
                              int64_t k, int64_t n, int64_t j0,
                              int64_t j1) = nullptr;
  /// Fused block-dequant q8 x q8 GEMM rows (see int8_gemm.h).
  void (*q8_gemm_rows)(const int8_t* a, const float* a_scales,
                       const int8_t* b, const float* b_scales, float* c,
                       int64_t i0, int64_t i1, int64_t kp,
                       int64_t n) = nullptr;
  /// Fused block-dequant q8 x q4 GEMM rows (B nibble-packed).
  void (*q4_gemm_rows)(const int8_t* a, const float* a_scales,
                       const uint8_t* b, const float* b_scales, float* c,
                       int64_t i0, int64_t i1, int64_t kp,
                       int64_t n) = nullptr;
  /// C[i0:i1, :] = act(A(MxK) * B(KxN) + bias(N)) rows (act = relu when
  /// relu != 0, else identity). The fused dense epilogue the graph
  /// compiler's fusion pass dispatches: the GEMM op sequence is untouched,
  /// the bias add and activation run while the rows are still cache-hot
  /// instead of as separate output passes.
  void (*matmul_bias_act_range)(const float* a, const float* b,
                                const float* bias, float* c, int64_t i0,
                                int64_t i1, int64_t k, int64_t n,
                                int relu) = nullptr;
  /// conv_gemm_bias_cols with the activation fused into the column pass
  /// (relu != 0 applies max(x, 0) to each finished output element).
  void (*conv_gemm_bias_act_cols)(const float* a, const float* b,
                                  const float* bias, float* c, int64_t m,
                                  int64_t k, int64_t n, int64_t j0,
                                  int64_t j1, int relu) = nullptr;
};

/// \brief True when \p isa is both compiled into this binary and runnable
/// on this CPU. kScalar is always true.
bool IsaSupported(Isa isa);

/// \brief Best supported ISA on this machine (the startup default unless
/// DLSYS_ISA overrides it).
Isa BestSupportedIsa();

/// \brief The currently dispatched ISA. First call resolves DLSYS_ISA,
/// else BestSupportedIsa().
Isa ActiveIsa();

/// \brief Forces \p isa for all subsequent kernel launches. Aborts
/// (DLSYS_CHECK) when unsupported — a forced path must never silently
/// fall back. Call between kernels, not inside a ParallelFor body.
void SetIsa(Isa isa);

/// \brief Parses a DLSYS_ISA spelling ("scalar"/"avx2"/"avx512") into
/// \p out; returns false on an unknown spelling.
bool ParseIsa(const char* name, Isa* out);

/// \brief The active ISA's kernel table (never null).
const KernelTable& ActiveKernels();

/// \brief Bumps kernel.dispatch.<isa> for one kernel launch. Compiled to
/// nothing with -DDLSYS_OBS=0.
void CountDispatch(const KernelTable& table);

}  // namespace simd
}  // namespace dlsys

#endif  // DLSYS_SIMD_DISPATCH_H_
