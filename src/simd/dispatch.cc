#include "src/simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "src/core/status.h"
#include "src/obs/counters.h"
#include "src/simd/kernels.h"

namespace dlsys {
namespace simd {
namespace {

/// True when the running CPU can execute the given table's code. The
/// compiled-in check already happened (a missing TU returns nullptr), so
/// this is purely the runtime probe.
bool CpuCanRun(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      // The AVX-512 table borrows the AVX2 q8/q4 bodies.
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0;
#else
      return false;
#endif
  }
  return false;
}

const KernelTable* CompiledTable(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return GetScalarTable();
    case Isa::kAvx2:
      return GetAvx2Table();
    case Isa::kAvx512:
      return GetAvx512Table();
  }
  return nullptr;
}

const KernelTable* SupportedTable(Isa isa) {
  const KernelTable* table = CompiledTable(isa);
  return (table != nullptr && CpuCanRun(isa)) ? table : nullptr;
}

/// Resolves the startup table once: DLSYS_ISA if set (abort on an unknown
/// or unsupported request — a forced path must never silently fall back),
/// else the best table this binary+CPU pair can run.
const KernelTable* ResolveStartupTable() {
  if (const char* env = std::getenv("DLSYS_ISA");
      env != nullptr && env[0] != '\0') {
    Isa requested = Isa::kScalar;
    DLSYS_CHECK(ParseIsa(env, &requested),
                "DLSYS_ISA must be scalar, avx2, or avx512");
    const KernelTable* table = SupportedTable(requested);
    DLSYS_CHECK(table != nullptr,
                "DLSYS_ISA requests an ISA this build/CPU cannot run");
    return table;
  }
  for (int i = kNumIsas - 1; i >= 0; --i) {
    if (const KernelTable* table = SupportedTable(static_cast<Isa>(i))) {
      return table;
    }
  }
  return GetScalarTable();  // unreachable: scalar is always registered
}

std::atomic<const KernelTable*>& ActiveTableCell() {
  static std::atomic<const KernelTable*> cell{ResolveStartupTable()};
  return cell;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseIsa(const char* name, Isa* out) {
  const std::string s(name != nullptr ? name : "");
  for (int i = 0; i < kNumIsas; ++i) {
    if (s == IsaName(static_cast<Isa>(i))) {
      *out = static_cast<Isa>(i);
      return true;
    }
  }
  return false;
}

bool IsaSupported(Isa isa) { return SupportedTable(isa) != nullptr; }

Isa BestSupportedIsa() {
  for (int i = kNumIsas - 1; i >= 0; --i) {
    if (IsaSupported(static_cast<Isa>(i))) return static_cast<Isa>(i);
  }
  return Isa::kScalar;
}

Isa ActiveIsa() {
  return ActiveTableCell().load(std::memory_order_acquire)->isa;
}

void SetIsa(Isa isa) {
  const KernelTable* table = SupportedTable(isa);
  DLSYS_CHECK(table != nullptr,
              "SetIsa: requested ISA not supported by this build/CPU");
  ActiveTableCell().store(table, std::memory_order_release);
}

const KernelTable& ActiveKernels() {
  return *ActiveTableCell().load(std::memory_order_acquire);
}

void CountDispatch(const KernelTable& table) {
#if DLSYS_OBS
  // One pre-resolved counter per ISA; the hot path is one sharded
  // relaxed fetch_add, same cost class as every other DLSYS_COUNTER_ADD.
  static obs::Counter* const counters[kNumIsas] = {
      obs::CounterRegistry::Global().counter("kernel.dispatch.scalar"),
      obs::CounterRegistry::Global().counter("kernel.dispatch.avx2"),
      obs::CounterRegistry::Global().counter("kernel.dispatch.avx512"),
  };
  counters[static_cast<int>(table.isa)]->Add(1);
#else
  (void)table;
#endif
}

}  // namespace simd
}  // namespace dlsys
