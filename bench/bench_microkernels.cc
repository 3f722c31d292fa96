// Microkernel bench (E34): ISA x format sweep of the dispatched GEMM
// microkernels — fp32 matmul / fp32 transB / conv-GEMM / q8-block /
// q4-block at the E31 serving shape (64x768x768), one tail shape and the
// wide MLP's layer shapes (32x256x1024, 32x1024x1024, 1x1024x1024) —
// plus the lookup primitives (B+-tree, RMI, bloom) behind the learned-index
// experiments. Per-cell p50/p99 are exact nearest-rank quantiles of the
// raw per-call samples (41 per cell in full mode), not histogram bucket
// edges; results land in BENCH_microkernels.json with speedup vs the
// scalar table per cell.
//
// Standalone binary (not google-benchmark): the sweep forces each SIMD
// table via simd::SetIsa between sections, which must not interleave with
// a framework's own repetition scheduling. Pass --smoke (or set
// DLSYS_BENCH_SMOKE=1) for a seconds-scale CI run at tiny shapes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/compress/quantization.h"
#include "src/core/metrics.h"
#include "src/core/rng.h"
#include "src/db/bloom.h"
#include "src/db/btree.h"
#include "src/learned/learned_index.h"
#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"
#include "src/tensor/int8_gemm.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace {

volatile float g_sink = 0.0f;  // defeats dead-code elimination
bool g_smoke = false;

struct Quantiles {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Exact \p q quantile (nearest rank) of \p sorted.
double NearestRank(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

/// Runs \p fn `iters` times and returns the exact nearest-rank
/// {p50_ms, p99_ms} of the per-call wall times. With fewer than 100
/// samples p99 is the slowest call.
template <typename Fn>
Quantiles TimeKernel(int iters, Fn&& fn) {
  fn();  // warm: touch every page, resolve the dispatch table
  std::vector<double> samples_ms;
  samples_ms.reserve(static_cast<size_t>(iters));
  for (int it = 0; it < iters; ++it) {
    Stopwatch watch;
    fn();
    samples_ms.push_back(watch.Seconds() * 1000.0);
  }
  std::sort(samples_ms.begin(), samples_ms.end());
  return {NearestRank(samples_ms, 0.5), NearestRank(samples_ms, 0.99)};
}

// ------------------------------------------------------ ISA x format sweep

struct SweepCell {
  std::string shape;
  std::string kernel;
  std::string isa;
  Quantiles q;
  double speedup_vs_scalar = 0.0;  ///< scalar p50 / this p50
};

struct GemmShape {
  int64_t m, k, n;
  std::string Name() const {
    return std::to_string(m) + "x" + std::to_string(k) + "x" +
           std::to_string(n);
  }
};

/// All operand/output buffers for one GEMM shape, prepared once so every
/// ISA times identical memory.
struct GemmOperands {
  GemmShape s;
  Tensor a, b, bt, bias;
  Q8BlockMatrix qa8, qb8;
  Q4BlockMatrix qb4;
  std::vector<float> c;

  explicit GemmOperands(const GemmShape& shape, Rng* rng) : s(shape) {
    a = Tensor({s.m, s.k});
    b = Tensor({s.k, s.n});
    a.FillGaussian(rng, 1.0f);
    b.FillGaussian(rng, 0.5f);
    bt = Transpose(b);  // (n, k) for the TransB family
    bias = Tensor({s.m});
    bias.FillGaussian(rng, 1.0f);
    qa8 = Q8BlockQuantizeRows(a);
    qb8 = Q8BlockQuantizeRows(bt);
    qb4 = Q4BlockQuantizeRows(bt);
    c.resize(static_cast<size_t>(s.m * s.n));
  }
};

std::vector<SweepCell> RunSweep(const std::vector<GemmShape>& shapes) {
  const int iters = g_smoke ? 3 : 41;
  std::vector<SweepCell> cells;
  Rng rng(61);

  std::vector<simd::Isa> isas;
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (simd::IsaSupported(isa)) isas.push_back(isa);
  }

  for (const GemmShape& shape : shapes) {
    GemmOperands op(shape, &rng);
    const int64_t m = shape.m, k = shape.k, n = shape.n;
    const int64_t kp = op.qa8.padded_cols;

    struct KernelDef {
      const char* name;
      std::function<void()> run;
    };
    const std::vector<KernelDef> kernels = {
        {"fp32_matmul",
         [&] {
           MatMulInto(op.a.data(), op.b.data(), op.c.data(), m, k, n);
           g_sink = op.c[0];
         }},
        {"fp32_matmul_tb",
         [&] {
           Tensor out = MatMulTransB(op.a, op.bt);
           g_sink = out[0];
         }},
        {"fp32_conv_gemm",
         [&] {
           ConvGemmBiasInto(op.a.data(), op.bt.data(), op.bias.data(),
                            op.c.data(), m, k, n);
           g_sink = op.c[0];
         }},
        {"q8_block",
         [&] {
           Q8BlockGemmTransBInto(op.qa8.values.data(), op.qa8.scales.data(),
                                 op.qb8.values.data(), op.qb8.scales.data(),
                                 op.c.data(), m, kp, n);
           g_sink = op.c[0];
         }},
        {"q4_block",
         [&] {
           Q4BlockGemmTransBInto(op.qa8.values.data(), op.qa8.scales.data(),
                                 op.qb4.values.data(), op.qb4.scales.data(),
                                 op.c.data(), m, kp, n);
           g_sink = op.c[0];
         }},
    };

    for (const KernelDef& kernel : kernels) {
      double scalar_p50 = 0.0;
      for (simd::Isa isa : isas) {
        simd::SetIsa(isa);
        SweepCell cell;
        cell.shape = shape.Name();
        cell.kernel = kernel.name;
        cell.isa = simd::IsaName(isa);
        cell.q = TimeKernel(iters, kernel.run);
        if (isa == simd::Isa::kScalar) scalar_p50 = cell.q.p50_ms;
        cell.speedup_vs_scalar =
            cell.q.p50_ms > 0.0 ? scalar_p50 / cell.q.p50_ms : 0.0;
        cells.push_back(cell);
      }
    }
  }
  simd::SetIsa(simd::BestSupportedIsa());
  return cells;
}

// ---------------------------------------------------- lookup primitives

struct LookupRow {
  std::string name;
  Quantiles per_probe_us;  ///< probes run in batches of 1000: ms == us/probe
};

std::vector<int64_t> BenchKeys(int64_t n) {
  Rng rng(4);
  std::set<int64_t> keys;
  while (static_cast<int64_t>(keys.size()) < n) {
    keys.insert(static_cast<int64_t>(rng.Next() >> 16));
  }
  return {keys.begin(), keys.end()};
}

std::vector<LookupRow> RunLookups() {
  const int64_t n = g_smoke ? 10000 : 100000;
  const int batches = g_smoke ? 5 : 41;
  const std::vector<int64_t> keys = BenchKeys(n);

  BTree tree(128);
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(keys[i], static_cast<int64_t>(i));
  }
  auto rmi = LearnedIndex::Build(keys, n / 400);
  BloomFilter bloom = BloomFilter::ForKeys(n, 10.0);
  for (int64_t key : keys) bloom.Insert(key);

  // Each timed call is a batch of 1000 probes striding through the key
  // set, so the millisecond quantiles read directly as microseconds per
  // probe.
  std::vector<LookupRow> rows;
  size_t probe = 0;
  rows.push_back({"btree", TimeKernel(batches, [&] {
                    for (int i = 0; i < 1000; ++i) {
                      auto v = tree.Find(keys[probe]);
                      g_sink = v.ok() ? 1.0f : 0.0f;
                      probe = (probe + 7919) % keys.size();
                    }
                  })});
  probe = 0;
  rows.push_back({"rmi", TimeKernel(batches, [&] {
                    for (int i = 0; i < 1000; ++i) {
                      auto v = rmi->Find(keys[probe]);
                      g_sink = v.ok() ? 1.0f : 0.0f;
                      probe = (probe + 7919) % keys.size();
                    }
                  })});
  probe = 0;
  rows.push_back({"bloom", TimeKernel(batches, [&] {
                    for (int i = 0; i < 1000; ++i) {
                      g_sink = bloom.MayContain(keys[probe]) ? 1.0f : 0.0f;
                      probe = (probe + 7919) % keys.size();
                    }
                  })});
  return rows;
}

}  // namespace
}  // namespace dlsys

int main(int argc, char** argv) {
  using namespace dlsys;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
  }
  if (const char* env = std::getenv("DLSYS_BENCH_SMOKE");
      env != nullptr && env[0] == '1') {
    g_smoke = true;
  }
  // Single-threaded so the sweep compares kernel codegen, not scheduling.
  RuntimeConfig::SetThreads(1);

  std::vector<GemmShape> shapes;
  if (g_smoke) {
    shapes.push_back({8, 64, 32});
    shapes.push_back({3, 33, 17});
  } else {
    shapes.push_back({64, 768, 768});  // E31 serving shape
    shapes.push_back({61, 765, 771});  // unaligned tails on every dimension
    // servebench's wide MLP (256-1024-1024-10) at its 32-row batch step,
    // and the one-request GEMV of the paced phase.
    shapes.push_back({32, 256, 1024});
    shapes.push_back({32, 1024, 1024});
    shapes.push_back({1, 1024, 1024});
  }

  const std::vector<SweepCell> cells = RunSweep(shapes);
  std::printf("%-12s %-15s %-8s %10s %10s %9s\n", "shape", "kernel", "isa",
              "p50_ms", "p99_ms", "vs_scalar");
  double best_e31_speedup = 0.0;
  std::string best_e31_cell;
  for (const SweepCell& cell : cells) {
    std::printf("%-12s %-15s %-8s %10.4f %10.4f %8.2fx\n", cell.shape.c_str(),
                cell.kernel.c_str(), cell.isa.c_str(), cell.q.p50_ms,
                cell.q.p99_ms, cell.speedup_vs_scalar);
    if (cell.shape == shapes[0].Name() &&
        cell.speedup_vs_scalar > best_e31_speedup) {
      best_e31_speedup = cell.speedup_vs_scalar;
      best_e31_cell = cell.kernel + "/" + cell.isa;
    }
  }
  std::printf("best %s speedup vs scalar: %.2fx (%s)\n",
              shapes[0].Name().c_str(), best_e31_speedup,
              best_e31_cell.c_str());

  const std::vector<LookupRow> lookups = RunLookups();
  for (const LookupRow& row : lookups) {
    std::printf("lookup %-6s  p50 %.4f us | p99 %.4f us\n", row.name.c_str(),
                row.per_probe_us.p50_ms, row.per_probe_us.p99_ms);
  }

  FILE* out = std::fopen("BENCH_microkernels.json", "w");
  if (out == nullptr) {
    std::printf("cannot open BENCH_microkernels.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"smoke\": %s,\n"
               "  \"threads\": 1,\n"
               "  \"best_speedup_vs_scalar\": {\"shape\": \"%s\", "
               "\"cell\": \"%s\", \"speedup\": %.2f},\n"
               "  \"cells\": [\n",
               g_smoke ? "true" : "false", shapes[0].Name().c_str(),
               best_e31_cell.c_str(), best_e31_speedup);
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& cell = cells[i];
    std::fprintf(out,
                 "    {\"shape\": \"%s\", \"kernel\": \"%s\", \"isa\": "
                 "\"%s\", \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                 "\"speedup_vs_scalar\": %.2f}%s\n",
                 cell.shape.c_str(), cell.kernel.c_str(), cell.isa.c_str(),
                 cell.q.p50_ms, cell.q.p99_ms, cell.speedup_vs_scalar,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"lookup_us_per_probe\": {\n");
  for (size_t i = 0; i < lookups.size(); ++i) {
    std::fprintf(out, "    \"%s\": {\"p50\": %.4f, \"p99\": %.4f}%s\n",
                 lookups[i].name.c_str(), lookups[i].per_probe_us.p50_ms,
                 lookups[i].per_probe_us.p99_ms,
                 i + 1 < lookups.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_microkernels.json\n");
  return 0;
}
