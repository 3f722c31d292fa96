// Inference engine bench (E31): steady-state allocation counts and batch-1
// latency of the arena-planned engine vs the training forward, the
// engine's im2col conv vs the training forward's direct loop nest, the
// engine's int8 (q8-block) and int4 (q4-block) vs fp32 dense GEMM at
// equal shapes (one thread, alternating, nearest-rank quantiles), the
// micro-batching throughput/p99 frontier of a one-worker Server, and
// (E36) the graph compiler's fused node count and liveness-packed
// workspace on a funnel MLP. Results land in BENCH_inference.json.
//
// Standalone binary (not google-benchmark): it installs a global
// operator new hook to count heap allocations, which must not race with a
// benchmark framework's own bookkeeping. Pass --smoke (or set
// DLSYS_BENCH_SMOKE=1) for a seconds-scale CI run at tiny shapes.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "bench/nearest_rank.h"
#include "src/compress/quantization.h"
#include "src/core/metrics.h"
#include "src/core/rng.h"
#include "src/infer/engine.h"
#include "src/nn/layers.h"
#include "src/nn/train.h"
#include "src/runtime/runtime.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/tensor/int8_gemm.h"
#include "src/tensor/ops.h"

// ----------------------------------------------------- allocation hook
// Counts every heap allocation in the process, including the aligned
// overloads the TensorArena uses. The steady-state section samples this
// counter around hot-loop calls: the arena path must add exactly zero.

namespace {
std::atomic<int64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size > 0 ? size : 1);
  if (p == nullptr) std::abort();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<size_t>(align), size > 0 ? size : 1) !=
      0) {
    std::abort();
  }
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dlsys {
namespace {

volatile float g_sink = 0.0f;  // defeats dead-code elimination

/// Median-of-5 wall time in milliseconds of `iters` calls to fn.
template <typename Fn>
double MedianMs(int iters, Fn&& fn) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    Stopwatch watch;
    for (int it = 0; it < iters; ++it) fn();
    reps.push_back(watch.Seconds() * 1000.0 / iters);
  }
  std::sort(reps.begin(), reps.end());
  return reps[2];
}

/// Interleaved A/B/... timing: runs one rep of every candidate before the
/// next rep of any, so slow drift (thermal, frequency scaling) lands on
/// all sides equally instead of biasing whichever was measured last.
/// Returns the per-candidate median (of 7 reps) in ms per call.
std::vector<double> InterleavedMedianMs(
    int iters, const std::vector<std::function<void()>>& fns) {
  std::vector<std::vector<double>> reps(fns.size());
  for (int r = 0; r < 7; ++r) {
    for (size_t i = 0; i < fns.size(); ++i) {
      Stopwatch watch;
      for (int it = 0; it < iters; ++it) fns[i]();
      reps[i].push_back(watch.Seconds() * 1000.0 / iters);
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& r : reps) {
    std::sort(r.begin(), r.end());
    medians.push_back(r[r.size() / 2]);
  }
  return medians;
}

bool g_smoke = false;

// -------------------------------------------- 1. steady-state allocations

struct SteadyState {
  int64_t engine_allocs_per_call = 0;
  int64_t forward_allocs_per_call = 0;
  double engine_batch1_ms = 0.0;
  double forward_batch1_ms = 0.0;
};

SteadyState BenchSteadyState() {
  Rng rng(51);
  const int64_t img = g_smoke ? 8 : 16;
  Sequential net = MakeCnn(img, g_smoke ? 3 : 8, g_smoke ? 4 : 8, 10);
  net.Init(&rng);
  auto compiled =
      InferenceEngine::Compile(net, {1, img, img}, EngineConfig{8});
  DLSYS_CHECK(compiled.ok(), "steady-state compile failed");
  InferenceEngine engine = std::move(compiled).value();

  Tensor x({1, 1, img, img});
  x.FillGaussian(&rng, 1.0f);
  Tensor out({1, engine.output_elems_per_example()});
  DLSYS_CHECK(engine.PredictInto(x.data(), 1, out.data()).ok(), "warm");

  SteadyState result;
  const int calls = g_smoke ? 5 : 50;
  const int64_t before_engine = g_heap_allocs.load();
  for (int i = 0; i < calls; ++i) {
    DLSYS_CHECK(engine.PredictInto(x.data(), 1, out.data()).ok(), "predict");
  }
  result.engine_allocs_per_call = (g_heap_allocs.load() - before_engine) / calls;

  const int64_t before_forward = g_heap_allocs.load();
  for (int i = 0; i < calls; ++i) {
    g_sink = net.Forward(x, CacheMode::kNoCache)[0];
  }
  result.forward_allocs_per_call =
      (g_heap_allocs.load() - before_forward) / calls;

  const int iters = g_smoke ? 3 : 20;
  result.engine_batch1_ms = MedianMs(iters, [&] {
    DLSYS_CHECK(engine.PredictInto(x.data(), 1, out.data()).ok(), "predict");
    g_sink = out[0];
  });
  result.forward_batch1_ms =
      MedianMs(iters, [&] { g_sink = net.Forward(x, CacheMode::kNoCache)[0]; });
  return result;
}

// ------------------------------------------ 2. im2col vs the direct nest

struct ConvRow {
  double im2col_ms = 0.0;   ///< engine: im2col patches + conv GEMM
  double forward_ms = 0.0;  ///< Sequential::Forward(kNoCache): direct nest
};

/// The engine's conv runs as im2col + GEMM; the training forward is the
/// plain clipped loop nest. Both produce the same bits (test_inference).
ConvRow BenchConv() {
  Rng rng(52);
  const int64_t img = g_smoke ? 8 : 24;
  Sequential net = MakeCnn(img, g_smoke ? 3 : 12, g_smoke ? 4 : 16, 10);
  net.Init(&rng);
  const int64_t batch = g_smoke ? 2 : 8;
  Tensor x({batch, 1, img, img});
  x.FillGaussian(&rng, 1.0f);

  auto compiled =
      InferenceEngine::Compile(net, {1, img, img}, EngineConfig{batch});
  DLSYS_CHECK(compiled.ok(), "conv compile failed");
  InferenceEngine engine = std::move(compiled).value();
  Tensor out({batch, engine.output_elems_per_example()});
  const int iters = g_smoke ? 3 : 10;
  const std::vector<double> ms = InterleavedMedianMs(
      iters, {[&] {
                DLSYS_CHECK(
                    engine.PredictInto(x.data(), batch, out.data()).ok(),
                    "predict");
                g_sink = out[0];
              },
              [&] { g_sink = net.Forward(x, CacheMode::kNoCache)[0]; }});
  ConvRow row;
  row.im2col_ms = ms[0];
  row.forward_ms = ms[1];
  return row;
}

// ---------------------------------------------------- 3. int8 vs fp32 GEMM

/// Exact nearest-rank quantiles of one GEMM candidate's per-call times.
struct GemmCell {
  double p10_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
};

struct GemmRow {
  int64_t m = 0, k = 0, n = 0;
  int rounds = 0;
  GemmCell fp32;
  GemmCell q8;       ///< q8-block GEMM alone
  GemmCell q8_full;  ///< activation quantization + q8-block GEMM
  GemmCell q4;       ///< q4-block weights, q8 activations, GEMM alone
  GemmCell q4_full;  ///< activation quantization + q4-block GEMM
};

/// The engine's int8/int4 dense paths: weights stored as q8 or q4 blocks,
/// activations q8-block-quantized on the fly, dequantization fused into
/// the GEMM (fp32 out, so there is no separate requantization epilogue).
/// Timed at one runtime thread, the candidates alternating call batch by
/// call batch so drift in machine speed lands on every side alike.
GemmRow BenchInt8Gemm() {
  Rng rng(53);
  GemmRow row;
  row.m = g_smoke ? 8 : 64;
  row.k = g_smoke ? 64 : 768;
  row.n = g_smoke ? 32 : 768;
  const int64_t m = row.m, k = row.k, n = row.n;

  Tensor a({m, k}), w({k, n});
  a.FillGaussian(&rng, 1.0f);
  w.FillGaussian(&rng, 0.1f);
  std::vector<float> c(static_cast<size_t>(m * n));

  // Weights quantized per output feature: rows of the transposed matrix.
  Tensor wt({n, k});
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t p = 0; p < k; ++p) wt[j * k + p] = w[p * n + j];
  }
  const Q8BlockMatrix q8w = Q8BlockQuantizeRows(wt);
  const Q4BlockMatrix q4w = Q4BlockQuantizeRows(wt);
  const int64_t kp = q8w.padded_cols;
  std::vector<int8_t> qa(static_cast<size_t>(m * kp));
  std::vector<float> qa_scales(static_cast<size_t>(m * kp / kQuantBlock));
  Q8BlockQuantizeRowsInto(a.data(), m, k, qa.data(), qa_scales.data());

  const auto fp32 = [&] {
    MatMulInto(a.data(), w.data(), c.data(), m, k, n);
  };
  const auto quantize = [&] {
    Q8BlockQuantizeRowsInto(a.data(), m, k, qa.data(), qa_scales.data());
  };
  const auto q8 = [&] {
    Q8BlockGemmTransBInto(qa.data(), qa_scales.data(), q8w.values.data(),
                          q8w.scales.data(), c.data(), m, kp, n);
  };
  const auto q4 = [&] {
    Q4BlockGemmTransBInto(qa.data(), qa_scales.data(), q4w.values.data(),
                          q4w.scales.data(), c.data(), m, kp, n);
  };
  const std::vector<std::function<void()>> fns = {
      fp32, q8, [&] { quantize(); q8(); }, q4, [&] { quantize(); q4(); }};

  RuntimeConfig::SetThreads(1);
  const int iters = g_smoke ? 2 : 5;
  row.rounds = g_smoke ? 3 : 41;
  std::vector<std::vector<double>> samples(fns.size());
  for (int r = 0; r < row.rounds; ++r) {
    for (size_t i = 0; i < fns.size(); ++i) {
      Stopwatch watch;
      for (int it = 0; it < iters; ++it) fns[i]();
      g_sink = c[0];
      samples[i].push_back(watch.Seconds() * 1000.0 / iters);
    }
  }
  RuntimeConfig::SetThreads(4);
  GemmCell* cells[] = {&row.fp32, &row.q8, &row.q8_full, &row.q4,
                       &row.q4_full};
  for (size_t i = 0; i < fns.size(); ++i) {
    std::sort(samples[i].begin(), samples[i].end());
    cells[i]->p10_ms = NearestRank(samples[i], 0.10);
    cells[i]->p50_ms = NearestRank(samples[i], 0.50);
    cells[i]->p90_ms = NearestRank(samples[i], 0.90);
  }
  return row;
}

// ------------------------------------------------- 4. micro-batch frontier

struct FrontierRow {
  int64_t max_batch = 0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 0.0;
};

/// One frontier point on a one-worker Server with a zero cost model:
/// every batch finishes the instant it starts on the simulated clock, so
/// only max_batch / max_delay_ms decide when batches dispatch.
FrontierRow BenchFrontierPoint(const Sequential& net, int64_t max_batch) {
  Rng rng(54);
  const int64_t requests = g_smoke ? 64 : 2048;
  const double interarrival_ms = 0.01;  // offered load ~100k req/s

  ServerConfig config;
  config.workers = 1;
  config.batch.max_batch = max_batch;
  config.batch.max_delay_ms = 0.5;
  config.default_deadline_ms = 1e6;  // nothing sheds
  config.cost = {0.0, 0.0};
  ModelRegistry registry;
  auto created = Server::Create(&registry, config);
  DLSYS_CHECK(created.ok(), "frontier server config rejected");
  std::unique_ptr<Server> server = std::move(created).value();
  DLSYS_CHECK(server->Publish("mlp", net, {64}, EngineConfig{64}).ok(),
              "frontier compile failed");

  Tensor example({64});
  for (int64_t r = 0; r < requests; ++r) {
    example.FillGaussian(&rng, 1.0f);
    server->Submit("mlp", example, static_cast<double>(r) * interarrival_ms);
  }
  server->Drain();
  const std::vector<Server::Completion>& done = server->completions();
  DLSYS_CHECK(static_cast<int64_t>(done.size()) == requests,
              "frontier lost requests: offered != completed");

  // Latency is queueing delay on the simulated clock plus the batch's
  // measured engine time. Throughput is engine-side: examples per second
  // of measured service time (each batch's service appears once per
  // member, so divide by the member count).
  std::vector<double> latency_ms;
  latency_ms.reserve(done.size());
  double service_sum_ms = 0.0;
  for (const Server::Completion& c : done) {
    latency_ms.push_back(c.dispatch_ms - c.arrival_ms +
                         c.measured_service_ms);
    service_sum_ms +=
        c.measured_service_ms / static_cast<double>(c.batch_size);
  }
  std::sort(latency_ms.begin(), latency_ms.end());

  FrontierRow row;
  row.max_batch = max_batch;
  row.throughput_rps =
      static_cast<double>(requests) / (service_sum_ms / 1000.0);
  row.p50_ms = NearestRank(latency_ms, 0.5);
  row.p99_ms = NearestRank(latency_ms, 0.99);
  row.mean_batch = static_cast<double>(requests) /
                   server->metrics().Get("serve.batches");
  return row;
}

std::vector<FrontierRow> BenchFrontier() {
  Rng rng(55);
  Sequential net =
      MakeMlp(64, {g_smoke ? 64 : 256, g_smoke ? 32 : 256}, 10);
  net.Init(&rng);
  std::vector<FrontierRow> rows;
  for (int64_t b : {1, 4, 16, 64}) {
    rows.push_back(BenchFrontierPoint(net, b));
  }
  return rows;
}

// ------------------------------------------ 5. funnel graph + arena (E36)

struct FunnelRow {
  int64_t graph_nodes = 0;      ///< live graph nodes after fusion
  int64_t workspace_bytes = 0;  ///< liveness-packed arena plan
};

/// Widths shrink layer over layer, so first-fit over live intervals
/// overlaps the wide early activations with the narrow late ones.
FunnelRow BenchFunnel() {
  Rng rng(56);
  Sequential net = g_smoke ? MakeMlp(256, {128, 64, 32}, 10)
                           : MakeMlp(3072, {1536, 768, 384, 192, 96}, 10);
  net.Init(&rng);
  auto compiled = InferenceEngine::Compile(
      net, {g_smoke ? 256 : 3072}, EngineConfig{g_smoke ? 8 : 64});
  DLSYS_CHECK(compiled.ok(), "funnel compile failed");
  const InferenceEngine engine = std::move(compiled).value();
  FunnelRow row;
  row.graph_nodes = engine.graph_node_count();
  row.workspace_bytes = engine.workspace_bytes();
  return row;
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
  RuntimeConfig::SetThreads(4);

  const SteadyState steady = BenchSteadyState();
  std::printf(
      "steady-state  engine %lld allocs/call, %.4f ms | training forward "
      "%lld allocs/call, %.4f ms\n",
      static_cast<long long>(steady.engine_allocs_per_call),
      steady.engine_batch1_ms,
      static_cast<long long>(steady.forward_allocs_per_call),
      steady.forward_batch1_ms);

  const ConvRow conv = BenchConv();
  std::printf(
      "conv          engine im2col %.4f ms | training forward %.4f ms | "
      "%.2fx\n",
      conv.im2col_ms, conv.forward_ms, conv.forward_ms / conv.im2col_ms);

  const GemmRow gemm = BenchInt8Gemm();
  std::printf("gemm %lldx%lldx%lld  1 thread, %d alternating rounds, "
              "p50 [p10, p90] ms per call\n",
              static_cast<long long>(gemm.m), static_cast<long long>(gemm.k),
              static_cast<long long>(gemm.n), gemm.rounds);
  const std::pair<const char*, const GemmCell*> gemm_cells[] = {
      {"fp32", &gemm.fp32},
      {"q8-block", &gemm.q8},
      {"q8-block+quantize", &gemm.q8_full},
      {"q4-block", &gemm.q4},
      {"q4-block+quantize", &gemm.q4_full}};
  for (const auto& [name, cell] : gemm_cells) {
    std::printf("  %-18s %.4f [%.4f, %.4f] ms | %.2fx fp32\n", name,
                cell->p50_ms, cell->p10_ms, cell->p90_ms,
                gemm.fp32.p50_ms / cell->p50_ms);
  }

  const FunnelRow funnel = BenchFunnel();
  std::printf("funnel        graph %lld nodes | packed workspace %lld bytes\n",
              static_cast<long long>(funnel.graph_nodes),
              static_cast<long long>(funnel.workspace_bytes));

  const std::vector<FrontierRow> frontier = BenchFrontier();
  for (const FrontierRow& row : frontier) {
    std::printf(
        "microbatch b=%-3lld  %10.0f req/s | p50 %.4f ms | p99 %.4f ms | "
        "mean batch %.1f\n",
        static_cast<long long>(row.max_batch), row.throughput_rps, row.p50_ms,
        row.p99_ms, row.mean_batch);
  }

  FILE* out = std::fopen("BENCH_inference.json", "w");
  if (out == nullptr) {
    std::printf("cannot open BENCH_inference.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"smoke\": %s,\n"
               "  \"steady_state\": {\"engine_allocs_per_call\": %lld, "
               "\"forward_allocs_per_call\": %lld,\n"
               "                   \"engine_batch1_ms\": %.4f, "
               "\"forward_batch1_ms\": %.4f},\n"
               "  \"conv\": {\"im2col_ms\": %.4f, \"forward_ms\": %.4f, "
               "\"speedup\": %.2f},\n"
               "  \"int8_gemm\": {\"m\": %lld, \"k\": %lld, \"n\": %lld, "
               "\"threads\": 1, \"rounds\": %d, \"fp32_ms\": %.4f,\n"
               "                \"int8_ms\": %.4f, \"int8_full_ms\": %.4f, "
               "\"int4_ms\": %.4f, \"int4_full_ms\": %.4f,\n"
               "                \"fp32_p90_ms\": %.4f, \"int8_p90_ms\": %.4f, "
               "\"int4_p90_ms\": %.4f,\n"
               "                \"speedup_raw\": %.2f, "
               "\"speedup_full\": %.2f},\n"
               "  \"pass_pipeline\": {\"funnel_nodes_fused\": %lld, "
               "\"funnel_packed_bytes\": %lld},\n"
               "  \"microbatch\": [\n",
               g_smoke ? "true" : "false",
               static_cast<long long>(steady.engine_allocs_per_call),
               static_cast<long long>(steady.forward_allocs_per_call),
               steady.engine_batch1_ms, steady.forward_batch1_ms,
               conv.im2col_ms, conv.forward_ms,
               conv.forward_ms / conv.im2col_ms,
               static_cast<long long>(gemm.m), static_cast<long long>(gemm.k),
               static_cast<long long>(gemm.n), gemm.rounds, gemm.fp32.p50_ms,
               gemm.q8.p50_ms, gemm.q8_full.p50_ms, gemm.q4.p50_ms,
               gemm.q4_full.p50_ms, gemm.fp32.p90_ms, gemm.q8.p90_ms,
               gemm.q4.p90_ms, gemm.fp32.p50_ms / gemm.q8.p50_ms,
               gemm.fp32.p50_ms / gemm.q8_full.p50_ms,
               static_cast<long long>(funnel.graph_nodes),
               static_cast<long long>(funnel.workspace_bytes));
  for (size_t i = 0; i < frontier.size(); ++i) {
    const FrontierRow& row = frontier[i];
    std::fprintf(out,
                 "    {\"max_batch\": %lld, \"throughput_rps\": %.0f, "
                 "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"mean_batch\": "
                 "%.2f}%s\n",
                 static_cast<long long>(row.max_batch), row.throughput_rps,
                 row.p50_ms, row.p99_ms, row.mean_batch,
                 i + 1 < frontier.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_inference.json\n");
  return 0;
}
