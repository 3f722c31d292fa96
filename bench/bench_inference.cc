// Inference engine bench (E31): steady-state allocation counts and batch-1
// latency of the arena-planned engine vs the training forward, im2col vs
// direct convolution, the engine's int8 (q8-block) vs fp32 dense GEMM at
// equal shapes, and the micro-batching throughput/p99 frontier of a
// one-worker Server. Results land in BENCH_inference.json.
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
#include <string>
#include <vector>

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

// --------------------------------------------------- 2. im2col vs direct

struct ConvAlgoRow {
  double im2col_ms = 0.0;
  double direct_ms = 0.0;
};

ConvAlgoRow BenchConvAlgo() {
  Rng rng(52);
  const int64_t img = g_smoke ? 8 : 24;
  Sequential net = MakeCnn(img, g_smoke ? 3 : 12, g_smoke ? 4 : 16, 10);
  net.Init(&rng);
  const int64_t batch = g_smoke ? 2 : 8;
  Tensor x({batch, 1, img, img});
  x.FillGaussian(&rng, 1.0f);

  ConvAlgoRow row;
  for (ConvAlgo algo : {ConvAlgo::kIm2col, ConvAlgo::kDirect}) {
    EngineConfig config;
    config.max_batch = batch;
    config.conv_algo = algo;
    auto compiled = InferenceEngine::Compile(net, {1, img, img}, config);
    DLSYS_CHECK(compiled.ok(), "conv-algo compile failed");
    InferenceEngine engine = std::move(compiled).value();
    Tensor out({batch, engine.output_elems_per_example()});
    const int iters = g_smoke ? 3 : 10;
    const double ms = MedianMs(iters, [&] {
      DLSYS_CHECK(engine.PredictInto(x.data(), batch, out.data()).ok(),
                  "predict");
      g_sink = out[0];
    });
    (algo == ConvAlgo::kIm2col ? row.im2col_ms : row.direct_ms) = ms;
  }
  return row;
}

// ---------------------------------------------------- 3. int8 vs fp32 GEMM

struct GemmRow {
  int64_t m = 0, k = 0, n = 0;
  double fp32_ms = 0.0;
  double int8_ms = 0.0;       ///< q8-block GEMM alone
  double int8_full_ms = 0.0;  ///< activation quantization + q8-block GEMM
};

/// The engine's int8 dense path: weights stored as q8 blocks, activations
/// block-quantized on the fly, dequantization fused into the GEMM (fp32
/// out, so there is no separate requantization epilogue).
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
  const int iters = g_smoke ? 3 : 10;
  row.fp32_ms = MedianMs(iters, [&] {
    MatMulInto(a.data(), w.data(), c.data(), m, k, n);
    g_sink = c[0];
  });

  // Weights quantized per output feature: rows of the transposed matrix.
  Tensor wt({n, k});
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t p = 0; p < k; ++p) wt[j * k + p] = w[p * n + j];
  }
  const Q8BlockMatrix qw = Q8BlockQuantizeRows(wt);
  const int64_t kp = qw.padded_cols;
  std::vector<int8_t> qa(static_cast<size_t>(m * kp));
  std::vector<float> qa_scales(static_cast<size_t>(m * kp / kQuantBlock));
  Q8BlockQuantizeRowsInto(a.data(), m, k, qa.data(), qa_scales.data());

  row.int8_ms = MedianMs(iters, [&] {
    Q8BlockGemmTransBInto(qa.data(), qa_scales.data(), qw.values.data(),
                          qw.scales.data(), c.data(), m, kp, n);
    g_sink = c[0];
  });
  row.int8_full_ms = MedianMs(iters, [&] {
    Q8BlockQuantizeRowsInto(a.data(), m, k, qa.data(), qa_scales.data());
    Q8BlockGemmTransBInto(qa.data(), qa_scales.data(), qw.values.data(),
                          qw.scales.data(), c.data(), m, kp, n);
    g_sink = c[0];
  });
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

/// Exact \p q quantile (nearest rank) of \p sorted.
double NearestRank(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

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

// ------------------------------------------------ 5. pass pipeline (E36)

struct PassPipelineRows {
  double dense_relu_unfused_ms = 0.0;  ///< fp32 dense+relu, DLSYS_PASSES=none
  double dense_relu_fused_ms = 0.0;    ///< same net, fusion pass on
  double conv_relu_unfused_ms = 0.0;
  double conv_relu_fused_ms = 0.0;
  double int8_none_ms = 0.0;     ///< quantized chain, all passes off
  double int8_fuse_qe_ms = 0.0;  ///< + fusion and quant/dequant elimination
  double int8_fold_ms = 0.0;     ///< + constant folding alone
  double int8_all_ms = 0.0;      ///< the full pipeline
  int64_t nodes_unfused = 0;     ///< funnel MLP graph nodes, fusion off
  int64_t nodes_fused = 0;       ///< same graph after fusion
  int64_t funnel_unpacked_bytes = 0;  ///< ping-pong workspace plan
  int64_t funnel_packed_bytes = 0;    ///< liveness-packed plan
  bool fp32_bitwise_equal = false;    ///< fused output == unfused, bitwise
};

/// Times one net compiled with DLSYS_PASSES=none vs =all and bit-compares
/// the outputs. Engine arenas land on whatever pages the allocator hands
/// out, and at these shapes page placement swings per-call time by more
/// than the rewrite under test (up to ~15% observed, in either direction,
/// keyed on which engine compiled last). So instead of one engine pair,
/// sample several freshly compiled pairs with alternating compile order
/// and take each side's median — the placement lottery then cancels
/// instead of systematically biasing one side.
struct FusedPairMs {
  double unfused_ms = 0.0;
  double fused_ms = 0.0;
  bool bitwise_equal = true;
};

FusedPairMs TimeFusedPair(const Sequential& net,
                          const std::vector<int64_t>& shape, int64_t batch,
                          const Tensor& x, int iters, int pairs) {
  FusedPairMs result;
  std::vector<double> un_ms, fu_ms;
  for (int p = 0; p < pairs; ++p) {
    auto compile = [&](const char* spec) {
      setenv("DLSYS_PASSES", spec, 1);
      auto compiled = InferenceEngine::Compile(net, shape, EngineConfig{batch});
      DLSYS_CHECK(compiled.ok(), "pass-pipeline compile failed");
      return std::move(compiled).value();
    };
    const bool fused_first = (p % 2) != 0;
    InferenceEngine a = compile(fused_first ? "all" : "none");
    InferenceEngine b = compile(fused_first ? "none" : "all");
    InferenceEngine& unfused = fused_first ? b : a;
    InferenceEngine& fused = fused_first ? a : b;
    Tensor out_unfused({batch, unfused.output_elems_per_example()});
    Tensor out_fused({batch, fused.output_elems_per_example()});
    const std::vector<double> ms = InterleavedMedianMs(
        iters,
        {[&] {
           DLSYS_CHECK(
               unfused.PredictInto(x.data(), batch, out_unfused.data()).ok(),
               "predict");
           g_sink = out_unfused[0];
         },
         [&] {
           DLSYS_CHECK(
               fused.PredictInto(x.data(), batch, out_fused.data()).ok(),
               "predict");
           g_sink = out_fused[0];
         }});
    un_ms.push_back(ms[0]);
    fu_ms.push_back(ms[1]);
    result.bitwise_equal =
        result.bitwise_equal &&
        std::memcmp(out_unfused.data(), out_fused.data(),
                    static_cast<size_t>(out_unfused.bytes())) == 0;
  }
  std::sort(un_ms.begin(), un_ms.end());
  std::sort(fu_ms.begin(), fu_ms.end());
  result.unfused_ms = un_ms[un_ms.size() / 2];
  result.fused_ms = fu_ms[fu_ms.size() / 2];
  return result;
}

PassPipelineRows BenchPassPipeline() {
  Rng rng(56);
  PassPipelineRows rows;
  const int iters = g_smoke ? 3 : 10;
  const char* prior = std::getenv("DLSYS_PASSES");
  const std::string saved = prior != nullptr ? prior : "";
  const auto set_passes = [](const char* v) { setenv("DLSYS_PASSES", v, 1); };

  // Dense + relu at the E31 GEMM shape (64 x 768 x 768): the fusion pass
  // folds the bias add and relu into the GEMM epilogue, dropping two full
  // read-modify-write passes over the 64x768 output.
  {
    const int64_t batch = g_smoke ? 8 : 64;
    const int64_t k = g_smoke ? 64 : 768, n = g_smoke ? 32 : 768;
    Sequential net;
    net.Emplace<Dense>(k, n);
    net.Emplace<ReLU>();
    net.Init(&rng);
    Tensor x({batch, k});
    x.FillGaussian(&rng, 1.0f);
    const FusedPairMs pair =
        TimeFusedPair(net, {k}, batch, x, iters, g_smoke ? 2 : 13);
    rows.dense_relu_unfused_ms = pair.unfused_ms;
    rows.dense_relu_fused_ms = pair.fused_ms;
    rows.fp32_bitwise_equal = pair.bitwise_equal;
  }

  // Conv + bias + relu: same rewrite on the im2col GEMM's column kernel.
  {
    const int64_t img = g_smoke ? 8 : 24;
    Sequential net = MakeCnn(img, g_smoke ? 3 : 12, g_smoke ? 4 : 16, 10);
    net.Init(&rng);
    const int64_t batch = g_smoke ? 2 : 8;
    Tensor x({batch, 1, img, img});
    x.FillGaussian(&rng, 1.0f);
    const FusedPairMs pair = TimeFusedPair(net, {1, img, img}, batch, x,
                                           iters, g_smoke ? 2 : 13);
    rows.conv_relu_unfused_ms = pair.unfused_ms;
    rows.conv_relu_fused_ms = pair.fused_ms;
    rows.fp32_bitwise_equal =
        rows.fp32_bitwise_equal && pair.bitwise_equal;
  }

  // Quantized dense chain: folding moves the per-call weight transpose +
  // block-quantize to compile time; fusion + quant elimination then hand
  // q8 codes across the boundary instead of dequantizing and requantizing.
  {
    const int64_t batch = g_smoke ? 8 : 64;
    const int64_t f = g_smoke ? 64 : 768;
    Sequential net = MakeMlp(f, {f}, f);  // dense, relu, dense
    net.Init(&rng);
    Tensor x({batch, f});
    x.FillGaussian(&rng, 1.0f);
    EngineConfig config;
    config.max_batch = batch;
    config.numeric = EngineNumeric::kInt8;
    const char* specs[] = {"none", "fuse,quant_elim", "fold", "all"};
    std::vector<InferenceEngine> engines;
    for (const char* spec : specs) {
      set_passes(spec);
      auto compiled = InferenceEngine::Compile(net, {f}, config);
      DLSYS_CHECK(compiled.ok(), "pass-pipeline int8 compile failed");
      engines.push_back(std::move(compiled).value());
    }
    Tensor out({batch, f});
    std::vector<std::function<void()>> fns;
    for (InferenceEngine& engine : engines) {
      fns.push_back([&engine, &x, &out, batch] {
        DLSYS_CHECK(engine.PredictInto(x.data(), batch, out.data()).ok(),
                    "predict");
        g_sink = out[0];
      });
    }
    const std::vector<double> ms = InterleavedMedianMs(iters, fns);
    rows.int8_none_ms = ms[0];
    rows.int8_fuse_qe_ms = ms[1];
    rows.int8_fold_ms = ms[2];
    rows.int8_all_ms = ms[3];
  }

  // Liveness packing on a funnel MLP: widths shrink layer over layer, so
  // first-fit over live intervals overlaps the wide early activations
  // with the narrow late ones; the ping-pong plan charges 2x the widest.
  {
    Sequential net = g_smoke
                         ? MakeMlp(256, {128, 64, 32}, 10)
                         : MakeMlp(3072, {1536, 768, 384, 192, 96}, 10);
    net.Init(&rng);
    set_passes("all");
    auto compiled = InferenceEngine::Compile(
        net, {g_smoke ? 256 : 3072}, EngineConfig{g_smoke ? 8 : 64});
    DLSYS_CHECK(compiled.ok(), "pass-pipeline funnel compile failed");
    const InferenceEngine engine = std::move(compiled).value();
    rows.funnel_packed_bytes = engine.workspace_bytes();
    rows.funnel_unpacked_bytes = engine.unpacked_workspace_bytes();
    rows.nodes_fused = engine.graph_node_count();
    set_passes("none");
    auto unfused = InferenceEngine::Compile(
        net, {g_smoke ? 256 : 3072}, EngineConfig{g_smoke ? 8 : 64});
    DLSYS_CHECK(unfused.ok(), "pass-pipeline funnel compile failed");
    rows.nodes_unfused = std::move(unfused).value().graph_node_count();
  }

  if (prior != nullptr) {
    setenv("DLSYS_PASSES", saved.c_str(), 1);
  } else {
    unsetenv("DLSYS_PASSES");
  }
  DLSYS_CHECK(rows.fp32_bitwise_equal,
              "pass pipeline changed fp32 bits: fused output must be "
              "bitwise identical to the unfused schedule");
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
  RuntimeConfig::SetThreads(4);

  const SteadyState steady = BenchSteadyState();
  std::printf(
      "steady-state  engine %lld allocs/call, %.4f ms | training forward "
      "%lld allocs/call, %.4f ms\n",
      static_cast<long long>(steady.engine_allocs_per_call),
      steady.engine_batch1_ms,
      static_cast<long long>(steady.forward_allocs_per_call),
      steady.forward_batch1_ms);

  const ConvAlgoRow conv = BenchConvAlgo();
  std::printf("conv          im2col %.4f ms | direct %.4f ms | %.2fx\n",
              conv.im2col_ms, conv.direct_ms, conv.direct_ms / conv.im2col_ms);

  const GemmRow gemm = BenchInt8Gemm();
  std::printf(
      "gemm %lldx%lldx%lld  fp32 %.4f ms | q8-block %.4f ms (%.2fx) | "
      "q8-block+quantize %.4f ms (%.2fx)\n",
      static_cast<long long>(gemm.m), static_cast<long long>(gemm.k),
      static_cast<long long>(gemm.n), gemm.fp32_ms, gemm.int8_ms,
      gemm.fp32_ms / gemm.int8_ms, gemm.int8_full_ms,
      gemm.fp32_ms / gemm.int8_full_ms);

  const PassPipelineRows passes = BenchPassPipeline();
  std::printf(
      "passes dense  unfused %.4f ms | fused %.4f ms (%.2fx) | bitwise "
      "equal %s\n",
      passes.dense_relu_unfused_ms, passes.dense_relu_fused_ms,
      passes.dense_relu_unfused_ms / passes.dense_relu_fused_ms,
      passes.fp32_bitwise_equal ? "yes" : "NO");
  std::printf("passes conv   unfused %.4f ms | fused %.4f ms (%.2fx)\n",
              passes.conv_relu_unfused_ms, passes.conv_relu_fused_ms,
              passes.conv_relu_unfused_ms / passes.conv_relu_fused_ms);
  std::printf(
      "passes int8   none %.4f ms | fuse+qelim %.4f ms | fold %.4f ms | "
      "all %.4f ms (%.2fx)\n",
      passes.int8_none_ms, passes.int8_fuse_qe_ms, passes.int8_fold_ms,
      passes.int8_all_ms, passes.int8_none_ms / passes.int8_all_ms);
  std::printf(
      "passes arena  funnel graph %lld -> %lld nodes | workspace %lld -> "
      "%lld bytes (%.2fx)\n",
      static_cast<long long>(passes.nodes_unfused),
      static_cast<long long>(passes.nodes_fused),
      static_cast<long long>(passes.funnel_unpacked_bytes),
      static_cast<long long>(passes.funnel_packed_bytes),
      static_cast<double>(passes.funnel_unpacked_bytes) /
          static_cast<double>(passes.funnel_packed_bytes));

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
               "  \"conv\": {\"im2col_ms\": %.4f, \"direct_ms\": %.4f, "
               "\"speedup\": %.2f},\n"
               "  \"int8_gemm\": {\"m\": %lld, \"k\": %lld, \"n\": %lld, "
               "\"fp32_ms\": %.4f,\n"
               "                \"int8_ms\": %.4f, \"int8_full_ms\": %.4f, "
               "\"speedup_raw\": %.2f, \"speedup_full\": %.2f},\n"
               "  \"pass_pipeline\": {\"dense_relu_unfused_ms\": %.4f, "
               "\"dense_relu_fused_ms\": %.4f,\n"
               "                    \"conv_relu_unfused_ms\": %.4f, "
               "\"conv_relu_fused_ms\": %.4f,\n"
               "                    \"int8_none_ms\": %.4f, "
               "\"int8_fuse_qe_ms\": %.4f, \"int8_fold_ms\": %.4f, "
               "\"int8_all_ms\": %.4f,\n"
               "                    \"funnel_nodes_unfused\": %lld, "
               "\"funnel_nodes_fused\": %lld,\n"
               "                    \"funnel_unpacked_bytes\": %lld, "
               "\"funnel_packed_bytes\": %lld, "
               "\"fp32_bitwise_equal\": %s},\n"
               "  \"microbatch\": [\n",
               g_smoke ? "true" : "false",
               static_cast<long long>(steady.engine_allocs_per_call),
               static_cast<long long>(steady.forward_allocs_per_call),
               steady.engine_batch1_ms, steady.forward_batch1_ms,
               conv.im2col_ms, conv.direct_ms,
               conv.direct_ms / conv.im2col_ms,
               static_cast<long long>(gemm.m), static_cast<long long>(gemm.k),
               static_cast<long long>(gemm.n), gemm.fp32_ms, gemm.int8_ms,
               gemm.int8_full_ms, gemm.fp32_ms / gemm.int8_ms,
               gemm.fp32_ms / gemm.int8_full_ms,
               passes.dense_relu_unfused_ms, passes.dense_relu_fused_ms,
               passes.conv_relu_unfused_ms, passes.conv_relu_fused_ms,
               passes.int8_none_ms, passes.int8_fuse_qe_ms,
               passes.int8_fold_ms, passes.int8_all_ms,
               static_cast<long long>(passes.nodes_unfused),
               static_cast<long long>(passes.nodes_fused),
               static_cast<long long>(passes.funnel_unpacked_bytes),
               static_cast<long long>(passes.funnel_packed_bytes),
               passes.fp32_bitwise_equal ? "true" : "false");
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
