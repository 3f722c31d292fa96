// Tests for the batched inference engine (src/infer): fp32 bitwise parity
// with the training forward across thread counts and ISAs, the arena's
// plan-once discipline, zero steady-state tensor allocations, the
// int8/int4 paths' determinism, accuracy envelope and bitwise agreement
// with a layer-by-layer reference, and the graph pass pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/compress/quantization.h"
#include "src/data/dataset.h"
#include "src/data/synthetic.h"
#include "src/infer/arena.h"
#include "src/infer/engine.h"
#include "src/infer/passes.h"
#include "src/obs/counters.h"
#include "src/nn/conv.h"
#include "src/nn/layers.h"
#include "src/nn/train.h"
#include "src/optim/optimizer.h"
#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"
#include "src/tensor/ops.h"
#include "tests/block_gemm_reference.h"

namespace dlsys {
namespace {

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.bytes())) == 0;
}

/// Init zeroes biases and BatchNorm's beta; parity tests draw every
/// rank-1 parameter instead, so a mishandled bias cannot hide behind
/// zeros.
void RandomizeVectorParams(Sequential* net, Rng* rng) {
  for (int64_t li = 0; li < net->size(); ++li) {
    for (Tensor* p : net->layer(li)->Params()) {
      if (p->rank() == 1) p->FillGaussian(rng, 0.5f);
    }
  }
}

// ------------------------------------------------------------ TensorArena

TEST(TensorArenaTest, PlaceCommitResolve) {
  TensorArena arena;
  // Same live interval, so the two buffers must sit in disjoint bytes:
  // 100 floats round up to 448 bytes.
  const TensorArena::BufferId f = arena.PlaceFloats(0, 100, 0, 0);
  const TensorArena::BufferId q = arena.PlaceInt8s(448, 33, 0, 0);
  EXPECT_FALSE(arena.committed());
  arena.Commit();
  EXPECT_TRUE(arena.committed());
  EXPECT_EQ(arena.buffer_count(), 2);
  EXPECT_EQ(arena.ElementCount(f), 100);
  EXPECT_EQ(arena.ElementCount(q), 33);
  EXPECT_EQ(arena.total_bytes(), 448 + 64);
  // Every buffer is 64-byte aligned.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.Floats(f)) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.Int8s(q)) % 64, 0u);
  // Buffers are disjoint and writable end to end.
  float* pf = arena.Floats(f);
  for (int i = 0; i < 100; ++i) pf[i] = 1.0f;
  int8_t* pq = arena.Int8s(q);
  for (int i = 0; i < 33; ++i) pq[i] = -5;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(pf[i], 1.0f);
}

TEST(TensorArenaTest, RegistersWithMemoryTracker) {
  const int64_t before = MemoryTracker::Global().current_bytes();
  {
    TensorArena arena;
    arena.PlaceFloats(0, 1024, 0, 0);
    arena.Commit();
    EXPECT_GE(MemoryTracker::Global().current_bytes() - before,
              1024 * static_cast<int64_t>(sizeof(float)));
  }
  EXPECT_EQ(MemoryTracker::Global().current_bytes(), before);
}

TEST(TensorArenaDeathTest, PlaceAfterCommitAborts) {
  TensorArena arena;
  arena.PlaceFloats(0, 8, 0, 0);
  arena.Commit();
  // The in-place reuse guarantee: once the plan is frozen, any attempt to
  // grow the workspace is a planning bug and must abort loudly.
  EXPECT_DEATH(arena.PlaceFloats(64, 8, 1, 1), "after Commit");
}

TEST(TensorArenaDeathTest, AccessBeforeCommitAborts) {
  TensorArena arena;
  const TensorArena::BufferId id = arena.PlaceFloats(0, 8, 0, 0);
  EXPECT_DEATH(arena.Floats(id), "before Commit");
}

// -------------------------------------------------------- fp32 bit parity

/// An MLP exercising every supported rank-1 layer kind.
Sequential MakeMixedMlp() {
  Sequential net;
  net.Emplace<Dense>(16, 32);
  net.Emplace<BatchNorm1d>(32);
  net.Emplace<Tanh>();
  net.Emplace<Dense>(32, 24);
  net.Emplace<Sigmoid>();
  net.Emplace<Dropout>(0.3f);
  net.Emplace<Dense>(24, 4);
  return net;
}

TEST(InferenceEngineTest, MlpBitwiseMatchesSequentialAcrossThreads) {
  Rng rng(31);
  Sequential net = MakeMixedMlp();
  net.Init(&rng);
  RandomizeVectorParams(&net, &rng);
  // A few cached forwards move the BatchNorm running statistics off their
  // initial values, so the inference path has something real to fold in.
  Tensor warm({32, 16});
  warm.FillGaussian(&rng, 1.0f);
  net.Forward(warm, CacheMode::kCache);
  net.Forward(warm, CacheMode::kCache);

  Tensor x({13, 16});
  x.FillGaussian(&rng, 1.0f);
  RuntimeConfig::SetThreads(1);
  const Tensor ref = net.Forward(x, CacheMode::kNoCache);

  auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{16});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  InferenceEngine engine = std::move(compiled).value();
  EXPECT_EQ(engine.output_elems_per_example(), 4);

  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);
    auto y = engine.Predict(x);
    ASSERT_TRUE(y.ok()) << y.status().ToString();
    EXPECT_TRUE(BitwiseEqual(*y, ref)) << "threads=" << threads;
  }
  RuntimeConfig::SetThreads(1);
}

TEST(InferenceEngineTest, CnnBitwiseMatchesSequentialAcrossThreads) {
  // im2col conv (zero-filled padding taps) against the training forward's
  // clipped loop nest.
  Rng rng(32);
  Sequential net = MakeCnn(12, 4, 6, 5);
  net.Init(&rng);
  RandomizeVectorParams(&net, &rng);
  Tensor x({3, 1, 12, 12});
  x.FillGaussian(&rng, 1.0f);
  RuntimeConfig::SetThreads(1);
  const Tensor ref = net.Forward(x, CacheMode::kNoCache);

  auto compiled = InferenceEngine::Compile(net, {1, 12, 12}, EngineConfig{8});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  InferenceEngine engine = std::move(compiled).value();
  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);
    auto y = engine.Predict(x);
    ASSERT_TRUE(y.ok()) << y.status().ToString();
    EXPECT_TRUE(BitwiseEqual(*y, ref)) << "threads=" << threads;
  }
  RuntimeConfig::SetThreads(1);
}

TEST(InferenceEngineTest, RepeatedCallsAreBitwiseStable) {
  Rng rng(33);
  Sequential net = MakeMlp(16, {32, 24}, 4);
  net.Init(&rng);
  RandomizeVectorParams(&net, &rng);
  auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{16});
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();

  Tensor big({16, 16}), small({3, 16});
  big.FillGaussian(&rng, 1.0f);
  small.FillGaussian(&rng, 1.0f);

  RuntimeConfig::SetThreads(8);
  const Tensor first = std::move(engine.Predict(big)).value();
  // Interleave a different batch size: workspace reuse across calls must
  // not leak one request's activations into the next.
  const Tensor small_out = std::move(engine.Predict(small)).value();
  const Tensor second = std::move(engine.Predict(big)).value();
  const Tensor small_again = std::move(engine.Predict(small)).value();
  RuntimeConfig::SetThreads(1);
  EXPECT_TRUE(BitwiseEqual(first, second));
  EXPECT_TRUE(BitwiseEqual(small_out, small_again));
}

TEST(InferenceEngineTest, BatchRowsMatchSingleExamplePredictions) {
  Rng rng(34);
  Sequential net = MakeMlp(16, {32}, 4);
  net.Init(&rng);
  RandomizeVectorParams(&net, &rng);
  auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{8});
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();
  Tensor x({8, 16});
  x.FillGaussian(&rng, 1.0f);
  const Tensor batched = std::move(engine.Predict(x)).value();
  for (int64_t i = 0; i < 8; ++i) {
    const Tensor one = SliceRows(x, i, i + 1);
    const Tensor single = std::move(engine.Predict(one)).value();
    EXPECT_TRUE(BitwiseEqual(single, SliceRows(batched, i, i + 1)))
        << "row " << i;
  }
}

TEST(InferenceEngineTest, SteadyStateMakesNoTensorAllocations) {
  Rng rng(35);
  Sequential net = MakeCnn(8, 3, 4, 3);
  net.Init(&rng);
  auto compiled = InferenceEngine::Compile(net, {1, 8, 8}, EngineConfig{4});
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();

  Tensor in({4, 1, 8, 8});
  in.FillGaussian(&rng, 1.0f);
  Tensor out({4, engine.output_elems_per_example()});
  RuntimeConfig::SetThreads(8);
  ASSERT_TRUE(engine.PredictInto(in.data(), 4, out.data()).ok());  // warm

  const int64_t count_before = MemoryTracker::Global().allocation_count();
  for (int iter = 0; iter < 10; ++iter) {
    ASSERT_TRUE(engine.PredictInto(in.data(), 4, out.data()).ok());
  }
  RuntimeConfig::SetThreads(1);
  EXPECT_EQ(MemoryTracker::Global().allocation_count(), count_before)
      << "PredictInto allocated tensor memory in steady state";
}

// ------------------------------------------------------------- int8 path

TEST(Int8EngineTest, AccuracyWithinEnvelopeOnBlobsTask) {
  // The E1 setup of EXPERIMENTS.md at reduced scale: simulated 8-bit
  // weight quantization there held accuracy at 1.000; the real int8
  // execution path must stay within 0.02 of its own fp32 baseline.
  RuntimeConfig::SetThreads(4);
  Rng rng(17);
  Dataset data = MakeGaussianBlobs(2000, 16, 8, 3.0, &rng);
  TrainTestSplit split = Split(data, 0.8);
  Sequential net = MakeMlp(16, {96, 64}, 8);
  Rng init_rng(18);
  net.Init(&init_rng);
  Sgd opt(0.05, 0.9);
  TrainConfig config;
  config.epochs = 15;
  config.batch_size = 32;
  Train(&net, &opt, split.train, config);
  const double fp32_acc = Evaluate(&net, split.test).accuracy;
  ASSERT_GT(fp32_acc, 0.9);

  EngineConfig engine_config;
  engine_config.max_batch = 64;
  engine_config.numeric = EngineNumeric::kInt8;
  auto compiled = InferenceEngine::Compile(net, {16}, engine_config);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  InferenceEngine engine = std::move(compiled).value();

  int64_t hits = 0;
  const int64_t n = split.test.size();
  for (int64_t begin = 0; begin < n; begin += 64) {
    const int64_t end = std::min<int64_t>(begin + 64, n);
    const Tensor logits =
        std::move(engine.Predict(SliceRows(split.test.x, begin, end)))
            .value();
    const std::vector<int64_t> pred = ArgMaxRows(logits);
    for (int64_t i = 0; i < end - begin; ++i) {
      if (pred[static_cast<size_t>(i)] ==
          split.test.y[static_cast<size_t>(begin + i)]) {
        ++hits;
      }
    }
  }
  const double int8_acc = static_cast<double>(hits) / static_cast<double>(n);
  RuntimeConfig::SetThreads(1);
  EXPECT_GE(int8_acc, fp32_acc - 0.02)
      << "int8=" << int8_acc << " fp32=" << fp32_acc;
}

TEST(Int8EngineTest, DeterministicAcrossThreadCounts) {
  Rng rng(38);
  Sequential net = MakeMlp(16, {48}, 4);
  net.Init(&rng);
  RandomizeVectorParams(&net, &rng);
  EngineConfig config;
  config.max_batch = 8;
  config.numeric = EngineNumeric::kInt8;
  auto compiled = InferenceEngine::Compile(net, {16}, config);
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();
  Tensor x({8, 16});
  x.FillGaussian(&rng, 1.0f);
  RuntimeConfig::SetThreads(1);
  const Tensor ref = std::move(engine.Predict(x)).value();
  for (int threads : {2, 8}) {
    RuntimeConfig::SetThreads(threads);
    const Tensor y = std::move(engine.Predict(x)).value();
    EXPECT_TRUE(BitwiseEqual(y, ref)) << "threads=" << threads;
  }
  RuntimeConfig::SetThreads(1);
}

TEST(Int4EngineTest, AccuracyWithinEnvelopeOnBlobsTask) {
  // Same setup as the int8 envelope test; q4 weights (scale = max|block|/7)
  // are coarser, so the envelope widens to 0.05. Activations stay q8.
  RuntimeConfig::SetThreads(4);
  Rng rng(17);
  Dataset data = MakeGaussianBlobs(2000, 16, 8, 3.0, &rng);
  TrainTestSplit split = Split(data, 0.8);
  Sequential net = MakeMlp(16, {96, 64}, 8);
  Rng init_rng(18);
  net.Init(&init_rng);
  Sgd opt(0.05, 0.9);
  TrainConfig config;
  config.epochs = 15;
  config.batch_size = 32;
  Train(&net, &opt, split.train, config);
  const double fp32_acc = Evaluate(&net, split.test).accuracy;
  ASSERT_GT(fp32_acc, 0.9);

  EngineConfig engine_config;
  engine_config.max_batch = 64;
  engine_config.numeric = EngineNumeric::kInt4;
  auto compiled = InferenceEngine::Compile(net, {16}, engine_config);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  InferenceEngine engine = std::move(compiled).value();

  int64_t hits = 0;
  const int64_t n = split.test.size();
  for (int64_t begin = 0; begin < n; begin += 64) {
    const int64_t end = std::min<int64_t>(begin + 64, n);
    const Tensor logits =
        std::move(engine.Predict(SliceRows(split.test.x, begin, end)))
            .value();
    const std::vector<int64_t> pred = ArgMaxRows(logits);
    for (int64_t i = 0; i < end - begin; ++i) {
      if (pred[static_cast<size_t>(i)] ==
          split.test.y[static_cast<size_t>(begin + i)]) {
        ++hits;
      }
    }
  }
  const double int4_acc = static_cast<double>(hits) / static_cast<double>(n);
  RuntimeConfig::SetThreads(1);
  EXPECT_GE(int4_acc, fp32_acc - 0.05)
      << "int4=" << int4_acc << " fp32=" << fp32_acc;
}

TEST(QuantizedEngineTest, DeterministicAcrossThreadCountsAndIsas) {
  // Both quantized paths must be bitwise reproducible not only across
  // DLSYS_THREADS but across every dispatched SIMD ISA: int32 block dots
  // are exact and the float epilogue order is fixed per element.
  Rng rng(40);
  Sequential net = MakeMlp(16, {48}, 4);
  net.Init(&rng);
  RandomizeVectorParams(&net, &rng);
  Tensor x({8, 16});
  x.FillGaussian(&rng, 1.0f);
  const simd::Isa initial_isa = simd::ActiveIsa();
  for (EngineNumeric numeric : {EngineNumeric::kInt8, EngineNumeric::kInt4}) {
    EngineConfig config;
    config.max_batch = 8;
    config.numeric = numeric;
    auto compiled = InferenceEngine::Compile(net, {16}, config);
    ASSERT_TRUE(compiled.ok());
    InferenceEngine engine = std::move(compiled).value();
    RuntimeConfig::SetThreads(1);
    const Tensor ref = std::move(engine.Predict(x)).value();
    for (simd::Isa isa :
         {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
      if (!simd::IsaSupported(isa)) continue;
      simd::SetIsa(isa);
      for (int threads : {1, 2, 8}) {
        RuntimeConfig::SetThreads(threads);
        const Tensor y = std::move(engine.Predict(x)).value();
        EXPECT_TRUE(BitwiseEqual(y, ref))
            << "numeric=" << (numeric == EngineNumeric::kInt8 ? "int8" : "int4")
            << " isa=" << simd::IsaName(isa) << " threads=" << threads;
      }
    }
    simd::SetIsa(initial_isa);
  }
  RuntimeConfig::SetThreads(1);
}

// --------------------------------------------------------- error statuses

/// A layer type the engine has no lowering for.
class MysteryLayer : public Layer {
 public:
  std::string name() const override { return "mystery"; }
  Tensor Forward(const Tensor& x, CacheMode mode) override {
    (void)mode;
    return x;
  }
  Tensor Backward(const Tensor& grad_output) override { return grad_output; }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<MysteryLayer>();
  }
};

TEST(InferenceEngineTest, CompileErrors) {
  Rng rng(39);
  Sequential mlp = MakeMlp(16, {8}, 4);
  mlp.Init(&rng);

  // Shape does not thread through the first Dense.
  auto bad_shape = InferenceEngine::Compile(mlp, {4, 4});
  ASSERT_FALSE(bad_shape.ok());
  EXPECT_EQ(bad_shape.status().code(), StatusCode::kInvalidArgument);

  // Malformed config.
  auto bad_batch = InferenceEngine::Compile(mlp, {16}, EngineConfig{0});
  ASSERT_FALSE(bad_batch.ok());
  EXPECT_EQ(bad_batch.status().code(), StatusCode::kInvalidArgument);

  // Unknown layer type.
  Sequential odd;
  odd.Emplace<MysteryLayer>();
  auto unsupported = InferenceEngine::Compile(odd, {16});
  ASSERT_FALSE(unsupported.ok());
  EXPECT_EQ(unsupported.status().code(), StatusCode::kUnimplemented);
}

TEST(InferenceEngineTest, PredictErrors) {
  Rng rng(40);
  Sequential net = MakeMlp(16, {8}, 4);
  net.Init(&rng);
  auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{4});
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();

  Tensor too_big({5, 16});
  auto over = engine.Predict(too_big);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);

  Tensor wrong_shape({2, 8});
  auto mis = engine.Predict(wrong_shape);
  ASSERT_FALSE(mis.ok());
  EXPECT_EQ(mis.status().code(), StatusCode::kInvalidArgument);

  Tensor ok_in({2, 16});
  EXPECT_TRUE(engine.Predict(ok_in).ok());
}

// ------------------------------------------------- graph pass pipeline

TEST(PassPipelineTest, Fp32BitwiseInvariantAcrossIsasThreads) {
  // The acceptance bar for every rewrite pass: fp32 output of the
  // rewritten schedule is bitwise identical to the training forward, at
  // threads 1/2/8 under each supported ISA.
  Rng rng(50);
  Sequential mlp = MakeMlp(16, {32, 24}, 4);
  mlp.Init(&rng);
  RandomizeVectorParams(&mlp, &rng);
  Sequential mixed = MakeMixedMlp();
  mixed.Init(&rng);
  RandomizeVectorParams(&mixed, &rng);
  Tensor warm({32, 16});
  warm.FillGaussian(&rng, 1.0f);
  mixed.Forward(warm, CacheMode::kCache);
  Sequential cnn = MakeCnn(12, 4, 6, 5);
  cnn.Init(&rng);
  RandomizeVectorParams(&cnn, &rng);

  struct Case {
    Sequential* net;
    Shape shape;
    Tensor x;
    const char* label;
  };
  Tensor x_mlp({9, 16}), x_mixed({9, 16}), x_cnn({3, 1, 12, 12});
  x_mlp.FillGaussian(&rng, 1.0f);
  x_mixed.FillGaussian(&rng, 1.0f);
  x_cnn.FillGaussian(&rng, 1.0f);
  Case cases[] = {{&mlp, {16}, std::move(x_mlp), "mlp"},
                  {&mixed, {16}, std::move(x_mixed), "mixed"},
                  {&cnn, {1, 12, 12}, std::move(x_cnn), "cnn"}};

  const simd::Isa initial_isa = simd::ActiveIsa();
  for (Case& c : cases) {
    RuntimeConfig::SetThreads(1);
    const Tensor ref = c.net->Forward(c.x, CacheMode::kNoCache);
    auto compiled = InferenceEngine::Compile(*c.net, c.shape,
                                             EngineConfig{16});
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    InferenceEngine engine = std::move(compiled).value();
    for (simd::Isa isa :
         {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
      if (!simd::IsaSupported(isa)) continue;
      simd::SetIsa(isa);
      for (int threads : {1, 2, 8}) {
        RuntimeConfig::SetThreads(threads);
        auto y = engine.Predict(c.x);
        ASSERT_TRUE(y.ok()) << y.status().ToString();
        EXPECT_TRUE(BitwiseEqual(*y, ref))
            << c.label << " isa=" << simd::IsaName(isa)
            << " threads=" << threads;
      }
    }
    simd::SetIsa(initial_isa);
  }
  RuntimeConfig::SetThreads(1);
}

/// Test-side reference for the quantized engine. Walks the Sequential
/// layer by layer: each Dense runs as q8-block activations times q8/q4
/// block codes of its transposed weight through the naive block GEMM,
/// then adds the bias; every other layer runs its own inference forward.
/// Shares no lowering, graph, arena or kernel-table code with the engine.
Tensor QuantizedReference(Sequential* net, const Tensor& x,
                          EngineNumeric numeric) {
  Tensor h = x;
  for (int64_t li = 0; li < net->size(); ++li) {
    Layer* layer = net->layer(li);
    const auto* dense = dynamic_cast<const Dense*>(layer);
    if (dense == nullptr) {
      h = layer->Forward(h, CacheMode::kNoCache);
      continue;
    }
    const int64_t m = h.dim(0), n = dense->out_features();
    const Q8BlockMatrix qa = Q8BlockQuantizeRows(h);
    const Tensor wt = Transpose(dense->weight());
    Tensor y({m, n});
    if (numeric == EngineNumeric::kInt8) {
      const Q8BlockMatrix qw = Q8BlockQuantizeRows(wt);
      NaiveQ8BlockGemmTransBInto(qa.values.data(), qa.scales.data(),
                                 qw.values.data(), qw.scales.data(),
                                 y.data(), m, qa.padded_cols, n);
    } else {
      const Q4BlockMatrix qw = Q4BlockQuantizeRows(wt);
      NaiveQ4BlockGemmTransBInto(qa.values.data(), qa.scales.data(),
                                 qw.values.data(), qw.scales.data(),
                                 y.data(), m, qa.padded_cols, n);
    }
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) y[i * n + j] += dense->bias()[j];
    }
    h = std::move(y);
  }
  return h;
}

/// Dense-BN-Tanh-Dense-ReLU-Dense-Sigmoid-Dropout-Dense: quant_elim hands
/// codes across the fused Dense-ReLU-Dense boundary, while BN/Tanh and
/// Sigmoid block it at the other two.
Sequential MakeQuantBoundaryNet(int64_t in) {
  Sequential net;
  net.Emplace<Dense>(in, 40);
  net.Emplace<BatchNorm1d>(40);
  net.Emplace<Tanh>();
  net.Emplace<Dense>(40, 36);
  net.Emplace<ReLU>();
  net.Emplace<Dense>(36, 20);
  net.Emplace<Sigmoid>();
  net.Emplace<Dropout>(0.3f);
  net.Emplace<Dense>(20, 4);
  return net;
}

TEST(QuantizedEngineTest, BitwiseMatchesLayerByLayerReference) {
  // Input widths 16 (one block), 20 and 70 (padded K), on a plain ReLU MLP
  // (every interior boundary elides its re-quantization) and on the
  // boundary net with warmed BatchNorm statistics.
  Rng rng(51);
  struct Case {
    Sequential net;
    int64_t in;
    const char* label;
  };
  std::vector<Case> cases;
  for (int64_t in : {16, 20, 70}) {
    cases.push_back({MakeMlp(in, {48, 32}, 4), in, "mlp"});
  }
  cases.push_back({MakeQuantBoundaryNet(20), 20, "boundary"});
  for (Case& c : cases) {
    c.net.Init(&rng);
    RandomizeVectorParams(&c.net, &rng);
    Tensor warm({32, c.in});
    warm.FillGaussian(&rng, 1.0f);
    c.net.Forward(warm, CacheMode::kCache);
    c.net.Forward(warm, CacheMode::kCache);
  }

  const simd::Isa initial_isa = simd::ActiveIsa();
  for (Case& c : cases) {
    Tensor x({9, c.in});
    x.FillGaussian(&rng, 1.0f);
    for (EngineNumeric numeric : {EngineNumeric::kInt8, EngineNumeric::kInt4}) {
      RuntimeConfig::SetThreads(1);
      const Tensor ref = QuantizedReference(&c.net, x, numeric);
      EngineConfig config;
      config.max_batch = 16;
      config.numeric = numeric;
      auto compiled = InferenceEngine::Compile(c.net, {c.in}, config);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      InferenceEngine engine = std::move(compiled).value();
      for (simd::Isa isa :
           {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
        if (!simd::IsaSupported(isa)) continue;
        simd::SetIsa(isa);
        for (int threads : {1, 2, 8}) {
          RuntimeConfig::SetThreads(threads);
          const Tensor y = std::move(engine.Predict(x)).value();
          EXPECT_TRUE(BitwiseEqual(y, ref))
              << c.label << " in=" << c.in << " numeric="
              << (numeric == EngineNumeric::kInt8 ? "int8" : "int4")
              << " isa=" << simd::IsaName(isa) << " threads=" << threads;
        }
      }
      simd::SetIsa(initial_isa);
    }
  }
  RuntimeConfig::SetThreads(1);
}

TEST(PassPipelineTest, FusionAbsorbsReluNodesIntoProducers) {
  Rng rng(52);
  Sequential net = MakeMlp(16, {32, 24}, 4);  // 3 dense + 2 relu layers
  net.Init(&rng);
  auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{8});
  ASSERT_TRUE(compiled.ok());
  const InferenceEngine engine = std::move(compiled).value();
  // Both relus fold into their dense producers; all three dense nodes
  // carry a fused epilogue.
  EXPECT_EQ(engine.graph_node_count(), 3);
  EXPECT_EQ(engine.step_count(), 3);
  EXPECT_EQ(engine.pass_stats().fused, 3);
}

TEST(PassPipelineTest, QuantElimRequiresAdjacencyThroughFusion) {
  Rng rng(53);
  EngineConfig config;
  config.max_batch = 8;
  config.numeric = EngineNumeric::kInt8;
  {
    // Fusion runs first and absorbs the relus, making the dense layers
    // adjacent: both interior boundaries elide their quant/dequant pair.
    Sequential net = MakeMlp(16, {48, 32}, 4);
    net.Init(&rng);
    auto compiled = InferenceEngine::Compile(net, {16}, config);
    ASSERT_TRUE(compiled.ok());
    EXPECT_EQ(std::move(compiled).value().pass_stats().quant_elided, 2);
  }
  {
    // A sigmoid does not fuse: its fp32 output must materialize between
    // the quantized denses, so codes cannot pass through.
    Sequential net;
    net.Emplace<Dense>(16, 48);
    net.Emplace<Sigmoid>();
    net.Emplace<Dense>(48, 32);
    net.Emplace<Sigmoid>();
    net.Emplace<Dense>(32, 4);
    net.Init(&rng);
    auto compiled = InferenceEngine::Compile(net, {16}, config);
    ASSERT_TRUE(compiled.ok());
    EXPECT_EQ(std::move(compiled).value().pass_stats().quant_elided, 0);
  }
}

TEST(PassPipelineTest, ConstantFoldingQuantizesWeightsAtCompileTime) {
  Rng rng(54);
  Sequential net = MakeMlp(16, {48}, 4);
  net.Init(&rng);
  EngineConfig config;
  config.max_batch = 8;
  config.numeric = EngineNumeric::kInt8;
  auto compiled = InferenceEngine::Compile(net, {16}, config);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(std::move(compiled).value().pass_stats().folded, 2);
}

TEST(PassPipelineTest, LivenessPackingShrinksWorkspaceOnFunnelMlp) {
  // A funnel MLP (widths strictly shrinking) is where first-fit liveness
  // packing beats a ping-pong activation pair: the pair charges 2x the
  // *widest* activation, while packing overlaps wide early buffers with
  // the narrow late ones.
  Rng rng(55);
  const std::vector<int64_t> widths = {512, 256, 128, 64, 32, 8};
  Sequential net = MakeMlp(512, {256, 128, 64, 32}, 8);  // 9 layers
  net.Init(&rng);
  const int64_t max_batch = 8;
  auto compiled =
      InferenceEngine::Compile(net, {512}, EngineConfig{max_batch});
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();
  const int64_t widest = *std::max_element(widths.begin(), widths.end());
  const int64_t ping_pong_bytes =
      2 * static_cast<int64_t>(sizeof(float)) * widest * max_batch;
  EXPECT_LT(engine.workspace_bytes(), ping_pong_bytes)
      << "packed=" << engine.workspace_bytes()
      << " ping-pong=" << ping_pong_bytes;
}

#if DLSYS_OBS
TEST(PassPipelineTest, CompileExportsWorkspaceAndGraphGauges) {
  Rng rng(57);
  Sequential net = MakeMlp(16, {32, 24}, 4);
  net.Init(&rng);
  auto compiled = InferenceEngine::Compile(net, {16}, EngineConfig{8});
  ASSERT_TRUE(compiled.ok());
  const InferenceEngine engine = std::move(compiled).value();
  obs::CounterRegistry& reg = obs::CounterRegistry::Global();
  EXPECT_EQ(reg.gauge("infer.workspace_bytes")->Value(),
            engine.workspace_bytes());
  EXPECT_EQ(reg.gauge("infer.graph.nodes")->Value(),
            engine.graph_node_count());
  EXPECT_EQ(reg.gauge("infer.graph.fused")->Value(),
            engine.pass_stats().fused);
}
#endif  // DLSYS_OBS

// ------------------------------------------------- liveness packing unit

TEST(PackLiveRangesTest, DisjointLifetimesShareOffsets) {
  // Two buffers alive at different steps first-fit into the same bytes.
  std::vector<int64_t> offsets;
  const int64_t total = infer::PackLiveRanges(
      {{256, 0, 1}, {256, 2, 3}}, &offsets);
  ASSERT_EQ(offsets.size(), 2u);
  EXPECT_EQ(offsets[0], offsets[1]);
  EXPECT_EQ(total, 256);
}

TEST(PackLiveRangesTest, OverlappingLifetimesGetDisjointRanges) {
  std::vector<int64_t> offsets;
  const int64_t total = infer::PackLiveRanges(
      {{100, 0, 2}, {100, 1, 3}, {100, 3, 4}}, &offsets);
  ASSERT_EQ(offsets.size(), 3u);
  // 0 and 1 overlap at step 1-2; 1 and 2 overlap at step 3; 0 and 2 are
  // disjoint, so the third buffer reuses the first's offset.
  EXPECT_NE(offsets[0], offsets[1]);
  EXPECT_EQ(offsets[2], offsets[0]);
  EXPECT_EQ(offsets[1] % 64, 0);
  EXPECT_EQ(total, 256);  // two 64-aligned 100-byte lanes
}

TEST(PackLiveRangesTest, OffsetsAreAlwaysAligned) {
  std::vector<int64_t> offsets;
  infer::PackLiveRanges({{1, 0, 9}, {65, 0, 9}, {128, 0, 9}, {0, 5, 5}},
                        &offsets);
  for (const int64_t off : offsets) EXPECT_EQ(off % 64, 0) << off;
}

// ------------------------------------------------- arena move + placement

TEST(TensorArenaTest, MoveTransfersCommittedStorage) {
  TensorArena arena;
  const TensorArena::BufferId id = arena.PlaceFloats(0, 32, 0, 0);
  arena.Commit();
  float* data = arena.Floats(id);
  for (int i = 0; i < 32; ++i) data[i] = static_cast<float>(i);
  const int64_t bytes = arena.total_bytes();

  TensorArena moved(std::move(arena));
  EXPECT_TRUE(moved.committed());
  EXPECT_EQ(moved.total_bytes(), bytes);
  EXPECT_EQ(moved.Floats(id), data);  // same backing storage, same bits
  for (int i = 0; i < 32; ++i) EXPECT_EQ(data[i], static_cast<float>(i));

  TensorArena assigned;
  assigned.PlaceInt8s(0, 16, 0, 0);
  assigned.Commit();
  assigned = std::move(moved);
  EXPECT_EQ(assigned.Floats(id), data);
  EXPECT_EQ(assigned.total_bytes(), bytes);
}

TEST(TensorArenaTest, PlacedBuffersResolveAtTheirOffsets) {
  TensorArena arena;
  const TensorArena::BufferId a = arena.PlaceFloats(0, 16, 0, 1);
  const TensorArena::BufferId b = arena.PlaceInt8s(64, 100, 0, 1);
  const TensorArena::BufferId c = arena.PlaceFloats(0, 16, 2, 3);  // reuse
  arena.Commit();
  uint8_t* base = reinterpret_cast<uint8_t*>(arena.Floats(a));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(base) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uint8_t*>(arena.Int8s(b)), base + 64);
  EXPECT_EQ(arena.Floats(c), arena.Floats(a));  // disjoint lifetimes alias
  EXPECT_GE(arena.total_bytes(), 64 + 100);
}

TEST(TensorArenaDeathTest, OverlappingLifetimesAtSameBytesAbort) {
  TensorArena arena;
  arena.PlaceFloats(0, 16, 0, 2);
  arena.PlaceFloats(0, 16, 1, 3);  // lifetimes intersect at steps 1-2
  EXPECT_DEATH(arena.Commit(), "overlapping-lifetime");
}

TEST(TensorArenaDeathTest, MisalignedPlaceAborts) {
  TensorArena arena;
  EXPECT_DEATH(arena.PlaceFloats(32, 16, 0, 1), "align");
}

}  // namespace
}  // namespace dlsys
