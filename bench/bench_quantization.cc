// E1 — Quantization trades size for accuracy (tutorial Section 2.1).
// Sweeps bit width x quantizer kind on a trained MLP; prints accuracy,
// packed bytes, and Huffman-coded bytes per cell. A second table covers
// the serving-path block formats (ggml-style q8/q4, one scale per
// 32-element block) executed through the real InferenceEngine integer
// GEMM, and a timing section reports exact nearest-rank latency quantiles
// of q8/q4 activation quantization and of the compile-time weight path
// (Transpose, q8/q4 block quantization of a 1024x1024 matrix).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/nearest_rank.h"
#include "src/compress/quantization.h"
#include "src/core/metrics.h"
#include "src/core/status.h"
#include "src/data/synthetic.h"
#include "src/infer/engine.h"
#include "src/nn/layers.h"
#include "src/nn/train.h"
#include "src/optim/optimizer.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace {

/// Fraction of \p split test examples the engine classifies correctly.
double EngineAccuracy(const Sequential& net, const TrainTestSplit& split,
                      EngineNumeric numeric) {
  EngineConfig config;
  config.max_batch = 64;
  config.numeric = numeric;
  auto compiled = InferenceEngine::Compile(net, {16}, config);
  if (!compiled.ok()) {
    std::fprintf(stderr, "engine compile failed: %s\n",
                 compiled.status().ToString().c_str());
    return 0.0;
  }
  InferenceEngine engine = std::move(compiled).value();
  int64_t hits = 0;
  const int64_t n = split.test.size();
  for (int64_t begin = 0; begin < n; begin += 64) {
    const int64_t end = std::min<int64_t>(begin + 64, n);
    const Tensor logits =
        std::move(engine.Predict(SliceRows(split.test.x, begin, end))).value();
    const std::vector<int64_t> pred = ArgMaxRows(logits);
    for (int64_t i = 0; i < end - begin; ++i) {
      if (pred[static_cast<size_t>(i)] ==
          split.test.y[static_cast<size_t>(begin + i)]) {
        ++hits;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

/// Block-format storage and reconstruction error across every Dense weight
/// matrix of \p net (quantized per output feature, as the engine stores
/// them).
struct BlockCell {
  int64_t packed_bytes = 0;
  double max_err = 0.0;
};

template <typename QuantizeFn>
BlockCell MeasureBlockFormat(const Sequential& net, QuantizeFn&& quantize) {
  BlockCell cell;
  for (int64_t i = 0; i < net.size(); ++i) {
    const Dense* dense = dynamic_cast<const Dense*>(net.layer(i));
    if (dense == nullptr) continue;
    const Tensor wt = Transpose(dense->weight());
    auto q = quantize(wt);
    cell.packed_bytes += q.PackedBytes();
    Tensor back = q.Dequantize();
    for (int64_t i = 0; i < wt.size(); ++i) {
      cell.max_err = std::max(
          cell.max_err, static_cast<double>(std::abs(back[i] - wt[i])));
    }
  }
  return cell;
}

/// Prints the exact nearest-rank p50/p99 ms of `iters` timed runs of
/// \p fn (after one warm run that touches every page).
template <typename Fn>
void TimeQuantiles(const char* name, int iters, Fn&& fn) {
  fn();
  std::vector<double> samples_ms;
  samples_ms.reserve(static_cast<size_t>(iters));
  for (int it = 0; it < iters; ++it) {
    Stopwatch watch;
    fn();
    samples_ms.push_back(watch.Seconds() * 1000.0);
  }
  std::sort(samples_ms.begin(), samples_ms.end());
  std::printf("%-30s p50 %.4f ms | p99 %.4f ms\n", name,
              NearestRank(samples_ms, 0.5), NearestRank(samples_ms, 0.99));
}

}  // namespace
}  // namespace dlsys

int main() {
  using namespace dlsys;
  Rng rng(17);
  Dataset data = MakeGaussianBlobs(4000, 16, 8, 3.0, &rng);
  TrainTestSplit split = Split(data, 0.8);
  Sequential base = MakeMlp(16, {96, 64}, 8);
  base.Init(&rng);
  Sgd opt(0.05, 0.9);
  TrainConfig tc;
  tc.epochs = 25;
  Train(&base, &opt, split.train, tc);
  const double fp32_acc = Evaluate(&base, split.test).accuracy;

  std::printf("E1: quantization bit-width sweep "
              "(fp32 baseline: acc=%.3f, %lld bytes)\n",
              fp32_acc, static_cast<long long>(base.ModelBytes()));
  std::printf("%-10s %5s %10s %12s %13s %10s\n", "quantizer", "bits",
              "accuracy", "packed_B", "huffman_B", "max_err");

  struct Cell {
    QuantizerKind kind;
    const char* name;
    int64_t bits;
  };
  std::vector<Cell> cells;
  for (int64_t bits : {16, 8, 4, 2, 1}) {
    cells.push_back({QuantizerKind::kUniform, "uniform", bits});
    cells.push_back({QuantizerKind::kKMeans, "kmeans", bits});
  }
  cells.push_back({QuantizerKind::kBinary, "binary", 1});

  for (const Cell& cell : cells) {
    Sequential net = base.Clone();
    auto nq = QuantizeNetwork(&net, cell.kind, cell.bits);
    if (!nq.ok()) {
      std::fprintf(stderr, "quantize failed: %s\n",
                   nq.status().ToString().c_str());
      return 1;
    }
    const double acc = Evaluate(&net, split.test).accuracy;
    std::printf("%-10s %5lld %10.3f %12lld %13lld %10.4f\n", cell.name,
                static_cast<long long>(cell.bits), acc,
                static_cast<long long>(nq->packed_bytes),
                static_cast<long long>(nq->huffman_bytes),
                nq->max_abs_error);
  }

  // Block formats run through the actual integer serving path (fused
  // dequant GEMM in InferenceEngine), not simulated quantize-dequantize:
  // the accuracy column includes runtime q8 activation quantization.
  std::printf("\nblock formats (engine-executed, scale per %lld elements):\n",
              static_cast<long long>(kQuantBlock));
  std::printf("%-10s %5s %10s %12s %10s\n", "format", "bits", "accuracy",
              "packed_B", "max_err");
  const BlockCell q8 = MeasureBlockFormat(
      base, [](const Tensor& t) { return Q8BlockQuantizeRows(t); });
  const BlockCell q4 = MeasureBlockFormat(
      base, [](const Tensor& t) { return Q4BlockQuantizeRows(t); });
  std::printf("%-10s %5d %10.3f %12lld %10.4f\n", "q8-block", 8,
              EngineAccuracy(base, split, EngineNumeric::kInt8),
              static_cast<long long>(q8.packed_bytes), q8.max_err);
  std::printf("%-10s %5d %10.3f %12lld %10.4f\n", "q4-block", 4,
              EngineAccuracy(base, split, EngineNumeric::kInt4),
              static_cast<long long>(q4.packed_bytes), q4.max_err);

  // Quantization latency, exact quantiles over raw samples: activations
  // at the E31 serving shape (what the int8/int4 engine quantizes per
  // batch), and a 1024x1024 weight (what the compile-time fold pass runs
  // per quantized layer of the wide MLP: Transpose, then the block
  // quantizer on W^T).
  std::printf("\nquantization latency (nearest-rank quantiles):\n");
  Tensor act({64, 768});
  act.FillGaussian(&rng, 1.0f);
  std::vector<int8_t> codes(64 * 768);
  std::vector<uint8_t> nibbles(64 * 768 / 2);
  std::vector<float> scales(64 * 768 / kQuantBlock);
  TimeQuantiles("q8 activations 64x768", 200, [&] {
    Q8BlockQuantizeRowsInto(act.data(), 64, 768, codes.data(), scales.data());
  });
  TimeQuantiles("q4 activations 64x768", 200, [&] {
    Q4BlockQuantizeRowsInto(act.data(), 64, 768, nibbles.data(),
                            scales.data());
  });
  Tensor weight({1024, 1024});
  weight.FillGaussian(&rng, 0.05f);
  int64_t sink = 0;
  TimeQuantiles("transpose 1024x1024", 30, [&] {
    sink += Transpose(weight).size();
  });
  TimeQuantiles("q8 weight 1024x1024", 30, [&] {
    sink += Q8BlockQuantizeRows(weight).rows;
  });
  TimeQuantiles("q4 weight 1024x1024", 30, [&] {
    sink += Q4BlockQuantizeRows(weight).rows;
  });
  DLSYS_CHECK(sink > 0, "timed calls produced nothing");

  std::printf("\nexpected shape: accuracy flat down to ~4 bits, cliff at "
              "1-2 bits; kmeans >= uniform at equal bits; size ~ bits/32; "
              "block formats hold the envelope at 32x finer scale "
              "granularity with q4 halving q8's bytes.\n");
  return 0;
}
