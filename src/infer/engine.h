#ifndef DLSYS_INFER_ENGINE_H_
#define DLSYS_INFER_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/compress/quantization.h"
#include "src/core/status.h"
#include "src/infer/arena.h"
#include "src/infer/graph.h"
#include "src/infer/passes.h"
#include "src/nn/sequential.h"
#include "src/tensor/tensor.h"

/// \file engine.h
/// \brief Batched inference engine: a trained Sequential compiled through a
/// graph pass pipeline into a preplanned, allocation-free schedule.
///
/// Training optimizes for flexibility (any batch size, caches for the
/// backward pass); serving optimizes for steady-state latency. Compile()
/// lowers the layer pipeline into an explicit op graph (src/infer/graph.h),
/// runs the rewrite passes (src/infer/passes.h) — operator fusion,
/// quant/dequant elimination, constant folding, liveness-packed arena
/// layout — and emits an executable schedule whose workspace is reserved
/// once in a TensorArena. After compilation the hot path (PredictInto)
/// performs **zero heap allocations** for any batch size up to the declared
/// ceiling and any DLSYS_THREADS setting.
///
/// ## Numerics contract
///
/// In fp32 mode the engine's output is **bitwise identical** to
/// `Sequential::Forward(x, CacheMode::kNoCache)`: every kernel reproduces
/// the training path's per-element operation sequence, and every rewrite
/// pass is bitwise-neutral (fusion removes stores/reloads and kernel
/// launches, folding moves where identical float expressions evaluate,
/// packing moves where buffers live — see src/infer/passes.h).
/// Convolution runs as im2col patch-matrix GEMM with zero-filled padding
/// taps; a zero product leaves a finite accumulator unchanged, so the
/// result matches the training forward's clipped loops bit for bit.
///
/// In int8 mode Dense layers run as ggml-style block-quantized integer
/// GEMM (src/compress/quantization.h): weights quantize at compile time to
/// q8 codes with one scale per 32-element block of each output feature's
/// row, activations quantize per block at run time unless the
/// quant-elimination pass lets the producing layer hand codes through
/// directly, and dequantization is fused into the GEMM inner loop. int4
/// mode is identical except weights store 4-bit codes (scale =
/// max|block|/7), halving weight bytes again; activations stay q8.
/// Non-Dense layers keep fp32 arithmetic in both modes. The per-element
/// operation sequence is fixed, so both quantized paths are bitwise
/// deterministic across thread counts and SIMD ISAs — divergence from
/// fp32 is pure quantization error.

namespace dlsys {

/// \brief Compile-time engine options. (EngineNumeric lives in
/// src/infer/graph.h with the IR.)
struct EngineConfig {
  EngineConfig() = default;
  /// Convenience: every default except the batch bound.
  explicit EngineConfig(int64_t batch) : max_batch(batch) {}

  int64_t max_batch = 64;  ///< largest batch PredictInto will accept
  EngineNumeric numeric = EngineNumeric::kFp32;
};

/// \brief A compiled, arena-backed forward pipeline for one model.
///
/// Thread-compatible: one engine serves one request at a time (the
/// workspace is shared across calls); concurrent producers go through a
/// Server (src/serve), which gives each worker its own replica. Holds its
/// own copies of all parameters — the source network may be freed or
/// mutated afterwards.
class InferenceEngine {
 public:
  /// \brief Compiles \p net for inputs of per-example shape
  /// \p example_shape (no batch dimension).
  ///
  /// Returns InvalidArgument when shapes do not thread through the
  /// pipeline or the config is malformed, and Unimplemented for layer
  /// types the engine does not recognize. Dropout layers compile to
  /// identity, matching inference-mode training semantics.
  static Result<InferenceEngine> Compile(const Sequential& net,
                                         const Shape& example_shape,
                                         const EngineConfig& config = {});

  InferenceEngine(InferenceEngine&&) = default;
  InferenceEngine& operator=(InferenceEngine&&) = default;

  /// \brief Runs a batch (rank 1 + example rank, leading dim <= max_batch)
  /// and returns a freshly allocated output tensor.
  Result<Tensor> Predict(const Tensor& batch);

  /// \brief Allocation-free forward: \p batch points at \p batch_size
  /// row-major examples of input_elems_per_example() floats; \p out
  /// receives batch_size * output_elems_per_example() floats.
  Status PredictInto(const float* batch, int64_t batch_size, float* out);

  /// \brief Per-example input shape the engine was compiled for.
  const Shape& example_input_shape() const { return in_shape_; }
  /// \brief Per-example output shape.
  const Shape& example_output_shape() const { return out_shape_; }
  /// \brief Flat input element count per example.
  int64_t input_elems_per_example() const { return in_elems_; }
  /// \brief Flat output element count per example.
  int64_t output_elems_per_example() const { return out_elems_; }
  /// \brief Batch ceiling declared at compile time.
  int64_t max_batch() const { return config_.max_batch; }
  /// \brief The compile-time configuration.
  const EngineConfig& config() const { return config_; }
  /// \brief Committed workspace bytes (activations + scratch) under the
  /// liveness-packed layout.
  int64_t workspace_bytes() const { return arena_.total_bytes(); }
  /// \brief Number of executable steps in the compiled schedule.
  int64_t step_count() const { return static_cast<int64_t>(steps_.size()); }
  /// \brief Live op-graph nodes after the rewrite passes (== step count).
  int64_t graph_node_count() const { return graph_.live_nodes(); }
  /// \brief What the rewrite passes did at compile time.
  const infer::PassStats& pass_stats() const { return stats_; }

 private:
  /// One executable schedule entry: a live graph node plus the arena
  /// buffers the emitter assigned it. Constants and rewrite flags stay on
  /// the OpNode; the step only binds storage and the fixed trace/cost
  /// plan.
  struct Step {
    int node = -1;  ///< index into graph_.nodes (never a dead node)
    TensorArena::BufferId in = -1;   ///< input activations (floats)
    TensorArena::BufferId out = -1;  ///< output activations (== in when
                                     ///< the node runs in place)
    TensorArena::BufferId im2col = -1;  ///< conv patch scratch (per image)
    /// Quantized dense: q8 codes + per-block scales of the input batch.
    /// With quant_in these alias the producer step's qout buffers.
    TensorArena::BufferId qin_vals = -1;
    TensorArena::BufferId qin_scales = -1;
    /// quant_out: codes + scales this step's epilogue writes for the
    /// consumer (live from this step through the consumer's step).
    TensorArena::BufferId qout_vals = -1;
    TensorArena::BufferId qout_scales = -1;

    /// Trace/cost plan, fixed at compile time: span name plus per-example
    /// FLOPs and bytes moved, scaled by the batch at run time.
    const char* trace_name = "engine.step";
    int64_t flops_per_example = 0;
    int64_t bytes_per_example = 0;
  };

  InferenceEngine() = default;

  /// Assigns schedule positions, computes tensor live intervals, places
  /// every buffer first-fit, and commits the arena.
  void PlanAndEmit();

  void RunStep(const Step& step, int64_t batch) const;

  EngineConfig config_;
  infer::PassStats stats_;  ///< what the passes did
  infer::OpGraph graph_;    ///< rewritten IR; owns all constants
  Shape in_shape_, out_shape_;
  int64_t in_elems_ = 0, out_elems_ = 0;
  std::vector<Step> steps_;
  TensorArena arena_;
  TensorArena::BufferId input_buf_ = -1;   ///< where PredictInto copies in
  TensorArena::BufferId output_buf_ = -1;  ///< where the result lands
};

}  // namespace dlsys

#endif  // DLSYS_INFER_ENGINE_H_
