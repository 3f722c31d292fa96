#ifndef DLSYS_INFER_PASSES_H_
#define DLSYS_INFER_PASSES_H_

#include <cstdint>
#include <vector>

#include "src/infer/graph.h"

/// \file passes.h
/// \brief Rewrite passes over the inference op-graph IR (src/infer/graph.h).
///
/// Every Compile runs the same pipeline, in this fixed order:
///
///   1. **fuse** — operator fusion. dense+bias(+relu) and conv+bias+relu
///      collapse into single fused steps dispatched through the fused
///      epilogue kernels in the src/simd tables; quantized dense epilogues
///      (bias+relu) become one pass.
///   2. **quant_elim** — quant/dequant elimination. At int8->int8 and
///      q4/q8 block boundaries the producer's epilogue quantizes its rows
///      once and the consumer reads codes+scales directly, skipping the
///      activation re-quantization pass.
///   3. **fold** — constant folding of weight-only subexpressions:
///      transpose+block-quantize of Dense weights and the BatchNorm
///      1/sqrt(var+eps) vector move from run time to compile time.
///   4. **pack** — liveness-analysis-driven arena packing. Per-tensor live
///      intervals drive first-fit offset assignment, so non-overlapping
///      intermediates share storage (the emitter computes the intervals;
///      PackLiveRanges does the placement).
///
/// **Determinism contract:** in fp32 every pass preserves the training
/// forward's per-element float operation sequence (fusion only removes
/// intermediate stores/reloads and kernel launches, folding only moves
/// *where* identical float expressions are evaluated, packing only moves
/// *where* buffers live), so the engine output equals
/// `Sequential::Forward(kNoCache)` bit for bit at any DLSYS_THREADS and
/// under every forced ISA; tests enforce this.

namespace dlsys {
namespace infer {

/// \brief What the passes did, for counters/gauges and tests.
struct PassStats {
  int64_t fused = 0;        ///< nodes absorbed or rewritten by fusion
  int64_t quant_elided = 0; ///< activation quantize passes eliminated
  int64_t folded = 0;       ///< nodes whose weight expressions folded
};

/// \brief Runs fuse, quant_elim and fold over \p graph in pipeline
/// order, tracing one span per pass and bumping infer.pass.* counters.
/// (The pack pass only emits liveness decisions at schedule emission —
/// see PackLiveRanges — so it has no graph rewrite here.)
PassStats RunPasses(OpGraph* graph);

/// \brief One buffer the liveness packer places: a byte size plus the
/// inclusive interval of schedule steps during which it is live.
struct LiveBuffer {
  int64_t bytes = 0;
  int begin = 0;
  int end = 0;
};

/// \brief First-fit offset assignment over live intervals: each buffer
/// (in order) lands at the lowest 64-byte-aligned offset that does not
/// collide with any already-placed buffer whose live interval overlaps
/// its own. Buffers with disjoint intervals may share bytes. Returns the
/// packed arena size; \p offsets receives one offset per buffer.
int64_t PackLiveRanges(const std::vector<LiveBuffer>& buffers,
                       std::vector<int64_t>* offsets);

}  // namespace infer
}  // namespace dlsys

#endif  // DLSYS_INFER_PASSES_H_
