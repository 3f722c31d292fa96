#include "src/infer/passes.h"

#include <algorithm>
#include <cmath>

#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace infer {
namespace {

/// Must match TensorArena's slot alignment (src/infer/arena.cc).
constexpr int64_t kPackAlign = 64;

int64_t AlignUp(int64_t v) {
  return (v + kPackAlign - 1) / kPackAlign * kPackAlign;
}

bool IsQuantDense(OpKind kind) {
  return kind == OpKind::kDenseInt8 || kind == OpKind::kDenseInt4;
}

bool IsDense(OpKind kind) {
  return kind == OpKind::kDense || IsQuantDense(kind);
}

/// Returns the index of the sole live consumer of \p tensor_id, or -1.
int SoleConsumer(const OpGraph& g, int tensor_id) {
  const TensorDef& t = g.tensors[static_cast<size_t>(tensor_id)];
  return t.consumers.size() == 1 ? t.consumers[0] : -1;
}

int64_t FusePass(OpGraph* g) {
  int64_t fused = 0;
  for (size_t i = 0; i < g->nodes.size(); ++i) {
    OpNode& node = g->nodes[i];
    if (node.dead) continue;
    if (!IsDense(node.kind) && node.kind != OpKind::kConv) continue;
    const int c = SoleConsumer(*g, node.output);
    if (c < 0) continue;
    OpNode& relu = g->nodes[static_cast<size_t>(c)];
    if (relu.dead || relu.kind != OpKind::kRelu) continue;
    // Absorb the ReLU: this node now produces the ReLU's output tensor
    // and applies max(x, 0) in its epilogue — the same float op on the
    // same value, minus a full store/reload pass over the activation.
    node.relu_fused = true;
    node.output = relu.output;
    relu.dead = true;
  }
  g->RebuildEdges();
  // Every dense node runs its bias add (and any absorbed ReLU) as the
  // GEMM's epilogue, so each counts as fused; conv counts when a ReLU
  // folded into it.
  for (const OpNode& node : g->nodes) {
    if (!node.dead && (IsDense(node.kind) || node.relu_fused)) ++fused;
  }
  return fused;
}

int64_t QuantElimPass(OpGraph* g) {
  int64_t elided = 0;
  for (size_t i = 0; i < g->nodes.size(); ++i) {
    OpNode& node = g->nodes[i];
    if (node.dead || !IsQuantDense(node.kind)) continue;
    const int c = SoleConsumer(*g, node.output);
    if (c < 0) continue;
    OpNode& next = g->nodes[static_cast<size_t>(c)];
    if (next.dead || !IsQuantDense(next.kind) || next.quant_in) continue;
    // Adjacent quantized layers: the producer's epilogue quantizes each
    // finished row once (q8 codes + per-block scales), and the consumer
    // reads those directly instead of re-quantizing the fp32 activation.
    // Activations are q8 in both the int8 and int4 modes, so the boundary
    // format matches for any q8/q4 weight combination.
    node.quant_out = true;
    next.quant_in = true;
    ++elided;
  }
  return elided;
}

int64_t FoldPass(OpGraph* g) {
  int64_t folded = 0;
  for (OpNode& node : g->nodes) {
    if (node.dead) continue;
    switch (node.kind) {
      case OpKind::kDenseInt8:
        // Weight-only subexpression: transpose + block-quantize runs once,
        // at compile time, instead of in the serve loop.
        node.qweight8 = Q8BlockQuantizeRows(Transpose(node.weight));
        node.weight = Tensor();
        ++folded;
        break;
      case OpKind::kDenseInt4:
        node.qweight4 = Q4BlockQuantizeRows(Transpose(node.weight));
        node.weight = Tensor();
        ++folded;
        break;
      case OpKind::kBatchNorm: {
        // Precompute the exact float the training path recomputes per
        // element. Folding BN into a*x+b would change the float op
        // sequence and break the bitwise contract, so only the rsqrt is
        // lifted.
        const size_t f = node.bn_var.size();
        node.bn_inv.resize(f);
        for (size_t j = 0; j < f; ++j) {
          node.bn_inv[j] = 1.0f / std::sqrt(node.bn_var[j] + node.bn_eps);
        }
        ++folded;
        break;
      }
      default:
        break;  // fp32 dense/conv weights are already in executable form
    }
  }
  return folded;
}

}  // namespace

PassStats RunPasses(OpGraph* graph) {
  PassStats stats;
  {
    DLSYS_TRACE_SPAN("infer.pass.fuse", "compile");
    stats.fused = FusePass(graph);
    DLSYS_COUNTER_ADD("infer.pass.fuse.rewrites", stats.fused);
  }
  {
    DLSYS_TRACE_SPAN("infer.pass.quant_elim", "compile");
    stats.quant_elided = QuantElimPass(graph);
    DLSYS_COUNTER_ADD("infer.pass.quant_elim.elided", stats.quant_elided);
  }
  {
    DLSYS_TRACE_SPAN("infer.pass.fold", "compile");
    stats.folded = FoldPass(graph);
    DLSYS_COUNTER_ADD("infer.pass.fold.folded", stats.folded);
  }
  return stats;
}

int64_t PackLiveRanges(const std::vector<LiveBuffer>& buffers,
                       std::vector<int64_t>* offsets) {
  struct Placed {
    int64_t offset;
    int64_t bytes;
    int begin;
    int end;
  };
  std::vector<Placed> placed;
  offsets->assign(buffers.size(), 0);
  int64_t total = 0;
  for (size_t b = 0; b < buffers.size(); ++b) {
    const int64_t bytes = AlignUp(std::max<int64_t>(buffers[b].bytes, 1));
    // Obstacles: already-placed buffers whose live interval overlaps.
    std::vector<Placed> obstacles;
    for (const Placed& p : placed) {
      if (p.begin <= buffers[b].end && buffers[b].begin <= p.end) {
        obstacles.push_back(p);
      }
    }
    std::sort(obstacles.begin(), obstacles.end(),
              [](const Placed& x, const Placed& y) {
                return x.offset < y.offset;
              });
    // First fit: slide past each obstacle until a gap fits.
    int64_t offset = 0;
    for (const Placed& p : obstacles) {
      if (offset + bytes <= p.offset) break;
      offset = std::max(offset, AlignUp(p.offset + p.bytes));
    }
    (*offsets)[b] = offset;
    placed.push_back(Placed{offset, bytes, buffers[b].begin, buffers[b].end});
    total = std::max(total, offset + bytes);
  }
  return AlignUp(std::max<int64_t>(total, 1));
}

}  // namespace infer
}  // namespace dlsys
