#include "src/infer/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/infer/graph.h"
#include "src/infer/passes.h"
#include "src/obs/cost.h"
#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/tensor/int8_gemm.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace {

using infer::LiveBuffer;
using infer::OpGraph;
using infer::OpKind;
using infer::OpNode;

constexpr int64_t kEwGrain = 1 << 15;  ///< elementwise elements per range

bool IsQuantDense(OpKind kind) {
  return kind == OpKind::kDenseInt8 || kind == OpKind::kDenseInt4;
}

}  // namespace

Result<InferenceEngine> InferenceEngine::Compile(const Sequential& net,
                                                 const Shape& example_shape,
                                                 const EngineConfig& config) {
  if (config.max_batch < 1) {
    return Status::InvalidArgument("inference compile: max_batch must be >= 1, got " +
                                   std::to_string(config.max_batch));
  }
  if (example_shape.empty() || NumElements(example_shape) <= 0) {
    return Status::InvalidArgument(
        "inference compile: example shape must be non-empty with positive "
        "extents, got " +
        ShapeToString(example_shape));
  }

  InferenceEngine eng;
  eng.config_ = config;

  DLSYS_TRACE_SPAN("engine.compile", "compile");
  auto lowered = OpGraph::Lower(net, example_shape, config.numeric);
  if (!lowered.ok()) return lowered.status();
  eng.graph_ = std::move(lowered).value();
  eng.stats_ = infer::RunPasses(&eng.graph_);
  eng.PlanAndEmit();

  DLSYS_GAUGE_SET("infer.workspace_bytes", eng.arena_.total_bytes());
  DLSYS_GAUGE_SET("infer.graph.nodes", eng.graph_.live_nodes());
  DLSYS_GAUGE_SET("infer.graph.fused", eng.stats_.fused);
  return eng;
}

void InferenceEngine::PlanAndEmit() {
  const OpGraph& g = graph_;
  const int64_t kMaxB = config_.max_batch;
  in_shape_ = g.in_shape;
  out_shape_ = g.out_shape;
  in_elems_ = NumElements(g.in_shape);
  out_elems_ = NumElements(g.out_shape);

  // ---- schedule order (live nodes, lowering order) --------------------
  std::vector<int> order;
  std::vector<int> node_step(g.nodes.size(), -1);
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    if (g.nodes[i].dead) continue;
    node_step[i] = static_cast<int>(order.size());
    order.push_back(static_cast<int>(i));
  }
  const int num_steps = static_cast<int>(order.size());

  // ---- activation alias groups ----------------------------------------
  //
  // In-place (elementwise) nodes write into their input's storage, so
  // their input and output tensors share one buffer: an alias group,
  // which carries one live interval [first def, last use].
  const size_t num_tensors = g.tensors.size();
  std::vector<int> group(num_tensors, -1);
  int num_groups = 0;
  group[static_cast<size_t>(g.input)] = num_groups++;
  for (const int ni : order) {
    const OpNode& node = g.nodes[static_cast<size_t>(ni)];
    const size_t tin = static_cast<size_t>(node.input);
    const size_t tout = static_cast<size_t>(node.output);
    group[tout] = node.in_place ? group[tin] : num_groups++;
  }

  std::vector<int64_t> group_elems(static_cast<size_t>(num_groups), 0);
  std::vector<int> group_begin(static_cast<size_t>(num_groups), num_steps);
  std::vector<int> group_end(static_cast<size_t>(num_groups), 0);
  for (size_t t = 0; t < num_tensors; ++t) {
    if (group[t] < 0) continue;  // orphaned by a rewrite
    const size_t gi = static_cast<size_t>(group[t]);
    group_elems[gi] = std::max(group_elems[gi], g.tensors[t].elems);
  }
  group_begin[static_cast<size_t>(group[static_cast<size_t>(g.input)])] = 0;
  for (int p = 0; p < num_steps; ++p) {
    const OpNode& node = g.nodes[static_cast<size_t>(order[static_cast<size_t>(p)])];
    const size_t gin = static_cast<size_t>(group[static_cast<size_t>(node.input)]);
    const size_t gout = static_cast<size_t>(group[static_cast<size_t>(node.output)]);
    group_begin[gout] = std::min(group_begin[gout], p);
    group_end[gin] = std::max(group_end[gin], p);
    group_end[gout] = std::max(group_end[gout], p);
  }
  // The output group survives past the last step for the copy-out.
  const size_t out_group =
      static_cast<size_t>(group[static_cast<size_t>(g.output)]);
  group_end[out_group] = num_steps;
  group_begin[out_group] = std::min(group_begin[out_group], num_steps);

  // ---- steps + scratch requests ---------------------------------------
  //
  // Scratch buffers (im2col patches, activation codes) are requested
  // with live intervals and packed next to the activations. Fields name
  // the Step member to bind.
  enum ScratchField {
    kIm2col,
    kQinVals,
    kQinScales,
    kQoutVals,
    kQoutScales,
  };
  struct ScratchReq {
    size_t step;
    ScratchField field;
    bool floats;
    int64_t count;
    int begin;
    int end;
  };
  std::vector<ScratchReq> scratch;

  steps_.clear();
  steps_.reserve(static_cast<size_t>(num_steps));
  for (int p = 0; p < num_steps; ++p) {
    const int ni = order[static_cast<size_t>(p)];
    const OpNode& node = g.nodes[static_cast<size_t>(ni)];
    Step step;
    step.node = ni;

    if (node.kind == OpKind::kConv) {
      const int64_t patch =
          node.ho * node.wo * node.in_ch * node.kernel * node.kernel;
      scratch.push_back(
          {static_cast<size_t>(p), kIm2col, true, patch, p, p});
    }
    if (IsQuantDense(node.kind)) {
      const int64_t kp_in = PadToQuantBlock(node.in_elems);
      if (!node.quant_in) {
        scratch.push_back({static_cast<size_t>(p), kQinVals, false,
                           kp_in * kMaxB, p, p});
        scratch.push_back({static_cast<size_t>(p), kQinScales, true,
                           (kp_in / kQuantBlock) * kMaxB, p, p});
      }
      if (node.quant_out) {
        // Live until the (sole) consumer's step reads the codes.
        const int consumer =
            g.tensors[static_cast<size_t>(node.output)].consumers[0];
        const int cpos = node_step[static_cast<size_t>(consumer)];
        const int64_t kp_out = PadToQuantBlock(node.out_elems);
        scratch.push_back({static_cast<size_t>(p), kQoutVals, false,
                           kp_out * kMaxB, p, cpos});
        scratch.push_back({static_cast<size_t>(p), kQoutScales, true,
                           (kp_out / kQuantBlock) * kMaxB, p, cpos});
      }
    }

    // Fixed trace/cost plan: FLOPs from the node's arithmetic, bytes from
    // the activations it reads/writes plus resident parameters, scaled by
    // the batch at run time.
    int64_t param_elems =
        node.weight.size() + node.bias.size() +
        (node.qweight8.PackedBytes() + node.qweight4.PackedBytes() + 3) / 4;
    switch (node.kind) {
      case OpKind::kDense:
        step.trace_name =
            node.relu_fused ? "engine.dense_relu" : "engine.dense";
        step.flops_per_example = 2 * node.in_elems * node.out_elems;
        break;
      case OpKind::kDenseInt8:
        step.trace_name =
            node.relu_fused ? "engine.dense_int8_relu" : "engine.dense_int8";
        step.flops_per_example = 2 * node.in_elems * node.out_elems;
        break;
      case OpKind::kDenseInt4:
        step.trace_name =
            node.relu_fused ? "engine.dense_int4_relu" : "engine.dense_int4";
        step.flops_per_example = 2 * node.in_elems * node.out_elems;
        break;
      case OpKind::kConv:
        step.trace_name =
            node.relu_fused ? "engine.conv_relu" : "engine.conv";
        step.flops_per_example =
            2 * node.out_elems * node.in_ch * node.kernel * node.kernel;
        break;
      case OpKind::kPool:
        step.trace_name = "engine.pool";
        step.flops_per_example = node.out_elems * node.window * node.window;
        break;
      case OpKind::kRelu:
        step.trace_name = "engine.relu";
        step.flops_per_example = node.in_elems;
        break;
      case OpKind::kSigmoid:
        step.trace_name = "engine.sigmoid";
        step.flops_per_example = 4 * node.in_elems;
        break;
      case OpKind::kTanh:
        step.trace_name = "engine.tanh";
        step.flops_per_example = 4 * node.in_elems;
        break;
      case OpKind::kBatchNorm:
        step.trace_name = "engine.batchnorm";
        step.flops_per_example = 4 * node.in_elems;
        param_elems += 4 * node.in_elems;
        break;
    }
    if (node.relu_fused) step.flops_per_example += node.out_elems;
    step.bytes_per_example =
        4 * (node.in_elems + node.out_elems + param_elems);
    steps_.push_back(step);
  }

  auto bind = [&](Step* step, ScratchField field, TensorArena::BufferId id) {
    switch (field) {
      case kIm2col:
        step->im2col = id;
        return;
      case kQinVals:
        step->qin_vals = id;
        return;
      case kQinScales:
        step->qin_scales = id;
        return;
      case kQoutVals:
        step->qout_vals = id;
        return;
      case kQoutScales:
        step->qout_scales = id;
    }
  };

  // ---- liveness-packed layout -----------------------------------------
  //
  // First-fit offsets over per-buffer live intervals; disjoint lifetimes
  // share bytes. Commit() cross-checks every placed pair, so a packer bug
  // aborts at plan time.
  std::vector<TensorArena::BufferId> group_buf(
      static_cast<size_t>(num_groups), -1);
  {
    DLSYS_TRACE_SPAN("infer.pass.pack", "compile");
    std::vector<LiveBuffer> buffers;
    buffers.reserve(static_cast<size_t>(num_groups) + scratch.size());
    for (int gi = 0; gi < num_groups; ++gi) {
      buffers.push_back(
          LiveBuffer{4 * group_elems[static_cast<size_t>(gi)] * kMaxB,
                     group_begin[static_cast<size_t>(gi)],
                     group_end[static_cast<size_t>(gi)]});
    }
    for (const ScratchReq& req : scratch) {
      buffers.push_back(LiveBuffer{req.count * (req.floats ? 4 : 1),
                                   req.begin, req.end});
    }
    std::vector<int64_t> offsets;
    infer::PackLiveRanges(buffers, &offsets);
    DLSYS_COUNTER_ADD("infer.pass.pack.buffers",
                      static_cast<int64_t>(buffers.size()));
    for (int gi = 0; gi < num_groups; ++gi) {
      group_buf[static_cast<size_t>(gi)] = arena_.PlaceFloats(
          offsets[static_cast<size_t>(gi)],
          group_elems[static_cast<size_t>(gi)] * kMaxB,
          group_begin[static_cast<size_t>(gi)],
          group_end[static_cast<size_t>(gi)]);
    }
    for (size_t s = 0; s < scratch.size(); ++s) {
      const ScratchReq& req = scratch[s];
      const int64_t off = offsets[static_cast<size_t>(num_groups) + s];
      const TensorArena::BufferId id =
          req.floats
              ? arena_.PlaceFloats(off, req.count, req.begin, req.end)
              : arena_.PlaceInt8s(off, req.count, req.begin, req.end);
      bind(&steps_[req.step], req.field, id);
    }
  }

  // Bind activation buffers, then wire quant_in steps to their producer's
  // qout codes.
  for (size_t s = 0; s < steps_.size(); ++s) {
    const OpNode& node = g.nodes[static_cast<size_t>(steps_[s].node)];
    steps_[s].in =
        group_buf[static_cast<size_t>(group[static_cast<size_t>(node.input)])];
    steps_[s].out = group_buf[static_cast<size_t>(
        group[static_cast<size_t>(node.output)])];
    if (node.quant_in) {
      const int producer =
          g.tensors[static_cast<size_t>(node.input)].producer;
      const Step& src = steps_[static_cast<size_t>(
          node_step[static_cast<size_t>(producer)])];
      steps_[s].qin_vals = src.qout_vals;
      steps_[s].qin_scales = src.qout_scales;
    }
  }

  input_buf_ =
      group_buf[static_cast<size_t>(group[static_cast<size_t>(g.input)])];
  output_buf_ = group_buf[out_group];
  arena_.Commit();
}

Result<Tensor> InferenceEngine::Predict(const Tensor& batch) {
  if (batch.rank() != static_cast<int64_t>(in_shape_.size()) + 1) {
    return Status::InvalidArgument(
        "Predict: batch rank " + std::to_string(batch.rank()) +
        " does not match compiled example shape " + ShapeToString(in_shape_));
  }
  for (size_t d = 0; d < in_shape_.size(); ++d) {
    if (batch.dim(static_cast<int64_t>(d) + 1) != in_shape_[d]) {
      return Status::InvalidArgument(
          "Predict: batch shape " + ShapeToString(batch.shape()) +
          " does not match compiled example shape " +
          ShapeToString(in_shape_));
    }
  }
  const int64_t b = batch.dim(0);
  Shape out_shape;
  out_shape.reserve(out_shape_.size() + 1);
  out_shape.push_back(b);
  out_shape.insert(out_shape.end(), out_shape_.begin(), out_shape_.end());
  Tensor out(std::move(out_shape));
  DLSYS_RETURN_NOT_OK(PredictInto(batch.data(), b, out.data()));
  return out;
}

Status InferenceEngine::PredictInto(const float* batch, int64_t batch_size,
                                    float* out) {
  if (batch == nullptr || out == nullptr) {
    return Status::InvalidArgument("PredictInto: null buffer");
  }
  if (batch_size < 1 || batch_size > config_.max_batch) {
    return Status::InvalidArgument(
        "PredictInto: batch size " + std::to_string(batch_size) +
        " outside [1, " + std::to_string(config_.max_batch) +
        "] declared at compile time");
  }
  DLSYS_PHASE_SCOPE(obs::Phase::kServe);
  DLSYS_TRACE_SPAN_COST("engine.predict", "serve", 0,
                        4 * batch_size * (in_elems_ + out_elems_));
  std::copy(batch, batch + batch_size * in_elems_, arena_.Floats(input_buf_));
  for (const Step& step : steps_) {
    DLSYS_TRACE_SPAN_COST(step.trace_name, "serve",
                          batch_size * step.flops_per_example,
                          batch_size * step.bytes_per_example);
    RunStep(step, batch_size);
  }
  const float* result = arena_.Floats(output_buf_);
  std::copy(result, result + batch_size * out_elems_, out);
  return Status::OK();
}

void InferenceEngine::RunStep(const Step& step, int64_t batch) const {
  const OpNode& node = graph_.nodes[static_cast<size_t>(step.node)];
  const float* in = arena_.Floats(step.in);
  float* out = arena_.Floats(step.out);
  switch (node.kind) {
    case OpKind::kDense: {
      const int64_t in_f = node.in_elems, out_f = node.out_elems;
      // Bias (+ absorbed relu) runs in the GEMM range kernel's epilogue.
      MatMulBiasActInto(in, node.weight.data(), node.bias.data(), out, batch,
                        in_f, out_f, node.relu_fused);
      return;
    }
    case OpKind::kDenseInt8:
    case OpKind::kDenseInt4: {
      const int64_t in_f = node.in_elems, out_f = node.out_elems;
      const int64_t kp = PadToQuantBlock(in_f);
      // Weight codes were folded at compile time.
      const float* ws = node.kind == OpKind::kDenseInt8
                            ? node.qweight8.scales.data()
                            : node.qweight4.scales.data();
      // Input codes: the quant-elimination pass hands the producer's q8
      // codes straight through; otherwise quantize the fp32 batch here.
      const int8_t* qv;
      const float* qs;
      if (node.quant_in) {
        qv = arena_.Int8s(step.qin_vals);
        qs = arena_.Floats(step.qin_scales);
      } else {
        int8_t* qv_mut = arena_.Int8s(step.qin_vals);
        float* qs_mut = arena_.Floats(step.qin_scales);
        Q8BlockQuantizeRowsInto(in, batch, in_f, qv_mut, qs_mut);
        qv = qv_mut;
        qs = qs_mut;
      }
      if (node.kind == OpKind::kDenseInt8) {
        Q8BlockGemmTransBInto(qv, qs, node.qweight8.values.data(), ws, out,
                              batch, kp, out_f);
      } else {
        Q4BlockGemmTransBInto(qv, qs, node.qweight4.values.data(), ws, out,
                              batch, kp, out_f);
      }
      // Epilogue: bias, absorbed relu, and (under quant elimination) the
      // row quantization the consumer would otherwise redo.
      BiasActQ8QuantizeRowsInto(
          node.bias.data(), node.relu_fused, out, batch, out_f,
          node.quant_out ? arena_.Int8s(step.qout_vals) : nullptr,
          node.quant_out ? arena_.Floats(step.qout_scales) : nullptr);
      return;
    }
    case OpKind::kRelu: {
      ParallelFor(0, batch * node.in_elems, kEwGrain,
                  [=](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i) {
                      out[i] = in[i] > 0.0f ? in[i] : 0.0f;
                    }
                  });
      return;
    }
    case OpKind::kSigmoid: {
      ParallelFor(0, batch * node.in_elems, kEwGrain,
                  [=](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i) {
                      out[i] = 1.0f / (1.0f + std::exp(-in[i]));
                    }
                  });
      return;
    }
    case OpKind::kTanh: {
      ParallelFor(0, batch * node.in_elems, kEwGrain,
                  [=](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i) {
                      out[i] = std::tanh(in[i]);
                    }
                  });
      return;
    }
    case OpKind::kBatchNorm: {
      const int64_t f = node.in_elems;
      const float* gamma = node.bn_gamma.data();
      const float* bt = node.bn_beta.data();
      const float* mu = node.bn_mean.data();
      const float* inv = node.bn_inv.data();
      ParallelFor(0, batch, 8, [=](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float* xrow = in + i * f;
          float* yrow = out + i * f;
          for (int64_t j = 0; j < f; ++j) {
            yrow[j] = gamma[j] * (xrow[j] - mu[j]) * inv[j] + bt[j];
          }
        }
      });
      return;
    }
    case OpKind::kPool: {
      const int64_t c = node.in_ch, h = node.h, w = node.w;
      const int64_t ho = node.ho, wo = node.wo, window = node.window;
      ParallelFor(0, batch * c, 1, [=](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          const float* xplane = in + t * h * w;
          float* yplane = out + t * ho * wo;
          for (int64_t oy = 0; oy < ho; ++oy) {
            for (int64_t ox = 0; ox < wo; ++ox) {
              float best = -std::numeric_limits<float>::infinity();
              for (int64_t ky = 0; ky < window; ++ky) {
                const float* xrow =
                    xplane + (oy * window + ky) * w + ox * window;
                for (int64_t kx = 0; kx < window; ++kx) {
                  if (xrow[kx] > best) best = xrow[kx];
                }
              }
              yplane[oy * wo + ox] = best;
            }
          }
        }
      });
      return;
    }
    case OpKind::kConv: {
      const int64_t ic = node.in_ch, oc = node.out_ch;
      const int64_t kernel = node.kernel, stride = node.stride,
                    pad = node.pad;
      const int64_t h = node.h, w = node.w, ho = node.ho, wo = node.wo;
      const float* pw = node.weight.data();
      const float* pb = node.bias.data();
      const bool relu = node.relu_fused;
      const int64_t kk = ic * kernel * kernel;  // patch width
      const int64_t positions = ho * wo;
      float* patches = arena_.Floats(step.im2col);
      for (int64_t img = 0; img < batch; ++img) {
        const float* xin = in + img * ic * h * w;
        // Patch layout: row = output position, columns in (ic, ky, kx)
        // order — the training forward's term order — with out-of-image
        // taps zero-filled.
        ParallelFor(0, positions, 16, [=](int64_t p0, int64_t p1) {
          for (int64_t pos = p0; pos < p1; ++pos) {
            const int64_t oy = pos / wo, ox = pos % wo;
            const int64_t iy0 = oy * stride - pad;
            const int64_t ix0 = ox * stride - pad;
            float* prow = patches + pos * kk;
            int64_t q = 0;
            for (int64_t cc = 0; cc < ic; ++cc) {
              const float* xplane = xin + cc * h * w;
              for (int64_t ky = 0; ky < kernel; ++ky) {
                const int64_t iy = iy0 + ky;
                for (int64_t kx = 0; kx < kernel; ++kx, ++q) {
                  const int64_t ix = ix0 + kx;
                  prow[q] = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                                ? xplane[iy * w + ix]
                                : 0.0f;
                }
              }
            }
          }
        });
        // An absorbed ReLU runs in the conv GEMM's column epilogue instead
        // of as a separate output pass.
        ConvGemmBiasActInto(pw, patches, pb, out + img * oc * positions, oc,
                            kk, positions, relu);
      }
      return;
    }
  }
}

}  // namespace dlsys
