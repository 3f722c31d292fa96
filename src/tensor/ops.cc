#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "src/obs/cost.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"

namespace dlsys {
namespace {

// ---------------------------------------------------------------- GEMM
//
// All three GEMM variants share one structure: the output row range is
// statically partitioned across workers by ParallelFor, and the range
// kernel itself comes from the SIMD dispatch registry (src/simd) — the
// scalar reference or an AVX2/AVX-512 microkernel, chosen once per process
// from the CPU (override: DLSYS_ISA). Every table obeys the same parity
// contract: the accumulation order for any single C element is ascending-p
// with one float multiply then one add per term (no contraction), so every
// ISA is bitwise identical to the naive loop nests below, at every thread
// count.

constexpr int64_t kRowGrain = 8;  // min C rows per ParallelFor range
constexpr int64_t kEwGrain = 1 << 15;  // elementwise elements per range

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  DLSYS_CHECK(a.shape() == b.shape(), op);
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  DLSYS_CHECK(a.rank() == 2 && b.rank() == 2, "MatMul requires rank 2");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  DLSYS_CHECK(b.dim(0) == k, "MatMul inner dimension mismatch");
  const simd::KernelTable& kt = simd::ActiveKernels();
  simd::CountDispatch(kt);
  DLSYS_TRACE_SPAN_COST_CAT("gemm.matmul", kt.span_cat, 2 * m * k * n,
                            4 * (m * k + k * n + m * n));
  DLSYS_COST_FLOPS(2 * m * k * n);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  auto* kernel = kt.matmul_range;
  ParallelFor(0, m, kRowGrain, [=](int64_t i0, int64_t i1) {
    kernel(pa, pb, pc, i0, i1, k, n);
  });
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  DLSYS_CHECK(a.rank() == 2 && b.rank() == 2, "MatMulTransA requires rank 2");
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  DLSYS_CHECK(b.dim(0) == k, "MatMulTransA inner dimension mismatch");
  const simd::KernelTable& kt = simd::ActiveKernels();
  simd::CountDispatch(kt);
  DLSYS_TRACE_SPAN_COST_CAT("gemm.matmul_ta", kt.span_cat, 2 * m * k * n,
                            4 * (m * k + k * n + m * n));
  DLSYS_COST_FLOPS(2 * m * k * n);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  auto* kernel = kt.matmul_ta_range;
  ParallelFor(0, m, kRowGrain, [=](int64_t i0, int64_t i1) {
    kernel(pa, pb, pc, i0, i1, k, m, n);
  });
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  DLSYS_CHECK(a.rank() == 2 && b.rank() == 2, "MatMulTransB requires rank 2");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  DLSYS_CHECK(b.dim(1) == k, "MatMulTransB inner dimension mismatch");
  const simd::KernelTable& kt = simd::ActiveKernels();
  simd::CountDispatch(kt);
  DLSYS_TRACE_SPAN_COST_CAT("gemm.matmul_tb", kt.span_cat, 2 * m * k * n,
                            4 * (m * k + k * n + m * n));
  DLSYS_COST_FLOPS(2 * m * k * n);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  auto* kernel = kt.matmul_tb_range;
  ParallelFor(0, m, kRowGrain, [=](int64_t i0, int64_t i1) {
    kernel(pa, pb, pc, i0, i1, k, n);
  });
  return c;
}

void MatMulInto(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n) {
  const simd::KernelTable& kt = simd::ActiveKernels();
  simd::CountDispatch(kt);
  DLSYS_TRACE_SPAN_COST_CAT("gemm.matmul_into", kt.span_cat, 2 * m * k * n,
                            4 * (m * k + k * n + m * n));
  DLSYS_COST_FLOPS(2 * m * k * n);
  auto* kernel = kt.matmul_range;
  ParallelFor(0, m, kRowGrain, [=](int64_t i0, int64_t i1) {
    kernel(a, b, c, i0, i1, k, n);
  });
}

void ConvGemmBiasInto(const float* a, const float* b, const float* bias,
                      float* c, int64_t m, int64_t k, int64_t n) {
  const simd::KernelTable& kt = simd::ActiveKernels();
  simd::CountDispatch(kt);
  DLSYS_TRACE_SPAN_COST_CAT("gemm.conv_gemm_bias", kt.span_cat,
                            2 * m * k * n, 4 * (m * k + k * n + m * n));
  DLSYS_COST_FLOPS(2 * m * k * n);
  // Rows are output channels (few); columns are spatial positions (many),
  // so the column range is what gets partitioned. Each element is owned by
  // exactly one range and accumulated bias-first, ascending-p, in a double
  // — the direct convolution's exact operation sequence in every table.
  auto* kernel = kt.conv_gemm_bias_cols;
  ParallelFor(0, n, 64, [=](int64_t j0, int64_t j1) {
    kernel(a, b, bias, c, m, k, n, j0, j1);
  });
}

void MatMulBiasActInto(const float* a, const float* b, const float* bias,
                       float* c, int64_t m, int64_t k, int64_t n,
                       bool relu) {
  const simd::KernelTable& kt = simd::ActiveKernels();
  simd::CountDispatch(kt);
  DLSYS_TRACE_SPAN_COST_CAT("gemm.matmul_bias_act", kt.span_cat,
                            2 * m * k * n, 4 * (m * k + k * n + m * n));
  DLSYS_COST_FLOPS(2 * m * k * n);
  auto* kernel = kt.matmul_bias_act_range;
  const int relu_flag = relu ? 1 : 0;
  ParallelFor(0, m, kRowGrain, [=](int64_t i0, int64_t i1) {
    kernel(a, b, bias, c, i0, i1, k, n, relu_flag);
  });
}

void ConvGemmBiasActInto(const float* a, const float* b, const float* bias,
                         float* c, int64_t m, int64_t k, int64_t n,
                         bool relu) {
  const simd::KernelTable& kt = simd::ActiveKernels();
  simd::CountDispatch(kt);
  DLSYS_TRACE_SPAN_COST_CAT("gemm.conv_gemm_bias_act", kt.span_cat,
                            2 * m * k * n, 4 * (m * k + k * n + m * n));
  DLSYS_COST_FLOPS(2 * m * k * n);
  auto* kernel = kt.conv_gemm_bias_act_cols;
  const int relu_flag = relu ? 1 : 0;
  ParallelFor(0, n, 64, [=](int64_t j0, int64_t j1) {
    kernel(a, b, bias, c, m, k, n, j0, j1, relu_flag);
  });
}

// ------------------------------------------------- naive references
//
// The seed library's loop nests, retained verbatim minus the
// `if (av == 0.0f) continue;` branches (the branch defeated vectorization
// on the dense inputs every caller passes, and silently changed the cost
// model on sparse data). Skipping a zero term and adding it are bitwise
// identical on finite data, so these remain the reference the optimised
// kernels are tested against.

Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  DLSYS_CHECK(a.rank() == 2 && b.rank() == 2, "MatMul requires rank 2");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  DLSYS_CHECK(b.dim(0) == k, "MatMul inner dimension mismatch");
  DLSYS_TRACE_SPAN_COST("gemm.matmul", "kernel", 2 * m * k * n,
                        4 * (m * k + k * n + m * n));
  DLSYS_COST_FLOPS(2 * m * k * n);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = pa[i * k + p];
      const float* brow = pb + p * n;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor NaiveMatMulTransA(const Tensor& a, const Tensor& b) {
  DLSYS_CHECK(a.rank() == 2 && b.rank() == 2, "MatMulTransA requires rank 2");
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  DLSYS_CHECK(b.dim(0) == k, "MatMulTransA inner dimension mismatch");
  DLSYS_TRACE_SPAN_COST("gemm.matmul_ta", "kernel", 2 * m * k * n,
                        4 * (m * k + k * n + m * n));
  DLSYS_COST_FLOPS(2 * m * k * n);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = pa + p * m;
    const float* brow = pb + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor NaiveMatMulTransB(const Tensor& a, const Tensor& b) {
  DLSYS_CHECK(a.rank() == 2 && b.rank() == 2, "MatMulTransB requires rank 2");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  DLSYS_CHECK(b.dim(1) == k, "MatMulTransB inner dimension mismatch");
  DLSYS_TRACE_SPAN_COST("gemm.matmul_tb", "kernel", 2 * m * k * n,
                        4 * (m * k + k * n + m * n));
  DLSYS_COST_FLOPS(2 * m * k * n);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double s = 0.0;
      for (int64_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      pc[i * n + j] = static_cast<float>(s);
    }
  }
  return c;
}

// ------------------------------------------------------- elementwise

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add shape mismatch");
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  ParallelFor(0, c.size(), kEwGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pc[i] += pb[i];
  });
  return c;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub shape mismatch");
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  ParallelFor(0, c.size(), kEwGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pc[i] -= pb[i];
  });
  return c;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul shape mismatch");
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  ParallelFor(0, c.size(), kEwGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pc[i] *= pb[i];
  });
  return c;
}

void Axpy(float alpha, const Tensor& b, Tensor* a) {
  DLSYS_CHECK(a->size() == b.size(), "Axpy size mismatch");
  float* pa = a->data();
  const float* pb = b.data();
  ParallelFor(0, a->size(), kEwGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] += alpha * pb[i];
  });
}

void Scale(float alpha, Tensor* a) {
  float* pa = a->data();
  ParallelFor(0, a->size(), kEwGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] *= alpha;
  });
}

Tensor RowSoftmax(const Tensor& logits) {
  DLSYS_CHECK(logits.rank() == 2, "RowSoftmax requires rank 2");
  const int64_t n = logits.dim(0), c = logits.dim(1);
  Tensor out({n, c});
  const float* pin = logits.data();
  float* pout = out.data();
  ParallelFor(0, n, 8, [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* row = pin + i * c;
      float* orow = pout + i * c;
      float mx = row[0];
      for (int64_t j = 1; j < c; ++j) mx = row[j] > mx ? row[j] : mx;
      double denom = 0.0;
      for (int64_t j = 0; j < c; ++j) {
        orow[j] = std::exp(row[j] - mx);
        denom += orow[j];
      }
      for (int64_t j = 0; j < c; ++j) {
        orow[j] = static_cast<float>(orow[j] / denom);
      }
    }
  });
  return out;
}

std::vector<int64_t> ArgMaxRows(const Tensor& m) {
  DLSYS_CHECK(m.rank() == 2, "ArgMaxRows requires rank 2");
  const int64_t n = m.dim(0), c = m.dim(1);
  std::vector<int64_t> out(n);
  for (int64_t i = 0; i < n; ++i) {
    const float* row = m.data() + i * c;
    int64_t best = 0;
    for (int64_t j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = best;
  }
  return out;
}

Tensor OneHot(const std::vector<int64_t>& labels, int64_t num_classes) {
  const int64_t n = static_cast<int64_t>(labels.size());
  Tensor out({n, num_classes});
  const int64_t* plabels = labels.data();
  float* pout = out.data();
  ParallelFor(0, n, 256, [=](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      DLSYS_CHECK(plabels[i] >= 0 && plabels[i] < num_classes,
                  "label out of range");
      pout[i * num_classes + plabels[i]] = 1.0f;
    }
  });
  return out;
}

Tensor MeanRows(const Tensor& m) {
  DLSYS_CHECK(m.rank() == 2, "MeanRows requires rank 2");
  const int64_t n = m.dim(0), c = m.dim(1);
  Tensor out({c});
  const float* pin = m.data();
  float* pout = out.data();
  // Workers own disjoint column ranges; each column sums rows in ascending
  // i, the serial loop's per-element order, so results are bitwise stable
  // across thread counts.
  ParallelFor(0, c, 8, [=](int64_t j0, int64_t j1) {
    for (int64_t i = 0; i < n; ++i) {
      const float* row = pin + i * c;
      for (int64_t j = j0; j < j1; ++j) pout[j] += row[j];
    }
  });
  if (n > 0) Scale(1.0f / static_cast<float>(n), &out);
  return out;
}

Tensor SliceRows(const Tensor& m, int64_t begin, int64_t end) {
  DLSYS_CHECK(m.rank() == 2, "SliceRows requires rank 2");
  DLSYS_CHECK(begin >= 0 && begin <= end && end <= m.dim(0),
              "SliceRows range invalid");
  const int64_t c = m.dim(1);
  Tensor out({end - begin, c});
  const float* pin = m.data();
  float* pout = out.data();
  const int64_t row_grain = std::max<int64_t>(1, kEwGrain / std::max<int64_t>(c, 1));
  ParallelFor(0, end - begin, row_grain, [=](int64_t r0, int64_t r1) {
    std::copy(pin + (begin + r0) * c, pin + (begin + r1) * c, pout + r0 * c);
  });
  return out;
}

Tensor Transpose(const Tensor& m) {
  DLSYS_CHECK(m.rank() == 2, "Transpose requires rank 2");
  const int64_t r = m.dim(0), c = m.dim(1);
  Tensor out({c, r});
  const float* pin = m.data();
  float* pout = out.data();
  // Tiled copy: each worker owns input rows [i0, i1) — disjoint output
  // columns — and walks 32-wide column blocks so writes stay in-cache.
  constexpr int64_t kTile = 32;
  ParallelFor(0, r, kTile, [=](int64_t i0, int64_t i1) {
    for (int64_t jb = 0; jb < c; jb += kTile) {
      const int64_t je = std::min<int64_t>(jb + kTile, c);
      for (int64_t i = i0; i < i1; ++i) {
        for (int64_t j = jb; j < je; ++j) pout[j * r + i] = pin[i * c + j];
      }
    }
  });
  return out;
}

double Accuracy(const Tensor& logits, const std::vector<int64_t>& labels) {
  DLSYS_CHECK(logits.dim(0) == static_cast<int64_t>(labels.size()),
              "Accuracy: row/label count mismatch");
  if (labels.empty()) return 0.0;
  std::vector<int64_t> pred = ArgMaxRows(logits);
  int64_t hits = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (pred[i] == labels[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(labels.size());
}

}  // namespace dlsys
