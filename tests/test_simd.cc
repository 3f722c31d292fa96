// Tests for the SIMD microkernel backend (src/simd): dispatch registry
// behavior, bit-parity of every per-ISA kernel table against the scalar
// reference at thread counts 1/2/8 on unaligned/tail shapes, block
// quantization round-trip error bounds (q8 and q4), the q4 nibble packing
// layout, and the kernel.dispatch.* observability counters.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/compress/quantization.h"
#include "src/core/rng.h"
#include "src/obs/counters.h"
#include "src/runtime/runtime.h"
#include "src/simd/dispatch.h"
#include "src/simd/kernels.h"
#include "src/tensor/int8_gemm.h"
#include "src/tensor/ops.h"

namespace dlsys {
namespace {

/// Restores the ISA active at construction; tests force ISAs freely and
/// leave the process the way they found it (the binary may have been
/// launched under a DLSYS_ISA override that later tests rely on).
struct IsaRestore {
  simd::Isa prev = simd::ActiveIsa();
  ~IsaRestore() { simd::SetIsa(prev); }
};

std::vector<simd::Isa> SupportedIsas() {
  std::vector<simd::Isa> out;
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (simd::IsaSupported(isa)) out.push_back(isa);
  }
  return out;
}

bool BitwiseEqual(const float* a, const float* b, int64_t count) {
  return std::memcmp(a, b, static_cast<size_t>(count) * sizeof(float)) == 0;
}

// Deliberately awkward GEMM extents: nothing is a multiple of the 4/8/16/32
// vector and tile widths, so every SIMD kernel's row-tail, column-tail, and
// reduction-tail paths execute alongside the full-tile fast path.
struct GemmShape {
  int64_t m, k, n;
};
const GemmShape kTailShapes[] = {
    {1, 1, 1}, {3, 7, 5}, {5, 31, 17}, {7, 33, 33}, {13, 65, 47}, {33, 96, 80},
};

TEST(DispatchTest, ParseIsaSpellings) {
  simd::Isa isa;
  EXPECT_TRUE(simd::ParseIsa("scalar", &isa));
  EXPECT_EQ(isa, simd::Isa::kScalar);
  EXPECT_TRUE(simd::ParseIsa("avx2", &isa));
  EXPECT_EQ(isa, simd::Isa::kAvx2);
  EXPECT_TRUE(simd::ParseIsa("avx512", &isa));
  EXPECT_EQ(isa, simd::Isa::kAvx512);
  EXPECT_FALSE(simd::ParseIsa("sse9", &isa));
  EXPECT_FALSE(simd::ParseIsa("", &isa));
}

TEST(DispatchTest, ScalarAlwaysSupportedAndComplete) {
  EXPECT_TRUE(simd::IsaSupported(simd::Isa::kScalar));
  const simd::KernelTable* table = simd::GetScalarTable();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->isa, simd::Isa::kScalar);
  EXPECT_NE(table->matmul_range, nullptr);
  EXPECT_NE(table->matmul_ta_range, nullptr);
  EXPECT_NE(table->matmul_tb_range, nullptr);
  EXPECT_NE(table->conv_gemm_bias_cols, nullptr);
  EXPECT_NE(table->q8_gemm_rows, nullptr);
  EXPECT_NE(table->q4_gemm_rows, nullptr);
}

TEST(DispatchTest, SetIsaSelectsMatchingTable) {
  IsaRestore restore;
  for (simd::Isa isa : SupportedIsas()) {
    simd::SetIsa(isa);
    EXPECT_EQ(simd::ActiveIsa(), isa);
    const simd::KernelTable& table = simd::ActiveKernels();
    EXPECT_EQ(table.isa, isa);
    EXPECT_EQ(std::string(table.span_cat),
              std::string("kernel.") + simd::IsaName(isa));
  }
}

TEST(DispatchTest, BestSupportedIsaIsSupported) {
  EXPECT_TRUE(simd::IsaSupported(simd::BestSupportedIsa()));
}

#if DLSYS_OBS
TEST(DispatchTest, KernelLaunchesBumpDispatchCounters) {
  IsaRestore restore;
  Rng rng(31);
  Tensor a({4, 9}), b({9, 5});
  a.FillGaussian(&rng, 1.0f);
  b.FillGaussian(&rng, 1.0f);
  for (simd::Isa isa : SupportedIsas()) {
    simd::SetIsa(isa);
    const std::string name = std::string("kernel.dispatch.") +
                             simd::IsaName(isa);
    auto before = obs::CounterRegistry::Global().SnapshotCounters();
    Tensor c = MatMul(a, b);
    ASSERT_GT(c.size(), 0);
    auto after = obs::CounterRegistry::Global().SnapshotCounters();
    auto diff = obs::CounterRegistry::Diff(after, before);
    EXPECT_GE(diff[name], 1) << name;
  }
}
#endif  // DLSYS_OBS

// ------------------------------------------------- fp32 bit-parity matrix

TEST(SimdParityTest, FloatGemmBitwiseAcrossIsasAndThreads) {
  IsaRestore restore;
  Rng rng(32);
  for (const GemmShape& s : kTailShapes) {
    Tensor a({s.m, s.k}), b({s.k, s.n});
    a.FillGaussian(&rng, 1.0f);
    b.FillGaussian(&rng, 1.0f);
    Tensor at = Transpose(a);  // (k, m) for MatMulTransA
    Tensor bt = Transpose(b);  // (n, k) for MatMulTransB

    const Tensor ref = NaiveMatMul(a, b);
    const Tensor ref_ta = NaiveMatMulTransA(at, b);
    const Tensor ref_tb = NaiveMatMulTransB(a, bt);

    for (simd::Isa isa : SupportedIsas()) {
      simd::SetIsa(isa);
      for (int threads : {1, 2, 8}) {
        RuntimeConfig::SetThreads(threads);
        SCOPED_TRACE(std::string("isa=") + simd::IsaName(isa) +
                     " threads=" + std::to_string(threads) + " m=" +
                     std::to_string(s.m) + " k=" + std::to_string(s.k) +
                     " n=" + std::to_string(s.n));
        Tensor c = MatMul(a, b);
        EXPECT_TRUE(BitwiseEqual(c.data(), ref.data(), ref.size()));
        Tensor c_ta = MatMulTransA(at, b);
        EXPECT_TRUE(BitwiseEqual(c_ta.data(), ref_ta.data(), ref_ta.size()));
        Tensor c_tb = MatMulTransB(a, bt);
        EXPECT_TRUE(BitwiseEqual(c_tb.data(), ref_tb.data(), ref_tb.size()));
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

TEST(SimdParityTest, ConvGemmBiasBitwiseAcrossIsasAndThreads) {
  IsaRestore restore;
  Rng rng(33);
  for (const GemmShape& s : kTailShapes) {
    Tensor a({s.m, s.k}), bt({s.n, s.k}), bias({s.m});
    a.FillGaussian(&rng, 1.0f);
    bt.FillGaussian(&rng, 1.0f);
    bias.FillGaussian(&rng, 1.0f);

    // Reference: the scalar range kernel over the full column span.
    std::vector<float> ref(static_cast<size_t>(s.m * s.n));
    simd::ConvGemmBiasColsScalar(a.data(), bt.data(), bias.data(), ref.data(),
                                 s.m, s.k, s.n, 0, s.n);

    std::vector<float> c(static_cast<size_t>(s.m * s.n));
    for (simd::Isa isa : SupportedIsas()) {
      simd::SetIsa(isa);
      for (int threads : {1, 2, 8}) {
        RuntimeConfig::SetThreads(threads);
        SCOPED_TRACE(std::string("isa=") + simd::IsaName(isa) +
                     " threads=" + std::to_string(threads) + " m=" +
                     std::to_string(s.m) + " k=" + std::to_string(s.k) +
                     " n=" + std::to_string(s.n));
        std::fill(c.begin(), c.end(), -1.0f);  // stale data must be overwritten
        ConvGemmBiasInto(a.data(), bt.data(), bias.data(), c.data(), s.m, s.k,
                         s.n);
        EXPECT_TRUE(BitwiseEqual(c.data(), ref.data(), s.m * s.n));
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

TEST(SimdParityTest, MatMulBiasActBitwiseEqualsSeparatePasses) {
  // The fused-epilogue contract: MatMulBiasActInto must equal MatMulInto
  // followed by separate bias and relu output passes, bit for bit, at
  // every ISA and thread count — fusion may only remove stores/reloads,
  // never change a float operation. Gaussian data lands on both sides of
  // zero, so the relu branch takes both arms.
  IsaRestore restore;
  Rng rng(35);
  for (const GemmShape& s : kTailShapes) {
    Tensor a({s.m, s.k}), b({s.k, s.n}), bias({s.n});
    a.FillGaussian(&rng, 1.0f);
    b.FillGaussian(&rng, 1.0f);
    bias.FillGaussian(&rng, 1.0f);

    for (const bool relu : {false, true}) {
      // Reference: unfused pipeline on the scalar table, single thread.
      simd::SetIsa(simd::Isa::kScalar);
      RuntimeConfig::SetThreads(1);
      std::vector<float> ref(static_cast<size_t>(s.m * s.n));
      MatMulInto(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
      for (int64_t i = 0; i < s.m; ++i) {
        for (int64_t j = 0; j < s.n; ++j) {
          float& v = ref[static_cast<size_t>(i * s.n + j)];
          v += bias[j];
          if (relu) v = v > 0.0f ? v : 0.0f;
        }
      }
      std::vector<float> c(static_cast<size_t>(s.m * s.n));
      for (simd::Isa isa : SupportedIsas()) {
        simd::SetIsa(isa);
        for (int threads : {1, 2, 8}) {
          RuntimeConfig::SetThreads(threads);
          std::fill(c.begin(), c.end(), -1.0f);
          MatMulBiasActInto(a.data(), b.data(), bias.data(), c.data(), s.m,
                            s.k, s.n, relu);
          EXPECT_TRUE(BitwiseEqual(c.data(), ref.data(), s.m * s.n))
              << "isa=" << simd::IsaName(isa) << " threads=" << threads
              << " relu=" << relu << " m=" << s.m << " k=" << s.k
              << " n=" << s.n;
        }
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

TEST(SimdParityTest, ConvGemmBiasActBitwiseEqualsSeparateRelu) {
  IsaRestore restore;
  Rng rng(36);
  for (const GemmShape& s : kTailShapes) {
    Tensor a({s.m, s.k}), bt({s.n, s.k}), bias({s.m});
    a.FillGaussian(&rng, 1.0f);
    bt.FillGaussian(&rng, 1.0f);
    bias.FillGaussian(&rng, 1.0f);

    for (const bool relu : {false, true}) {
      simd::SetIsa(simd::Isa::kScalar);
      RuntimeConfig::SetThreads(1);
      std::vector<float> ref(static_cast<size_t>(s.m * s.n));
      ConvGemmBiasInto(a.data(), bt.data(), bias.data(), ref.data(), s.m,
                       s.k, s.n);
      if (relu) {
        for (float& v : ref) v = v > 0.0f ? v : 0.0f;
      }
      std::vector<float> c(static_cast<size_t>(s.m * s.n));
      for (simd::Isa isa : SupportedIsas()) {
        simd::SetIsa(isa);
        for (int threads : {1, 2, 8}) {
          RuntimeConfig::SetThreads(threads);
          std::fill(c.begin(), c.end(), -1.0f);
          ConvGemmBiasActInto(a.data(), bt.data(), bias.data(), c.data(),
                              s.m, s.k, s.n, relu);
          EXPECT_TRUE(BitwiseEqual(c.data(), ref.data(), s.m * s.n))
              << "isa=" << simd::IsaName(isa) << " threads=" << threads
              << " relu=" << relu << " m=" << s.m << " k=" << s.k
              << " n=" << s.n;
        }
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

// ---------------------------------------------- integer bit-exactness

TEST(SimdParityTest, BlockGemmBitExactAcrossIsasAndThreads) {
  IsaRestore restore;
  Rng rng(35);
  // K values straddling block boundaries: 1 and 33 exercise the zero-code
  // padding, 32/64/96 the exact multiples.
  for (int64_t k : {int64_t{1}, int64_t{32}, int64_t{33}, int64_t{64},
                    int64_t{96}}) {
    const int64_t m = 5, n = 17;
    Tensor x({m, k}), w({n, k});
    x.FillGaussian(&rng, 1.0f);
    w.FillGaussian(&rng, 0.5f);
    Q8BlockMatrix qa = Q8BlockQuantizeRows(x);
    Q8BlockMatrix qb8 = Q8BlockQuantizeRows(w);
    Q4BlockMatrix qb4 = Q4BlockQuantizeRows(w);
    const int64_t kp = qa.padded_cols;
    ASSERT_EQ(kp, PadToQuantBlock(k));
    ASSERT_EQ(qb8.padded_cols, kp);
    ASSERT_EQ(qb4.padded_cols, kp);

    std::vector<float> ref8(static_cast<size_t>(m * n));
    std::vector<float> ref4(static_cast<size_t>(m * n));
    NaiveQ8BlockGemmTransBInto(qa.values.data(), qa.scales.data(),
                               qb8.values.data(), qb8.scales.data(),
                               ref8.data(), m, kp, n);
    NaiveQ4BlockGemmTransBInto(qa.values.data(), qa.scales.data(),
                               qb4.values.data(), qb4.scales.data(),
                               ref4.data(), m, kp, n);

    std::vector<float> c(static_cast<size_t>(m * n));
    for (simd::Isa isa : SupportedIsas()) {
      simd::SetIsa(isa);
      for (int threads : {1, 2, 8}) {
        RuntimeConfig::SetThreads(threads);
        SCOPED_TRACE(std::string("isa=") + simd::IsaName(isa) +
                     " threads=" + std::to_string(threads) +
                     " k=" + std::to_string(k));
        std::fill(c.begin(), c.end(), -1.0f);
        Q8BlockGemmTransBInto(qa.values.data(), qa.scales.data(),
                              qb8.values.data(), qb8.scales.data(), c.data(),
                              m, kp, n);
        EXPECT_TRUE(BitwiseEqual(c.data(), ref8.data(), m * n));
        std::fill(c.begin(), c.end(), -1.0f);
        Q4BlockGemmTransBInto(qa.values.data(), qa.scales.data(),
                              qb4.values.data(), qb4.scales.data(), c.data(),
                              m, kp, n);
        EXPECT_TRUE(BitwiseEqual(c.data(), ref4.data(), m * n));
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

// ------------------------------------------- block quantization formats

TEST(BlockQuantTest, Q8RoundTripWithinHalfScale) {
  Rng rng(36);
  const int64_t rows = 7, cols = 75;  // pads to 96
  Tensor x({rows, cols});
  x.FillGaussian(&rng, 2.0f);
  Q8BlockMatrix q = Q8BlockQuantizeRows(x);
  EXPECT_EQ(q.rows, rows);
  EXPECT_EQ(q.cols, cols);
  EXPECT_EQ(q.padded_cols, PadToQuantBlock(cols));
  Tensor deq = q.Dequantize();
  ASSERT_EQ(deq.dim(0), rows);
  ASSERT_EQ(deq.dim(1), cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      const float scale =
          q.scales[static_cast<size_t>(i * (q.padded_cols / kQuantBlock) +
                                       j / kQuantBlock)];
      EXPECT_LE(std::abs(x[i * cols + j] - deq[i * cols + j]),
                0.5f * scale + 1e-7f)
          << "row " << i << " col " << j;
    }
  }
  // Padding codes are zero so they contribute exactly nothing to a dot.
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = cols; j < q.padded_cols; ++j) {
      EXPECT_EQ(q.values[static_cast<size_t>(i * q.padded_cols + j)], 0);
    }
  }
}

TEST(BlockQuantTest, Q4RoundTripWithinHalfScale) {
  Rng rng(37);
  const int64_t rows = 5, cols = 40;  // pads to 64
  Tensor x({rows, cols});
  x.FillGaussian(&rng, 1.0f);
  Q4BlockMatrix q = Q4BlockQuantizeRows(x);
  Tensor deq = q.Dequantize();
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      const float scale =
          q.scales[static_cast<size_t>(i * (q.padded_cols / kQuantBlock) +
                                       j / kQuantBlock)];
      EXPECT_LE(std::abs(x[i * cols + j] - deq[i * cols + j]),
                0.5f * scale + 1e-7f)
          << "row " << i << " col " << j;
    }
  }
  // q4 halves the weight bytes again vs q8 (16 bytes per 32-element block).
  EXPECT_EQ(static_cast<int64_t>(q.values.size()),
            rows * q.padded_cols / 2);
}

TEST(BlockQuantTest, ZeroBlockQuantizesExactly) {
  Tensor x({1, 64});  // two blocks, all zeros
  Q8BlockMatrix q8 = Q8BlockQuantizeRows(x);
  Q4BlockMatrix q4 = Q4BlockQuantizeRows(x);
  Tensor d8 = q8.Dequantize();
  Tensor d4 = q4.Dequantize();
  for (int64_t j = 0; j < 64; ++j) {
    EXPECT_EQ(d8[j], 0.0f);
    EXPECT_EQ(d4[j], 0.0f);
  }
}

TEST(BlockQuantTest, Q4NibbleLayoutMatchesContract) {
  // Verify the documented packing directly against Dequantize: byte t of a
  // block holds element t in the low nibble and element 16+t in the high
  // nibble, stored code = q + 8.
  Rng rng(38);
  Tensor x({1, 32});
  x.FillGaussian(&rng, 1.0f);
  Q4BlockMatrix q = Q4BlockQuantizeRows(x);
  Tensor deq = q.Dequantize();
  const float scale = q.scales[0];
  for (int t = 0; t < 16; ++t) {
    const uint8_t byte = q.values[static_cast<size_t>(t)];
    const int lo = static_cast<int>(byte & 0x0F) - 8;
    const int hi = static_cast<int>(byte >> 4) - 8;
    EXPECT_GE(lo, -7);  // quantizer emits [-7, 7]; -8 is never produced
    EXPECT_LE(lo, 7);
    EXPECT_GE(hi, -7);
    EXPECT_LE(hi, 7);
    EXPECT_EQ(deq[t], static_cast<float>(lo) * scale);
    EXPECT_EQ(deq[16 + t], static_cast<float>(hi) * scale);
  }
}

TEST(BlockQuantTest, QuantizeRowsIntoMatchesAllocatingPath) {
  Rng rng(39);
  const int64_t rows = 6, cols = 33;
  Tensor x({rows, cols});
  x.FillGaussian(&rng, 1.5f);
  Q8BlockMatrix ref = Q8BlockQuantizeRows(x);
  const int64_t kp = ref.padded_cols;
  std::vector<int8_t> vals(static_cast<size_t>(rows * kp), 42);
  std::vector<float> scales(static_cast<size_t>(rows * kp / kQuantBlock),
                            -1.0f);
  Q8BlockQuantizeRowsInto(x.data(), rows, cols, vals.data(), scales.data());
  EXPECT_EQ(std::memcmp(vals.data(), ref.values.data(), vals.size()), 0);
  EXPECT_EQ(std::memcmp(scales.data(), ref.scales.data(),
                        scales.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace dlsys
