// Tests for the SIMD microkernel backend (src/simd): dispatch registry
// behavior, bit-parity of every per-ISA kernel table against the scalar
// reference at thread counts 1/2/8 on unaligned/tail shapes and at the
// cache-blocked loops' k-block, panel and tile boundaries, block
// quantization round-trip error bounds (q8 and q4), the q4 nibble packing
// layout, and the kernel.dispatch.* observability counters.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
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

// ------------------------------------- cache-blocked loop boundaries
//
// The fp32 row-range bodies split k into blocks of kPanelKc rows and copy
// each block of a B column panel once per range; the q8/q4 bodies run
// 4-row x 8-column tiles. These cases sit on and around every boundary of
// those loops and compare bit for bit with the scalar bodies, with C
// pre-filled with garbage (every body must overwrite its rows).

constexpr int64_t kPanelKc = 256;  // k rows per packed panel block

/// A NaN with a payload no kernel produces: any element a body failed to
/// write (or accumulated into) keeps or propagates it.
float Garbage() {
  const uint32_t bits = 0x7fc0beefu;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// The row-range entries under test, called through ParallelFor with the
/// same row grain the public entry points use.
void RunRows(int64_t m, const std::function<void(int64_t, int64_t)>& body) {
  ParallelFor(0, m, 8, [&](int64_t i0, int64_t i1) { body(i0, i1); });
}

TEST(SimdParityTest, FloatPanelBoundariesBitwiseOnGarbageC) {
  IsaRestore restore;
  Rng rng(40);
  const int64_t kMs[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33};
  const int64_t kNs[] = {1, 10, 15, 16, 17, 31, 32, 33, 64, 100};
  const int64_t kKs[] = {0, 1, kPanelKc - 1, kPanelKc, kPanelKc + 1,
                         2 * kPanelKc + 3};
  const std::vector<simd::Isa> isas = SupportedIsas();
  for (int64_t k : kKs) {
    for (int64_t m : kMs) {
      for (int64_t n : kNs) {
        Tensor a({m, k}), b({k, n}), bias({n});
        a.FillGaussian(&rng, 1.0f);
        b.FillGaussian(&rng, 1.0f);
        bias.FillGaussian(&rng, 1.0f);
        const Tensor at = Transpose(a);  // (k, m) for matmul_ta_range
        const std::string where = "m=" + std::to_string(m) +
                                  " k=" + std::to_string(k) +
                                  " n=" + std::to_string(n);

        // References: the scalar bodies over the whole range, on garbage.
        const size_t size = static_cast<size_t>(m * n);
        std::vector<float> ref(size, Garbage()), ref_ta(size, Garbage()),
            ref_ba(size, Garbage());
        simd::MatMulRangeScalar(a.data(), b.data(), ref.data(), 0, m, k, n);
        simd::MatMulTransARangeScalar(at.data(), b.data(), ref_ta.data(), 0,
                                      m, k, m, n);
        simd::MatMulBiasActRangeScalar(a.data(), b.data(), bias.data(),
                                       ref_ba.data(), 0, m, k, n, 1);
        const Tensor naive = NaiveMatMul(a, b);
        ASSERT_TRUE(BitwiseEqual(ref.data(), naive.data(), m * n)) << where;
        ASSERT_TRUE(BitwiseEqual(ref_ta.data(), naive.data(), m * n))
            << where;

        std::vector<float> c(size);
        for (simd::Isa isa : isas) {
          simd::SetIsa(isa);
          const simd::KernelTable& kt = simd::ActiveKernels();
          for (int threads : {1, 2, 8}) {
            RuntimeConfig::SetThreads(threads);
            const std::string tag = std::string("isa=") +
                                    simd::IsaName(isa) + " threads=" +
                                    std::to_string(threads) + " " + where;
            std::fill(c.begin(), c.end(), Garbage());
            MatMulInto(a.data(), b.data(), c.data(), m, k, n);
            EXPECT_TRUE(BitwiseEqual(c.data(), ref.data(), m * n)) << tag;
            std::fill(c.begin(), c.end(), Garbage());
            RunRows(m, [&](int64_t i0, int64_t i1) {
              kt.matmul_ta_range(at.data(), b.data(), c.data(), i0, i1, k, m,
                                 n);
            });
            EXPECT_TRUE(BitwiseEqual(c.data(), ref_ta.data(), m * n)) << tag;
            std::fill(c.begin(), c.end(), Garbage());
            MatMulBiasActInto(a.data(), b.data(), bias.data(), c.data(), m, k,
                              n, /*relu=*/true);
            EXPECT_TRUE(BitwiseEqual(c.data(), ref_ba.data(), m * n)) << tag;
          }
        }
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

/// Random q8 activations/weights over the full int8 range (-128 included)
/// and positive scales, plus the nibble-packed q4 form of the same shape.
struct BlockOperands {
  int64_t m, kp, n;
  std::vector<int8_t> a, b8;
  std::vector<uint8_t> b4;
  std::vector<float> a_scales, b_scales;

  BlockOperands(int64_t m_, int64_t kp_, int64_t n_, Rng* rng)
      : m(m_), kp(kp_), n(n_) {
    const int64_t nb = kp / kQuantBlock;
    a.resize(static_cast<size_t>(m * kp));
    b8.resize(static_cast<size_t>(n * kp));
    b4.resize(static_cast<size_t>(n * kp / 2));
    a_scales.resize(static_cast<size_t>(m * nb));
    b_scales.resize(static_cast<size_t>(n * nb));
    for (int8_t& v : a) v = static_cast<int8_t>(rng->Index(256) - 128);
    for (int8_t& v : b8) v = static_cast<int8_t>(rng->Index(256) - 128);
    for (uint8_t& v : b4) v = static_cast<uint8_t>(rng->Index(256));
    for (float& v : a_scales) v = static_cast<float>(rng->Uniform(1e-3, 1.0));
    for (float& v : b_scales) v = static_cast<float>(rng->Uniform(1e-3, 1.0));
  }
};

TEST(SimdParityTest, BlockTileBoundariesBitExactOnGarbageC) {
  IsaRestore restore;
  Rng rng(41);
  const std::vector<simd::Isa> isas = SupportedIsas();
  for (int64_t kp : {int64_t{32}, int64_t{256}, int64_t{1056}}) {
    for (int64_t m : {int64_t{1}, int64_t{3}, int64_t{6}, int64_t{13}}) {
      for (int64_t n : {int64_t{1}, int64_t{7}, int64_t{13}, int64_t{42}}) {
        BlockOperands op(m, kp, n, &rng);
        const size_t size = static_cast<size_t>(m * n);
        std::vector<float> ref8(size, Garbage()), ref4(size, Garbage());
        simd::Q8GemmRowsScalar(op.a.data(), op.a_scales.data(), op.b8.data(),
                               op.b_scales.data(), ref8.data(), 0, m, kp, n);
        simd::Q4GemmRowsScalar(op.a.data(), op.a_scales.data(), op.b4.data(),
                               op.b_scales.data(), ref4.data(), 0, m, kp, n);
        std::vector<float> c(size);
        for (simd::Isa isa : isas) {
          simd::SetIsa(isa);
          for (int threads : {1, 2, 8}) {
            RuntimeConfig::SetThreads(threads);
            SCOPED_TRACE(std::string("isa=") + simd::IsaName(isa) +
                         " threads=" + std::to_string(threads) +
                         " m=" + std::to_string(m) + " kp=" +
                         std::to_string(kp) + " n=" + std::to_string(n));
            std::fill(c.begin(), c.end(), Garbage());
            Q8BlockGemmTransBInto(op.a.data(), op.a_scales.data(),
                                  op.b8.data(), op.b_scales.data(), c.data(),
                                  m, kp, n);
            EXPECT_TRUE(BitwiseEqual(c.data(), ref8.data(), m * n));
            std::fill(c.begin(), c.end(), Garbage());
            Q4BlockGemmTransBInto(op.a.data(), op.a_scales.data(),
                                  op.b4.data(), op.b_scales.data(), c.data(),
                                  m, kp, n);
            EXPECT_TRUE(BitwiseEqual(c.data(), ref4.data(), m * n));
          }
        }
      }
    }
  }
  RuntimeConfig::SetThreads(1);
}

TEST(SimdParityTest, DirectRangeCallsWriteOnlyTheirRows) {
  // Unaligned row ranges called straight through each table: rows inside
  // [i0, i1) must equal the scalar body's, rows outside must keep their
  // sentinel bits. [3, 5) is the shortest AVX-512 panel range and runs
  // the scalar body on AVX2; [3, 12) and [3, 29) take the panel loop on
  // both, with row tails.
  IsaRestore restore;
  Rng rng(42);
  const int64_t m = 32, k = 2 * kPanelKc + 3, n = 41, kp = 288;
  Tensor a({m, k}), b({k, n}), bias({n});
  a.FillGaussian(&rng, 1.0f);
  b.FillGaussian(&rng, 1.0f);
  bias.FillGaussian(&rng, 1.0f);
  const Tensor at = Transpose(a);
  BlockOperands q(m, kp, n, &rng);
  const simd::KernelTable& scalar = *simd::GetScalarTable();

  using RangeCall = std::function<void(const simd::KernelTable&, float*,
                                       int64_t, int64_t)>;
  const std::vector<std::pair<std::string, RangeCall>> calls = {
      {"matmul_range",
       [&](const simd::KernelTable& kt, float* c, int64_t i0, int64_t i1) {
         kt.matmul_range(a.data(), b.data(), c, i0, i1, k, n);
       }},
      {"matmul_ta_range",
       [&](const simd::KernelTable& kt, float* c, int64_t i0, int64_t i1) {
         kt.matmul_ta_range(at.data(), b.data(), c, i0, i1, k, m, n);
       }},
      {"matmul_bias_act_range",
       [&](const simd::KernelTable& kt, float* c, int64_t i0, int64_t i1) {
         kt.matmul_bias_act_range(a.data(), b.data(), bias.data(), c, i0, i1,
                                  k, n, 0);
       }},
      {"q8_gemm_rows",
       [&](const simd::KernelTable& kt, float* c, int64_t i0, int64_t i1) {
         kt.q8_gemm_rows(q.a.data(), q.a_scales.data(), q.b8.data(),
                         q.b_scales.data(), c, i0, i1, kp, n);
       }},
      {"q4_gemm_rows",
       [&](const simd::KernelTable& kt, float* c, int64_t i0, int64_t i1) {
         kt.q4_gemm_rows(q.a.data(), q.a_scales.data(), q.b4.data(),
                         q.b_scales.data(), c, i0, i1, kp, n);
       }},
  };
  const size_t size = static_cast<size_t>(m * n);
  for (const auto& [name, call] : calls) {
    std::vector<float> ref(size, Garbage());
    call(scalar, ref.data(), 0, m);
    for (simd::Isa isa : SupportedIsas()) {
      simd::SetIsa(isa);
      for (const auto& [i0, i1] : {std::pair<int64_t, int64_t>{3, 5},
                                   std::pair<int64_t, int64_t>{3, 12},
                                   std::pair<int64_t, int64_t>{3, 29}}) {
        SCOPED_TRACE(name + " isa=" + simd::IsaName(isa) +
                     " rows=[" + std::to_string(i0) + "," +
                     std::to_string(i1) + ")");
        std::vector<float> c(size, Garbage());
        const std::vector<float> sentinel = c;
        call(simd::ActiveKernels(), c.data(), i0, i1);
        EXPECT_TRUE(BitwiseEqual(c.data(), sentinel.data(), i0 * n));
        EXPECT_TRUE(BitwiseEqual(c.data() + i0 * n, ref.data() + i0 * n,
                                 (i1 - i0) * n));
        EXPECT_TRUE(BitwiseEqual(c.data() + i1 * n, sentinel.data() + i1 * n,
                                 (m - i1) * n));
      }
    }
  }
}

TEST(SimdParityTest, ZeroActivationRowGivesPositiveZero) {
  // Every element's chain starts from +0.0. A zero A row against an
  // all-negative B (fp32) or negative B scales (q8/q4) makes every term
  // -0.0: +0.0 + -0.0 is +0.0, whereas a body that seeded its accumulator
  // with the first term would leave -0.0 behind.
  IsaRestore restore;
  Rng rng(43);
  const int64_t k = kPanelKc + 1, n = 37, kp = 288;
  for (int64_t m : {int64_t{3}, int64_t{20}}) {
    Tensor a({m, k}), b({k, n});
    a.FillGaussian(&rng, 1.0f);
    b.FillGaussian(&rng, 1.0f);
    for (int64_t t = 0; t < k * n; ++t) b[t] = -std::abs(b[t]);
    const int64_t zero_row = m - 2;
    for (int64_t p = 0; p < k; ++p) a[zero_row * k + p] = 0.0f;
    const Tensor at = Transpose(a);
    BlockOperands q(m, kp, n, &rng);
    std::fill(q.a.begin() + zero_row * kp, q.a.begin() + (zero_row + 1) * kp,
              int8_t{0});
    for (float& v : q.b_scales) v = -v;
    std::vector<float> c(static_cast<size_t>(m * n));
    for (simd::Isa isa : SupportedIsas()) {
      simd::SetIsa(isa);
      const simd::KernelTable& kt = simd::ActiveKernels();
      SCOPED_TRACE(std::string("isa=") + simd::IsaName(isa) +
                   " m=" + std::to_string(m));
      auto expect_positive_zero_row = [&](const char* what) {
        for (int64_t j = 0; j < n; ++j) {
          const float v = c[static_cast<size_t>(zero_row * n + j)];
          EXPECT_TRUE(v == 0.0f && !std::signbit(v)) << what << " col " << j;
        }
      };
      std::fill(c.begin(), c.end(), Garbage());
      kt.matmul_range(a.data(), b.data(), c.data(), 0, m, k, n);
      expect_positive_zero_row("matmul_range");
      std::fill(c.begin(), c.end(), Garbage());
      kt.matmul_ta_range(at.data(), b.data(), c.data(), 0, m, k, m, n);
      expect_positive_zero_row("matmul_ta_range");
      std::fill(c.begin(), c.end(), Garbage());
      kt.q8_gemm_rows(q.a.data(), q.a_scales.data(), q.b8.data(),
                      q.b_scales.data(), c.data(), 0, m, kp, n);
      expect_positive_zero_row("q8_gemm_rows");
      std::fill(c.begin(), c.end(), Garbage());
      kt.q4_gemm_rows(q.a.data(), q.a_scales.data(), q.b4.data(),
                      q.b_scales.data(), c.data(), 0, m, kp, n);
      expect_positive_zero_row("q4_gemm_rows");
    }
  }
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
