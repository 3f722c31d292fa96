// Tests for the SIMD microkernel backend (src/simd): dispatch registry
// behavior, bit-parity of every per-ISA kernel table against the scalar
// reference at thread counts 1/2/8 on unaligned/tail shapes and at the
// cache-blocked loops' k-block, panel and tile boundaries, block
// quantization round-trip error bounds (q8 and q4), the q4 nibble packing
// layout, and the kernel.dispatch.* observability counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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
#include "tests/block_gemm_reference.h"

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
  const simd::KernelTable* scalar = simd::GetScalarTable();
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->isa, simd::Isa::kScalar);
  // Every registered table fills all six entries.
  IsaRestore restore;
  for (simd::Isa isa : SupportedIsas()) {
    simd::SetIsa(isa);
    const simd::KernelTable& table = simd::ActiveKernels();
    SCOPED_TRACE(simd::IsaName(isa));
    EXPECT_NE(table.matmul_range, nullptr);
    EXPECT_NE(table.matmul_ta_range, nullptr);
    EXPECT_NE(table.dot_gemm_range, nullptr);
    EXPECT_NE(table.q8_gemm_rows, nullptr);
    EXPECT_NE(table.q4_gemm_rows, nullptr);
    EXPECT_NE(table.matmul_bias_act_range, nullptr);
  }
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

    // Reference: the scalar dot-GEMM body over the whole output.
    std::vector<float> ref(static_cast<size_t>(s.m * s.n));
    simd::GetScalarTable()->dot_gemm_range(a.data(), bt.data(), bias.data(),
                                           ref.data(), 0, s.m, 0, s.n, s.k,
                                           s.n, 0);

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
        ConvGemmBiasActInto(a.data(), bt.data(), bias.data(), c.data(), s.m,
                            s.k, s.n, /*relu=*/false);
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
      ConvGemmBiasActInto(a.data(), bt.data(), bias.data(), ref.data(), s.m,
                          s.k, s.n, /*relu=*/false);
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
// each block of a B column panel once per range; the dot-GEMM bodies step
// 4 or 8 columns at a time; the q8/q4 bodies run 4-row x 8-column tiles.
// These cases sit on and around every boundary of those loops and compare
// bit for bit with the scalar bodies, with C pre-filled with garbage
// (every body must overwrite its range).

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

/// Column-partitioned calls, as the conv GEMM makes them, at a finer grain
/// than its 64 so that unaligned column boundaries fall inside these
/// small shapes.
void RunCols(int64_t n, const std::function<void(int64_t, int64_t)>& body) {
  ParallelFor(0, n, 8, [&](int64_t j0, int64_t j1) { body(j0, j1); });
}

TEST(SimdParityTest, FloatPanelBoundariesBitwiseOnGarbageC) {
  IsaRestore restore;
  Rng rng(40);
  Rng row_rng(44);  // a stream of its own keeps the other operands as before
  const int64_t kMs[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33};
  const int64_t kNs[] = {1, 10, 15, 16, 17, 31, 32, 33, 64, 100};
  const int64_t kKs[] = {0, 1, kPanelKc - 1, kPanelKc, kPanelKc + 1,
                         2 * kPanelKc + 3};
  const std::vector<simd::Isa> isas = SupportedIsas();
  for (int64_t k : kKs) {
    for (int64_t m : kMs) {
      for (int64_t n : kNs) {
        Tensor a({m, k}), b({k, n}), bias({n}), row_bias({m});
        a.FillGaussian(&rng, 1.0f);
        b.FillGaussian(&rng, 1.0f);
        bias.FillGaussian(&rng, 1.0f);
        row_bias.FillGaussian(&row_rng, 1.0f);
        const Tensor at = Transpose(a);  // (k, m) for matmul_ta_range
        const Tensor bt = Transpose(b);  // (n, k) for dot_gemm_range
        const std::string where = "m=" + std::to_string(m) +
                                  " k=" + std::to_string(k) +
                                  " n=" + std::to_string(n);

        // References: the scalar bodies over the whole range, on garbage.
        // The fused ones finish with separate bias and relu passes written
        // here, so they do not share the kernels' epilogue.
        const size_t size = static_cast<size_t>(m * n);
        const simd::KernelTable& scalar = *simd::GetScalarTable();
        std::vector<float> ref(size, Garbage()), ref_ta(size, Garbage()),
            ref_tb(size, Garbage()), ref_conv(size, Garbage());
        simd::MatMulRangeScalar(a.data(), b.data(), ref.data(), 0, m, k, n);
        simd::MatMulTransARangeScalar(at.data(), b.data(), ref_ta.data(), 0,
                                      m, k, m, n);
        scalar.dot_gemm_range(a.data(), bt.data(), nullptr, ref_tb.data(), 0,
                              m, 0, n, k, n, 0);
        scalar.dot_gemm_range(a.data(), bt.data(), row_bias.data(),
                              ref_conv.data(), 0, m, 0, n, k, n, 0);
        std::vector<float> ref_ba = ref;
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            float& v = ref_ba[static_cast<size_t>(i * n + j)];
            v += bias[j];
            v = v > 0.0f ? v : 0.0f;
          }
        }
        for (float& v : ref_conv) v = v > 0.0f ? v : 0.0f;
        const Tensor naive = NaiveMatMul(a, b);
        ASSERT_TRUE(BitwiseEqual(ref.data(), naive.data(), m * n)) << where;
        ASSERT_TRUE(BitwiseEqual(ref_ta.data(), naive.data(), m * n))
            << where;
        const Tensor naive_tb = NaiveMatMulTransB(a, bt);
        ASSERT_TRUE(BitwiseEqual(ref_tb.data(), naive_tb.data(), m * n))
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
            std::fill(c.begin(), c.end(), Garbage());
            RunRows(m, [&](int64_t i0, int64_t i1) {
              kt.dot_gemm_range(a.data(), bt.data(), nullptr, c.data(), i0,
                                i1, 0, n, k, n, 0);
            });
            EXPECT_TRUE(BitwiseEqual(c.data(), ref_tb.data(), m * n)) << tag;
            std::fill(c.begin(), c.end(), Garbage());
            RunCols(n, [&](int64_t j0, int64_t j1) {
              kt.dot_gemm_range(a.data(), bt.data(), row_bias.data(),
                                c.data(), 0, m, j0, j1, k, n, 1);
            });
            EXPECT_TRUE(BitwiseEqual(c.data(), ref_conv.data(), m * n))
                << tag;
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
  // both, with row tails. The dot-GEMM entry is also called
  // column-partitioned, as the conv GEMM calls it, with a bias and relu:
  // there the columns outside [j0, j1) must keep their sentinel bits.
  IsaRestore restore;
  Rng rng(42);
  const int64_t m = 32, k = 2 * kPanelKc + 3, n = 41, kp = 288;
  Tensor a({m, k}), b({k, n}), bias({n}), row_bias({m});
  a.FillGaussian(&rng, 1.0f);
  b.FillGaussian(&rng, 1.0f);
  bias.FillGaussian(&rng, 1.0f);
  const Tensor at = Transpose(a);
  const Tensor bt = Transpose(b);
  BlockOperands q(m, kp, n, &rng);
  row_bias.FillGaussian(&rng, 1.0f);
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
      {"dot_gemm_range",
       [&](const simd::KernelTable& kt, float* c, int64_t i0, int64_t i1) {
         kt.dot_gemm_range(a.data(), bt.data(), nullptr, c, i0, i1, 0, n, k,
                           n, 0);
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

  std::vector<float> ref(size, Garbage());
  scalar.dot_gemm_range(a.data(), bt.data(), row_bias.data(), ref.data(), 0,
                        m, 0, n, k, n, 1);
  for (simd::Isa isa : SupportedIsas()) {
    simd::SetIsa(isa);
    for (const auto& [j0, j1] : {std::pair<int64_t, int64_t>{3, 5},
                                 std::pair<int64_t, int64_t>{3, 12},
                                 std::pair<int64_t, int64_t>{3, 29}}) {
      SCOPED_TRACE(std::string("dot_gemm_range isa=") + simd::IsaName(isa) +
                   " cols=[" + std::to_string(j0) + "," +
                   std::to_string(j1) + ")");
      std::vector<float> c(size, Garbage());
      const std::vector<float> sentinel = c;
      simd::ActiveKernels().dot_gemm_range(a.data(), bt.data(),
                                           row_bias.data(), c.data(), 0, m,
                                           j0, j1, k, n, 1);
      for (int64_t i = 0; i < m; ++i) {
        const int64_t row = i * n;
        EXPECT_TRUE(BitwiseEqual(c.data() + row, sentinel.data() + row, j0))
            << "row " << i;
        EXPECT_TRUE(BitwiseEqual(c.data() + row + j0, ref.data() + row + j0,
                                 j1 - j0))
            << "row " << i;
        EXPECT_TRUE(BitwiseEqual(c.data() + row + j1,
                                 sentinel.data() + row + j1, n - j1))
            << "row " << i;
      }
    }
  }
}

TEST(SimdParityTest, ZeroActivationRowGivesPositiveZero) {
  // Every element's chain starts from +0.0. A zero A row against an
  // all-negative B (fp32) or negative B scales (q8/q4) makes every term
  // -0.0: +0.0 + -0.0 is +0.0, whereas a body that seeded its accumulator
  // with the first term would leave -0.0 behind. The dot-GEMM entry is
  // checked twice: row-partitioned with a null bias (the chain's +0.0
  // start), and column-partitioned with a -0.0 bias on the zero row and
  // relu on, where only the relu turns the row's -0.0 sums into +0.0.
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
    const Tensor bt = Transpose(b);
    Tensor row_bias({m});
    for (int64_t i = 0; i < m; ++i) row_bias[i] = i == zero_row ? -0.0f : 1.0f;
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
      RunRows(m, [&](int64_t i0, int64_t i1) {
        kt.dot_gemm_range(a.data(), bt.data(), nullptr, c.data(), i0, i1, 0,
                          n, k, n, 0);
      });
      expect_positive_zero_row("dot_gemm_range rows");
      std::fill(c.begin(), c.end(), Garbage());
      RunCols(n, [&](int64_t j0, int64_t j1) {
        kt.dot_gemm_range(a.data(), bt.data(), row_bias.data(), c.data(), 0,
                          m, j0, j1, k, n, 1);
      });
      expect_positive_zero_row("dot_gemm_range cols, relu");
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


// ------------------------------------- exact codes vs an lround reference

/// The block quantizers' contract written the plainest way: per block,
/// a sequential NaN-skipping max|x| from 0, s = max / lim (1 for an
/// all-zero block), then per element std::lround(x * (1 / s)) clamped to
/// [-lim, lim]. lround's out-of-range results (NaN, ±inf, |y| >= 2^63)
/// are whatever this platform's libm returns, so the reference pins the
/// library to today's platform behaviour rather than to a hand-written
/// rule. Pad elements get code 0.
void RefBlockQuantizeRow(const float* row, int64_t cols, long lim, int* q,
                         float* scales) {
  const int64_t kp = PadToQuantBlock(cols);
  for (int64_t b = 0; b < kp / kQuantBlock; ++b) {
    const int64_t j0 = b * kQuantBlock;
    float maxabs = 0.0f;
    for (int64_t j = j0; j < std::min(j0 + kQuantBlock, cols); ++j) {
      const float a = std::abs(row[j]);
      if (a > maxabs) maxabs = a;
    }
    const float scale =
        maxabs > 0.0f ? maxabs / static_cast<float>(lim) : 1.0f;
    const float inv = 1.0f / scale;
    scales[b] = scale;
    for (int64_t j = j0; j < j0 + kQuantBlock; ++j) {
      q[j] = j < cols ? static_cast<int>(std::clamp(
                            std::lround(row[j] * inv), -lim, lim))
                      : 0;
    }
  }
}

/// Expects the three block quantizers (q8 single-row and row-parallel,
/// q4 row-parallel with its nibble layout) to produce exactly the
/// reference's codes and bit-identical scales on the rows x cols matrix
/// \p x. Fills the outputs with garbage first, so every byte is checked.
void ExpectCodesMatchReference(const std::vector<float>& x, int64_t rows,
                               int64_t cols, const std::string& what) {
  const int64_t kp = PadToQuantBlock(cols);
  const int64_t nb = kp / kQuantBlock;
  std::vector<int> q8(static_cast<size_t>(rows * kp));
  std::vector<int> q4(static_cast<size_t>(rows * kp));
  std::vector<float> s8(static_cast<size_t>(rows * nb));
  std::vector<float> s4(static_cast<size_t>(rows * nb));
  for (int64_t i = 0; i < rows; ++i) {
    RefBlockQuantizeRow(x.data() + i * cols, cols, 127, q8.data() + i * kp,
                        s8.data() + i * nb);
    RefBlockQuantizeRow(x.data() + i * cols, cols, 7, q4.data() + i * kp,
                        s4.data() + i * nb);
  }
  std::vector<int8_t> v8(static_cast<size_t>(rows * kp), 99);
  std::vector<float> got_s8(s8.size(), -3.0f);
  Q8BlockQuantizeRowsInto(x.data(), rows, cols, v8.data(), got_s8.data());
  std::vector<int8_t> row8(static_cast<size_t>(rows * kp), 99);
  std::vector<float> row_s8(s8.size(), -3.0f);
  for (int64_t i = 0; i < rows; ++i) {
    Q8BlockQuantizeRowInto(x.data() + i * cols, cols, row8.data() + i * kp,
                           row_s8.data() + i * nb);
  }
  std::vector<uint8_t> v4(static_cast<size_t>(rows * kp / 2), 0xA5);
  std::vector<float> got_s4(s4.size(), -3.0f);
  Q4BlockQuantizeRowsInto(x.data(), rows, cols, v4.data(), got_s4.data());

  EXPECT_TRUE(BitwiseEqual(got_s8.data(), s8.data(), rows * nb)) << what;
  EXPECT_TRUE(BitwiseEqual(row_s8.data(), s8.data(), rows * nb)) << what;
  EXPECT_TRUE(BitwiseEqual(got_s4.data(), s4.data(), rows * nb)) << what;
  int64_t bad = 0;
  for (int64_t e = 0; e < rows * kp && bad < 5; ++e) {
    const size_t u = static_cast<size_t>(e);
    const int64_t i = e / kp, j = e % kp;
    const float xv = j < cols ? x[static_cast<size_t>(i * cols + j)] : 0.0f;
    if (v8[u] != q8[u] || row8[u] != q8[u]) {
      ++bad;
      ADD_FAILURE() << what << ": q8 code at (" << i << ", " << j
                    << ") x=" << xv << " want " << q8[u] << " rows-into "
                    << int{v8[u]} << " row-into " << int{row8[u]};
    }
    // Nibble layout: byte t of a block holds element t (low nibble) and
    // element 16 + t (high nibble) as code q + 8.
    const int64_t b = j / kQuantBlock, t = j % kQuantBlock;
    const uint8_t byte =
        v4[static_cast<size_t>(i * kp / 2 + b * 16 + t % 16)];
    const int nib = t < 16 ? (byte & 0x0F) : (byte >> 4);
    if (nib != q4[u] + 8) {
      ++bad;
      ADD_FAILURE() << what << ": q4 code at (" << i << ", " << j
                    << ") x=" << xv << " want " << q4[u] << " got "
                    << nib - 8;
    }
  }
}

TEST(BlockQuantTest, CodesMatchLroundReferenceOnRandomizedRows) {
  Rng rng(41);
  const float kSpecials[] = {0.0f,
                             -0.0f,
                             std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);
    for (int64_t cols : {int64_t{1}, int64_t{31}, int64_t{33}, int64_t{75},
                         int64_t{1024}}) {
      const int64_t rows = 9;
      std::vector<float> x(static_cast<size_t>(rows * cols));
      for (int64_t i = 0; i < rows; ++i) {
        // Per-row magnitude 1e-6 .. 1e6; rows 6-8 also carry ±0, NaN
        // and ±inf at random positions.
        const double mag = std::pow(10.0, rng.Uniform(-6.0, 6.0));
        for (int64_t j = 0; j < cols; ++j) {
          x[static_cast<size_t>(i * cols + j)] =
              static_cast<float>(rng.Gaussian() * mag);
        }
        if (i >= 6) {
          for (int s = 0; s < 3; ++s) {
            x[static_cast<size_t>(i * cols) + rng.Index(cols)] =
                kSpecials[rng.Index(5)];
          }
        }
      }
      ExpectCodesMatchReference(x, rows, cols,
                                "threads " + std::to_string(threads) +
                                    " cols " + std::to_string(cols));
    }
  }
  RuntimeConfig::SetThreads(1);
}

TEST(BlockQuantTest, CodesPinnedOnTiesSpecialsAndSubnormalBlocks) {
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const float kTiny = std::numeric_limits<float>::denorm_min();
  for (long lim : {127L, 7L}) {
    const float fl = static_cast<float>(lim);
    // Row 0: max |x| = lim, so s = 1 exactly and x is its own y: exact
    // ties round half away from zero.
    // Row 1: a NaN and ±0 in a finite block, then a block holding +inf.
    // Row 2: a block whose max |x| is subnormal (3 * denorm_min), so
    // max / lim underflows to s = 0 and 1 / s = inf.
    const int64_t cols = 64;
    std::vector<float> x(static_cast<size_t>(3 * cols), 0.0f);
    const float ties[] = {fl, 0.5f, -0.5f, 1.5f, -2.5f, 2.5f, -1.5f};
    std::copy(std::begin(ties), std::end(ties), x.begin());
    float* r1 = x.data() + cols;
    r1[0] = fl;
    r1[1] = kNaN;
    r1[2] = -0.0f;
    r1[3] = -fl;
    r1[32] = kInf;
    r1[33] = -3.0f;
    r1[34] = 2.0f;
    float* r2 = x.data() + 2 * cols;
    r2[0] = 3 * kTiny;
    r2[1] = -2 * kTiny;
    r2[2] = kTiny;
    ExpectCodesMatchReference(x, 3, cols, "lim " + std::to_string(lim));

    // The same codes, spelled out.
    std::vector<int8_t> v8(static_cast<size_t>(3 * cols));
    std::vector<float> s8(6);
    std::vector<uint8_t> v4(static_cast<size_t>(3 * cols / 2));
    std::vector<float> s4(6);
    Q8BlockQuantizeRowsInto(x.data(), 3, cols, v8.data(), s8.data());
    Q4BlockQuantizeRowsInto(x.data(), 3, cols, v4.data(), s4.data());
    auto code = [&](int64_t i, int64_t j) {
      if (lim == 127) return int{v8[static_cast<size_t>(i * cols + j)]};
      const uint8_t byte = v4[static_cast<size_t>(
          i * cols / 2 + (j / 32) * 16 + (j % 32) % 16)];
      return ((j % 32) < 16 ? (byte & 0x0F) : (byte >> 4)) - 8;
    };
    const float* s = lim == 127 ? s8.data() : s4.data();
    EXPECT_EQ(s[0], 1.0f);
    const int want_ties[] = {static_cast<int>(lim), 1, -1, 2, -3, 3, -2};
    for (int64_t j = 0; j < 7; ++j) {
      EXPECT_EQ(code(0, j), want_ties[j]) << "lim " << lim << " x=" << x[j];
    }
    EXPECT_EQ(code(1, 1), -lim) << "NaN";
    EXPECT_EQ(code(1, 2), 0) << "-0";
    EXPECT_EQ(code(1, 3), -lim);
    EXPECT_EQ(s[3], kInf);
    EXPECT_EQ(code(1, 32), -lim) << "+inf * (1 / inf) is NaN";
    EXPECT_EQ(code(1, 33), 0);
    EXPECT_EQ(code(1, 34), 0);
    EXPECT_EQ(code(1, 40), 0) << "zero in a block with s = inf";
    EXPECT_EQ(s[4], 0.0f);
    for (int64_t j = 0; j < 32; ++j) {
      EXPECT_EQ(code(2, j), -lim) << "subnormal block, j " << j;
    }
    EXPECT_EQ(s[5], 1.0f);  // all-zero block
  }
}

}  // namespace
}  // namespace dlsys
