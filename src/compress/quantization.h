#ifndef DLSYS_COMPRESS_QUANTIZATION_H_
#define DLSYS_COMPRESS_QUANTIZATION_H_

#include <cstdint>
#include <vector>

#include "src/core/rng.h"
#include "src/core/status.h"
#include "src/nn/sequential.h"
#include "src/tensor/tensor.h"

/// \file quantization.h
/// \brief Weight quantization (tutorial Section 2.1).
///
/// Quantization replaces float parameters with low-bit codes plus a
/// codebook. The codebook may be lossless in its effect on size only
/// (entropy/Huffman coding of the codes) or lossy (uniform fixed-point,
/// k-means, binary). This module implements all three families and
/// reports honest compressed byte sizes (codes + codebook).

namespace dlsys {

/// \brief How codewords are chosen.
enum class QuantizerKind {
  kUniform,  ///< evenly spaced levels over [min, max] (fixed-point style)
  kKMeans,   ///< Lloyd-optimized scalar codebook
  kBinary,   ///< one bit: sign(w) * mean(|w|), per tensor
};

/// \brief A tensor stored as per-element codes plus a codebook.
struct QuantizedTensor {
  Shape shape;
  int64_t bits = 8;                 ///< bits per code
  std::vector<uint32_t> codes;      ///< one code per element
  std::vector<float> codebook;      ///< 2^bits (or fewer) centroids
  /// True when the codebook is an affine grid (uniform/binary): such a
  /// codebook ships as just scale+offset (8 bytes), not a full table.
  bool affine_codebook = false;

  /// \brief Reconstructs the dense float tensor.
  Tensor Dequantize() const;
  /// \brief Raw storage cost: packed codes + float codebook.
  int64_t PackedBytes() const;
  /// \brief Storage cost if codes were Huffman coded (lossless entropy
  /// coding of the code stream) plus codebook and code-length table.
  int64_t HuffmanBytes() const;
};

/// \brief Quantizes \p t to \p bits using \p kind.
///
/// kBinary ignores \p bits (always 1). kKMeans runs Lloyd iterations
/// seeded from uniform levels. Returns InvalidArgument for bits outside
/// [1, 16].
Result<QuantizedTensor> Quantize(const Tensor& t, QuantizerKind kind,
                                 int64_t bits);

/// \brief Outcome of quantizing a whole network.
struct NetworkQuantization {
  int64_t original_bytes = 0;
  int64_t packed_bytes = 0;
  int64_t huffman_bytes = 0;
  double max_abs_error = 0.0;   ///< max |w - w_hat| over all params
  double mean_sq_error = 0.0;   ///< mean (w - w_hat)^2 over all params
};

/// \brief Quantize-dequantizes every parameter of \p net in place
/// (weights and biases), simulating deployment of the compressed model,
/// and reports size/error statistics.
Result<NetworkQuantization> QuantizeNetwork(Sequential* net,
                                            QuantizerKind kind, int64_t bits);

/// \brief Exact Huffman-coded bit length of a code stream with the given
/// code frequency histogram (canonical Huffman, no stream overhead).
int64_t HuffmanBitLength(const std::vector<int64_t>& frequencies);

// ----------------------------------------------------- block quantization
//
// ggml-style block formats: one float scale per kQuantBlock consecutive
// elements along a row (the GEMM reduction dimension). A single outlier
// only costs its own 32-element block its precision, and the scales live
// next to the codes the GEMM is already streaming, which is what lets
// src/tensor/int8_gemm.h fuse dequantization into the inner loop. Rows
// are padded to a multiple of kQuantBlock with zero codes, so pad blocks
// contribute exactly nothing to any dot product. These are the storage
// formats of the inference engine's int8 and int4 paths (src/infer); the
// codebook formats above serve the compression study instead.
//
// Block b's codes are defined by the plainest scalar formulation: m =
// max|x| over the block, scanned in order from 0 with NaN elements
// skipped; s = m / lim (1 for m = 0); q = clamp(std::lround(x * (1 / s)),
// -lim, lim), lim = 127 (q8) or 7 (q4). lround's out-of-range results
// (NaN, ±inf, |y| >= 2^63) are LONG_MIN on x86-64 glibc, so those
// elements get -lim — including every element of a block whose max is
// subnormal enough for s to underflow to 0 (then 1 / s = inf).
//
// The three quantizer bodies (Q8BlockQuantizeRowInto,
// Q8BlockQuantizeRowsInto, Q4BlockQuantizeRowsInto) live in
// src/tensor/int8_gemm.cc, a kernel-flags translation unit, written
// branch-free so they vectorize, and equal that formulation bit for bit:
// - the max maps NaN to +0 first; every operand is then +0, positive or
//   +inf, floats that order exactly like their int32 bit patterns, so an
//   integer max in any order gives the sequential scan's bit pattern;
// - with a = |y| and t = trunc(a), a - t is exact for every float, so
//   t + (a - t >= 0.5) is lround's half-away-from-zero magnitude, and
//   clamping it to lim before restoring y's sign equals the clamp of the
//   signed result;
// - where !(a < 2^63) — NaN included — the code is -lim, as above.
// tests/test_simd.cc pins the codes against a test-side lround reference.

/// \brief Elements covered by one block scale.
inline constexpr int64_t kQuantBlock = 32;

/// \brief \p k rounded up to a multiple of kQuantBlock.
inline constexpr int64_t PadToQuantBlock(int64_t k) {
  return (k + kQuantBlock - 1) / kQuantBlock * kQuantBlock;
}

/// \brief A rank-2 matrix stored as symmetric per-block int8 codes.
///
/// Block b of row i holds round(x / s) clamped to [-127, 127] with
/// s = max|block| / 127 (1.0 for an all-zero block).
struct Q8BlockMatrix {
  int64_t rows = 0;
  int64_t cols = 0;         ///< logical width
  int64_t padded_cols = 0;  ///< cols rounded up to kQuantBlock
  std::vector<int8_t> values;  ///< rows x padded_cols, row-major
  std::vector<float> scales;   ///< rows x (padded_cols / kQuantBlock)

  /// \brief Reconstructs the dense float matrix (pad columns dropped).
  Tensor Dequantize() const;
  /// \brief Raw storage cost: codes + block scales.
  int64_t PackedBytes() const;
};

/// \brief A rank-2 matrix stored as symmetric per-block 4-bit codes,
/// nibble-packed.
///
/// Block b of row i holds q = round(x / s) clamped to [-7, 7] with
/// s = max|block| / 7 (1.0 for an all-zero block), stored as code = q + 8.
/// Each 32-element block packs into 16 bytes: byte t carries element t in
/// its low nibble and element 16+t in its high nibble (pad code 8 = 0).
struct Q4BlockMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t padded_cols = 0;
  std::vector<uint8_t> values;  ///< rows x padded_cols/2, row-major
  std::vector<float> scales;    ///< rows x (padded_cols / kQuantBlock)

  /// \brief Reconstructs the dense float matrix (pad columns dropped).
  Tensor Dequantize() const;
  /// \brief Raw storage cost: packed codes + block scales.
  int64_t PackedBytes() const;
};

/// \brief Symmetric per-block q8 quantization of a rank-2 tensor.
Q8BlockMatrix Q8BlockQuantizeRows(const Tensor& t);

/// \brief Allocation-free q8 block quantization into caller storage
/// (\p values: rows * PadToQuantBlock(cols) int8, \p scales: rows *
/// PadToQuantBlock(cols)/kQuantBlock floats). Pad codes are written as 0.
/// Row-parallel; the engine's int8 path quantizes activations with this
/// inside the zero-allocation hot loop.
void Q8BlockQuantizeRowsInto(const float* x, int64_t rows, int64_t cols,
                             int8_t* values, float* scales);

/// \brief Single-row body of Q8BlockQuantizeRowsInto: quantizes \p cols
/// floats into PadToQuantBlock(cols) codes and one scale per block.
/// Serial — callers parallelize across rows. The engine's quant/dequant
/// elimination pass calls this from a GEMM epilogue so adjacent quantized
/// layers hand codes straight through; extracting the shared body is what
/// keeps that path bit-identical to a standalone re-quantization.
void Q8BlockQuantizeRowInto(const float* row, int64_t cols, int8_t* values,
                            float* scales);

/// \brief Symmetric per-block q4 quantization of a rank-2 tensor.
Q4BlockMatrix Q4BlockQuantizeRows(const Tensor& t);

/// \brief Allocation-free q4 block quantization into caller storage
/// (\p values: rows * PadToQuantBlock(cols)/2 bytes, \p scales: rows *
/// PadToQuantBlock(cols)/kQuantBlock floats). Pad elements encode q = 0.
/// Row-parallel; Q4BlockQuantizeRows() is this plus the allocation.
void Q4BlockQuantizeRowsInto(const float* x, int64_t rows, int64_t cols,
                             uint8_t* values, float* scales);

}  // namespace dlsys

#endif  // DLSYS_COMPRESS_QUANTIZATION_H_
