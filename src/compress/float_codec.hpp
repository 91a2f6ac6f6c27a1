// Lossless float-stream codec standing in for Fpzip (paper §IV-B e).
//
// The paper applies Fpzip uniformly to all parameter payloads for all
// algorithms; we do the same with an XOR-predictive codec in the style of
// Gorilla (Pelkonen et al., VLDB'15): each value is XORed with the previous
// one and the meaningful bits are emitted with a leading/trailing-zero
// header. Neural network parameter streams are locally correlated, so the
// predictor removes sign/exponent redundancy; the codec is exactly lossless,
// which preserves algorithm behaviour while shrinking payload bytes.
// The substitution is recorded in docs/DESIGN.md.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/bitstream.hpp"

namespace jwins::compress {

/// Compresses a float stream losslessly, appending the code to `writer`
/// (not cleared), so a reused BitWriter makes the compression
/// allocation-free in steady state. Output layout: the raw first value then
/// XOR-coded residuals. Dispatches between the scalar reference and the
/// block encoder per core::KernelDispatch; both tiers emit identical bytes.
void compress_floats(std::span<const float> values, BitWriter& writer);

/// Pinned golden reference encoder (per-value branchy loop).
void compress_floats_scalar(std::span<const float> values, BitWriter& writer);

/// Fast path: fused XOR/clz/ctz block pass with combined control+payload
/// emission. Byte-identical to the reference.
void compress_floats_fast(std::span<const float> values, BitWriter& writer);

/// Exact inverse of compress_floats: decodes `count` floats into `out`
/// (overwritten, capacity kept). Every value costs at least one bit, so a
/// `count` above 8 * bytes.size() is rejected before anything is reserved.
/// Dispatches per core::KernelDispatch.
void decompress_floats_into(std::span<const std::uint8_t> bytes,
                            std::size_t count, std::vector<float>& out);

/// Pinned golden reference decoder: the per-value loop over the word-level
/// BitReader, reading a block header as two 5-bit fields.
void decompress_floats_into_scalar(std::span<const std::uint8_t> bytes,
                                   std::size_t count, std::vector<float>& out);

/// Fast tier: the same loop over the same BitReader, but wherever 44 bits
/// (the longest value) remain it decodes a whole value out of one peek()
/// window, with no read checks. Identical floats and identical failure
/// behaviour on malformed streams.
void decompress_floats_into_fast(std::span<const std::uint8_t> bytes,
                                 std::size_t count, std::vector<float>& out);

/// Compressed size in bytes without materializing the buffer.
std::size_t compressed_floats_size(std::span<const float> values);

}  // namespace jwins::compress
