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
/// XOR-coded residuals. A fused XOR/clz/ctz block pass feeds one combined
/// control+payload write per value; tests/float_codec_reference.hpp holds
/// the per-value encoder it matches byte for byte.
void compress_floats(std::span<const float> values, BitWriter& writer);

/// Exact inverse of compress_floats: decodes `count` floats into `out`
/// (overwritten, capacity kept). Every value costs at least one bit, so a
/// `count` above 8 * bytes.size() is rejected before anything is reserved.
/// Wherever 44 bits (the longest value) remain it decodes a whole value out
/// of one BitReader::peek() window; the stream's tail takes one checked
/// read per field.
void decompress_floats_into(std::span<const std::uint8_t> bytes,
                            std::size_t count, std::vector<float>& out);

}  // namespace jwins::compress
