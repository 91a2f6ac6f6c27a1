// Elias universal integer codes (Elias 1975) and the index-gap coding JWINS
// uses for sparsification metadata (paper §III-C): sorted TopK indices are
// turned into a difference (gap) array and each gap+1 is Elias-gamma coded.
// This is the same construction QSGD uses and is what yields the paper's
// ~9.9x metadata compression (Figure 9).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/bitstream.hpp"

namespace jwins::compress {

/// Elias gamma code of `value` (value must be >= 1).
void elias_gamma_encode(BitWriter& writer, std::uint64_t value);

/// Decodes one Elias gamma codeword.
std::uint64_t elias_gamma_decode(BitReader& reader);

/// Encodes a strictly-increasing index array as Elias-gamma coded gaps,
/// appended to `writer` (not cleared), so a reused BitWriter makes the
/// encode allocation-free in steady state. The first element is encoded as
/// index+1, subsequent as (diff) which is >= 1 by strict monotonicity.
void encode_index_gaps(std::span<const std::uint32_t> sorted_indices,
                       BitWriter& writer);

/// Inverse of encode_index_gaps: decodes `count` indices into `out`
/// (overwritten, capacity kept). Every code is at least one bit, so a
/// `count` above 8 * bytes.size() is rejected before anything is reserved.
/// Windowed: each codeword that lies wholly inside the reader's 57-bit
/// window and the stream is decoded from the window without a read check;
/// one at a window edge, longer than 57 bits or cut off by the stream's end
/// goes through elias_gamma_decode, so a malformed stream throws exactly
/// what the bit-at-a-time decoder would.
void decode_index_gaps_into(std::span<const std::uint8_t> bytes,
                            std::size_t count,
                            std::vector<std::uint32_t>& out);

/// Size in bytes that encode_index_gaps would produce (without building it).
std::size_t index_gaps_encoded_size(std::span<const std::uint32_t> sorted_indices);

}  // namespace jwins::compress
