// Reference encoder for compress::compress_floats: the XOR float codec's
// per-value loop, one branchy decision and one field write at a time. It is
// slow but obviously right; the equivalence tests compare the library's
// block encoder against it byte for byte. The matching bit-at-a-time
// decoder is testref::ref_decompress_floats in bit_reference.hpp.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

#include "compress/bitstream.hpp"

namespace jwins::testref {

/// Appends the code of `values` to `writer`: the raw first value, then per
/// value a '0' for a repeat, '10' and the meaningful bits inside the current
/// block, or '11', lead(5), len-1(5) and the meaningful bits of a new block.
inline void ref_compress_floats(std::span<const float> values,
                                compress::BitWriter& writer) {
  if (values.empty()) return;
  std::uint32_t prev = std::bit_cast<std::uint32_t>(values[0]);
  writer.write_bits(prev, 32);
  unsigned block_lead = 0xFF;  // invalid: forces a new block header first time
  unsigned block_len = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    const std::uint32_t cur = std::bit_cast<std::uint32_t>(values[i]);
    const std::uint32_t x = cur ^ prev;
    prev = cur;
    if (x == 0) {
      writer.write_bit(false);
      continue;
    }
    writer.write_bit(true);
    const unsigned lead = std::min(31, std::countl_zero(x));
    const unsigned trail = static_cast<unsigned>(std::countr_zero(x));
    const unsigned len = 32 - lead - trail;
    const bool fits_block =
        block_lead != 0xFF && lead >= block_lead &&
        (32 - lead - len) >= (32 - block_lead - block_len);
    if (fits_block) {
      writer.write_bit(false);
      writer.write_bits(x >> (32 - block_lead - block_len), block_len);
    } else {
      writer.write_bit(true);
      writer.write_bits(lead, 5);
      writer.write_bits(len - 1, 5);
      writer.write_bits(x >> trail, len);
      block_lead = lead;
      block_len = len;
    }
  }
}

}  // namespace jwins::testref
