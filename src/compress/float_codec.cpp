#include "compress/float_codec.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "compress/bitstream.hpp"

namespace jwins::compress {

namespace {

std::uint32_t float_bits(float v) noexcept {
  return std::bit_cast<std::uint32_t>(v);
}

float bits_float(std::uint32_t b) noexcept { return std::bit_cast<float>(b); }

// The longest coded value: control bits, a block header and 32 payload bits.
constexpr unsigned kMaxValueBits = 2 + 10 + 32;

}  // namespace

// The XOR / leading-zero / trailing-zero scan runs as a fused block pass,
// and the per-value control+payload bits are emitted with one combined
// write_bits call per value.
void compress_floats(std::span<const float> values, BitWriter& writer) {
  if (values.empty()) return;
  writer.write_bits(float_bits(values[0]), 32);
  unsigned block_lead = 0xFF;
  unsigned block_len = 0;
  constexpr std::size_t kBlock = 256;
  std::uint32_t xors[kBlock];
  std::uint8_t leads[kBlock];
  std::uint8_t trails[kBlock];
  std::size_t i = 1;
  while (i < values.size()) {
    const std::size_t len = std::min(kBlock, values.size() - i);
    // Fused pass: XOR with predecessor plus both zero counts, branch-free.
    for (std::size_t j = 0; j < len; ++j) {
      const std::uint32_t x =
          float_bits(values[i + j]) ^ float_bits(values[i + j - 1]);
      xors[j] = x;
      leads[j] = static_cast<std::uint8_t>(std::min(31, std::countl_zero(x)));
      trails[j] = static_cast<std::uint8_t>(std::countr_zero(x));
    }
    for (std::size_t j = 0; j < len; ++j) {
      const std::uint32_t x = xors[j];
      if (x == 0) {
        writer.write_bit(false);
        continue;
      }
      const unsigned lead = leads[j];
      const unsigned trail = trails[j];
      const unsigned vlen = 32 - lead - trail;
      const bool fits_block =
          block_lead != 0xFF && lead >= block_lead &&
          (32 - lead - vlen) >= (32 - block_lead - block_len);
      if (fits_block) {
        // Control bits '1','0' then block_len payload bits, as one write.
        const std::uint64_t payload = x >> (32 - block_lead - block_len);
        writer.write_bits((std::uint64_t{0b10} << block_len) | payload,
                          2 + block_len);
      } else {
        // Control '1','1', lead(5), vlen-1(5), then vlen payload bits.
        const std::uint64_t header =
            (std::uint64_t{0b11} << 10) | (std::uint64_t{lead} << 5) |
            (vlen - 1);
        writer.write_bits((header << vlen) | (x >> trail), 12 + vlen);
        block_lead = lead;
        block_len = vlen;
      }
    }
    i += len;
  }
}

// Decodes a whole value out of one peek() window wherever kMaxValueBits
// remain, and falls back to one checked read per field only at the stream's
// tail, so a truncated stream fails as a read past the end.
void decompress_floats_into(std::span<const std::uint8_t> bytes,
                            std::size_t count, std::vector<float>& out) {
  out.clear();
  if (count == 0) return;
  // Bound the wire-supplied count by the stream length before reserving:
  // each value after the first costs at least one bit.
  if (count > 8 * bytes.size()) {
    throw std::runtime_error("float codec: count exceeds the stream");
  }
  out.resize(count);
  float* dst = out.data();
  BitReader reader(bytes);
  std::uint32_t prev = static_cast<std::uint32_t>(reader.read_bits(32));
  dst[0] = bits_float(prev);
  unsigned block_lead = 0;
  unsigned block_len = 0;
  bool have_block = false;
  // A new block header lead(5) ++ len-1(5). The encoder never emits
  // lead + len > 32; a header that does would make the shift undefined.
  const auto set_block = [&](unsigned header) {
    block_lead = header >> 5;
    block_len = (header & 0x1Fu) + 1;
    if (block_lead + block_len > 32) {
      throw std::runtime_error("float codec: malformed block header");
    }
    have_block = true;
  };
  const auto reuse_block = [&] {
    if (!have_block) {
      throw std::runtime_error("float codec: reuse of block before definition");
    }
  };
  for (std::size_t i = 1; i < count; ++i) {
    if (reader.remaining() >= kMaxValueBits) {
      const std::uint64_t window = reader.peek();
      if ((window >> 63) == 0) {  // identical to previous
        reader.skip(1);
        dst[i] = bits_float(prev);
        continue;
      }
      unsigned used = 2;
      if ((window >> 62) & 1u) {
        set_block(static_cast<unsigned>(window >> 52) & 0x3FFu);
        used = 12;
      } else {
        reuse_block();
      }
      const auto meaningful =
          static_cast<std::uint32_t>((window << used) >> (64 - block_len));
      reader.skip(used + block_len);
      prev ^= meaningful << (32 - block_lead - block_len);
      dst[i] = bits_float(prev);
      continue;
    }
    if (!reader.read_bit()) {  // identical to previous
      dst[i] = bits_float(prev);
      continue;
    }
    if (reader.read_bit()) {
      const auto lead = static_cast<unsigned>(reader.read_bits(5));
      set_block((lead << 5) | static_cast<unsigned>(reader.read_bits(5)));
    } else {
      reuse_block();
    }
    const auto meaningful = static_cast<std::uint32_t>(reader.read_bits(block_len));
    prev ^= meaningful << (32 - block_lead - block_len);
    dst[i] = bits_float(prev);
  }
}

}  // namespace jwins::compress
