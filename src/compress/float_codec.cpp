#include "compress/float_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "compress/bitstream.hpp"
#include "core/kernel_dispatch.hpp"

namespace jwins::compress {

namespace {

std::uint32_t float_bits(float v) noexcept {
  return std::bit_cast<std::uint32_t>(v);
}

float bits_float(std::uint32_t b) noexcept { return std::bit_cast<float>(b); }

// Shared encode loop: emits to `writer` if non-null, always tallies bits.
std::size_t encode_stream(std::span<const float> values, BitWriter* writer) {
  std::size_t bits = 0;
  auto emit_bit = [&](bool b) {
    if (writer) writer->write_bit(b);
    ++bits;
  };
  auto emit_bits = [&](std::uint64_t v, unsigned n) {
    if (writer) writer->write_bits(v, n);
    bits += n;
  };

  if (values.empty()) return 0;
  emit_bits(float_bits(values[0]), 32);
  std::uint32_t prev = float_bits(values[0]);
  unsigned block_lead = 0xFF;  // invalid: forces a new block header first time
  unsigned block_len = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    const std::uint32_t cur = float_bits(values[i]);
    const std::uint32_t x = cur ^ prev;
    prev = cur;
    if (x == 0) {
      emit_bit(false);
      continue;
    }
    emit_bit(true);
    const unsigned lead = std::min(31, std::countl_zero(x));
    const unsigned trail = static_cast<unsigned>(std::countr_zero(x));
    const unsigned len = 32 - lead - trail;
    const bool fits_block =
        block_lead != 0xFF && lead >= block_lead &&
        (32 - lead - len) >= (32 - block_lead - block_len);
    if (fits_block) {
      emit_bit(false);
      emit_bits(x >> (32 - block_lead - block_len), block_len);
    } else {
      emit_bit(true);
      emit_bits(lead, 5);
      emit_bits(len - 1, 5);
      emit_bits(x >> trail, len);
      block_lead = lead;
      block_len = len;
    }
  }
  return bits;
}

// Fast encoder: the XOR / leading-zero / trailing-zero scan runs as a fused
// block pass, and the per-value control+payload bits are emitted with one
// combined write_bits call per value. Decisions and bit layout are exactly
// the reference's, so the output bytes are identical.
void encode_stream_fast(std::span<const float> values, BitWriter& writer) {
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

// One decode loop for both tiers over the shared word-level BitReader. The
// pinned scalar reference reads a block header as two 5-bit fields, the
// fast tier as one 10-bit read; the results and errors are identical.
template <bool kWholeHeader>
void decode_stream(std::span<const std::uint8_t> bytes, std::size_t count,
                   std::vector<float>& out) {
  out.clear();
  if (count == 0) return;
  // Bound the wire-supplied count by the stream length before reserving:
  // each value after the first costs at least one bit.
  if (count > 8 * bytes.size()) {
    throw std::runtime_error("float codec: count exceeds the stream");
  }
  out.reserve(count);
  BitReader reader(bytes);
  std::uint32_t prev = static_cast<std::uint32_t>(reader.read_bits(32));
  out.push_back(bits_float(prev));
  unsigned block_lead = 0;
  unsigned block_len = 0;
  bool have_block = false;
  for (std::size_t i = 1; i < count; ++i) {
    if (!reader.read_bit()) {  // identical to previous
      out.push_back(bits_float(prev));
      continue;
    }
    if (reader.read_bit()) {  // new block header: lead(5) ++ len-1(5)
      if constexpr (kWholeHeader) {
        const auto header = static_cast<unsigned>(reader.read_bits(10));
        block_lead = header >> 5;
        block_len = (header & 0x1Fu) + 1;
      } else {
        block_lead = static_cast<unsigned>(reader.read_bits(5));
        block_len = static_cast<unsigned>(reader.read_bits(5)) + 1;
      }
      // The encoder never emits lead + len > 32; a header that does would
      // make the shift below undefined.
      if (block_lead + block_len > 32) {
        throw std::runtime_error("float codec: malformed block header");
      }
      have_block = true;
    } else if (!have_block) {
      throw std::runtime_error("float codec: reuse of block before definition");
    }
    const auto meaningful = static_cast<std::uint32_t>(reader.read_bits(block_len));
    const unsigned shift = 32 - block_lead - block_len;
    prev ^= meaningful << shift;
    out.push_back(bits_float(prev));
  }
}

}  // namespace

void compress_floats(std::span<const float> values, BitWriter& writer) {
  if (core::KernelDispatch::fast()) {
    encode_stream_fast(values, writer);
  } else {
    encode_stream(values, &writer);
  }
}

void compress_floats_scalar(std::span<const float> values, BitWriter& writer) {
  encode_stream(values, &writer);
}

void compress_floats_fast(std::span<const float> values, BitWriter& writer) {
  encode_stream_fast(values, writer);
}

std::size_t compressed_floats_size(std::span<const float> values) {
  return (encode_stream(values, nullptr) + 7) / 8;
}

void decompress_floats_into(std::span<const std::uint8_t> bytes,
                            std::size_t count, std::vector<float>& out) {
  if (core::KernelDispatch::fast()) {
    decompress_floats_into_fast(bytes, count, out);
  } else {
    decompress_floats_into_scalar(bytes, count, out);
  }
}

void decompress_floats_into_fast(std::span<const std::uint8_t> bytes,
                                 std::size_t count, std::vector<float>& out) {
  decode_stream<true>(bytes, count, out);
}

void decompress_floats_into_scalar(std::span<const std::uint8_t> bytes,
                                   std::size_t count, std::vector<float>& out) {
  decode_stream<false>(bytes, count, out);
}

}  // namespace jwins::compress
