#include "compress/elias.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace jwins::compress {

namespace {

unsigned bit_width_u64(std::uint64_t v) noexcept {
  return static_cast<unsigned>(std::bit_width(v));
}

}  // namespace

void elias_gamma_encode(BitWriter& writer, std::uint64_t value) {
  if (value == 0) throw std::invalid_argument("elias gamma cannot encode 0");
  const unsigned n = bit_width_u64(value);  // value in [2^(n-1), 2^n)
  // n-1 zero bits, then the n bits of the value (leading 1 included): the
  // 2n-1 bit codeword read as an integer is the value itself.
  if (n <= 32) {
    writer.write_bits(value, 2 * n - 1);
  } else {
    writer.write_bits(0, n - 1);
    writer.write_bits(value, n);
  }
}

std::uint64_t elias_gamma_decode(BitReader& reader) {
  // Fast path: the whole codeword lies in one window, so count its zeros
  // there and read it as one integer. The window reads zeros past the
  // stream end, so a codeword cut off by the end makes read_bits throw the
  // same out_of_range the bit loop would.
  const auto zeros_in_window =
      static_cast<unsigned>(std::countl_zero(reader.peek()));
  const unsigned len = 2 * zeros_in_window + 1;
  if (len <= 57) return reader.read_bits(len);
  // Codewords longer than a window: bit at a time.
  unsigned zeros = 0;
  while (!reader.read_bit()) {
    if (++zeros > 63) throw std::runtime_error("elias gamma: malformed codeword");
  }
  std::uint64_t value = 1;
  if (zeros > 0) {
    value = (value << zeros) | reader.read_bits(zeros);
  }
  return value;
}

void encode_index_gaps(std::span<const std::uint32_t> sorted_indices,
                       BitWriter& writer) {
  std::uint32_t prev = 0;
  bool first = true;
  for (std::uint32_t idx : sorted_indices) {
    std::uint64_t gap;
    if (first) {
      gap = std::uint64_t{idx} + 1;  // first index may be 0; shift by one
      first = false;
    } else {
      if (idx <= prev) {
        throw std::invalid_argument(
            "encode_index_gaps requires strictly increasing indices");
      }
      gap = idx - prev;
    }
    elias_gamma_encode(writer, gap);
    prev = idx;
  }
}

void decode_index_gaps_into(std::span<const std::uint8_t> bytes,
                            std::size_t count,
                            std::vector<std::uint32_t>& out) {
  if (count > 8 * bytes.size()) {
    throw std::runtime_error("decode_index_gaps: count exceeds the stream");
  }
  BitReader reader(bytes);
  out.resize(count);
  std::uint32_t* dst = out.data();
  std::size_t i = 0;
  std::uint64_t prev = 0;
  const auto emit = [&](std::uint64_t gap) {
    const std::uint64_t idx = (i == 0) ? gap - 1 : prev + gap;
    if (idx > 0xFFFFFFFFull) throw std::runtime_error("decoded index overflows u32");
    dst[i++] = static_cast<std::uint32_t>(idx);
    prev = idx;
  };
  while (i < count) {
    // Decode every codeword that lies wholly inside the window's guaranteed
    // 57 bits and inside the stream, from one load, with no read checks.
    const unsigned limit =
        static_cast<unsigned>(std::min<std::size_t>(57, reader.remaining()));
    std::uint64_t window = reader.peek();
    unsigned used = 0;
    while (i < count) {
      const unsigned len = 2 * static_cast<unsigned>(std::countl_zero(window)) + 1;
      if (len > limit - used) break;
      emit(window >> (64 - len));
      window <<= len;
      used += len;
    }
    reader.skip(used);
    // A codeword at a window edge, longer than a window, or cut off by the
    // end of the stream: the checked decoder reads it, or throws what the
    // bit-at-a-time decoder would.
    if (used == 0) emit(elias_gamma_decode(reader));
  }
}

std::size_t index_gaps_encoded_size(std::span<const std::uint32_t> sorted_indices) {
  std::size_t bits = 0;
  std::uint32_t prev = 0;
  bool first = true;
  for (std::uint32_t idx : sorted_indices) {
    const std::uint64_t gap = first ? std::uint64_t{idx} + 1 : std::uint64_t{idx - prev};
    first = false;
    bits += 2u * bit_width_u64(gap) - 1u;
    prev = idx;
  }
  return (bits + 7) / 8;
}

}  // namespace jwins::compress
