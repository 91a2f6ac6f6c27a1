#include "compress/bitstream.hpp"

namespace jwins::compress {

void BitWriter::write_bits(std::uint64_t bits, unsigned count) {
  if (count > 64) throw std::invalid_argument("write_bits: count > 64");
  if (count == 0) return;
  if (count < 64) bits &= (std::uint64_t{1} << count) - 1;
  // Byte-chunked MSB-first packing: identical layout to the bit-at-a-time
  // loop, ~8x fewer buffer touches.
  const std::size_t total = bit_count_ + count;
  bytes_.resize((total + 7) / 8, 0);
  std::size_t byte_index = bit_count_ / 8;
  unsigned used = static_cast<unsigned>(bit_count_ % 8);
  unsigned remaining = count;
  while (remaining > 0) {
    const unsigned room = 8 - used;
    const unsigned take = remaining < room ? remaining : room;
    const auto chunk = static_cast<std::uint8_t>((bits >> (remaining - take)) &
                                                 ((1u << take) - 1u));
    bytes_[byte_index] |= static_cast<std::uint8_t>(chunk << (room - take));
    remaining -= take;
    used += take;
    if (used == 8) {
      used = 0;
      ++byte_index;
    }
  }
  bit_count_ = total;
}

void BitWriter::write_bit(bool bit) {
  const std::size_t byte_index = bit_count_ / 8;
  const unsigned bit_index = 7 - static_cast<unsigned>(bit_count_ % 8);
  if (byte_index >= bytes_.size()) bytes_.push_back(0);
  if (bit) bytes_[byte_index] |= static_cast<std::uint8_t>(1u << bit_index);
  ++bit_count_;
}

std::vector<std::uint8_t> BitWriter::finish() && { return std::move(bytes_); }

}  // namespace jwins::compress
