// Bit-granular I/O used by the Elias integer codes and the XOR float codec.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace jwins::compress {

/// Append-only bit sink; bits are packed MSB-first within each byte.
///
/// Hot-path reuse: clear() (or constructing from a recycled vector) keeps
/// the byte buffer's capacity, so one BitWriter per worker makes repeated
/// encodes allocation-free in steady state.
class BitWriter {
 public:
  BitWriter() = default;
  /// Adopts `storage` as the byte buffer (cleared, capacity kept).
  explicit BitWriter(std::vector<std::uint8_t> storage)
      : bytes_(std::move(storage)) {
    bytes_.clear();
  }

  /// Drops all written bits but keeps the heap capacity.
  void clear() noexcept {
    bytes_.clear();
    bit_count_ = 0;
  }

  /// Appends the lowest `count` bits of `bits`, most-significant first.
  void write_bits(std::uint64_t bits, unsigned count);

  /// Appends a single bit.
  void write_bit(bool bit);

  /// Number of bits written so far.
  std::size_t bit_count() const noexcept { return bit_count_; }

  /// Finalizes (pads the last byte with zeros) and returns the bytes.
  std::vector<std::uint8_t> finish() &&;

  /// Read-only view of the bytes written so far (last byte may be partial).
  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
};

/// Sequential bit source over a byte buffer; MSB-first, mirroring BitWriter.
///
/// Word-level: every read is served from peek()'s 64-bit window, so a
/// codeword of up to 57 bits costs one load and one shift, not a loop.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// The next 64 bits MSB-aligned (bit 63 is the next bit to read), without
  /// consuming them. At least the top 57 bits come from the stream; bits
  /// past its end read as zero. Loads 8 bytes at once where 8 remain and
  /// builds the window byte by byte nearer the end, never reading outside
  /// the span.
  std::uint64_t peek() const noexcept {
    const std::size_t byte = pos_ / 8;
    std::uint64_t window = 0;
    if (bytes_.size() - byte >= 8) {
      std::memcpy(&window, bytes_.data() + byte, 8);
      if constexpr (std::endian::native == std::endian::little) {
        window = byteswap64(window);
      }
    } else {
      for (std::size_t i = byte; i < byte + 8; ++i) {
        window = (window << 8) | (i < bytes_.size() ? bytes_[i] : 0u);
      }
    }
    return window << (pos_ % 8);
  }

  /// Reads `count` bits (<= 64) as an unsigned value, MSB-first. Throws
  /// std::out_of_range, consuming nothing, if fewer than `count` remain.
  std::uint64_t read_bits(unsigned count) {
    if (count > 64) throw std::invalid_argument("read_bits: count > 64");
    if (count > capacity() - pos_) {
      throw std::out_of_range("BitReader: read past end of stream");
    }
    if (count == 0) return 0;
    if (count > 57) {  // wider than the guaranteed window: two reads
      const std::uint64_t high = take(count - 32);
      return (high << 32) | take(32);
    }
    return take(count);
  }

  /// Reads one bit.
  bool read_bit() { return read_bits(1) != 0; }

  /// Bits consumed so far.
  std::size_t position() const noexcept { return pos_; }

  /// Total bits available.
  std::size_t capacity() const noexcept { return bytes_.size() * 8; }

  bool exhausted() const noexcept { return pos_ >= capacity(); }

 private:
  static std::uint64_t byteswap64(std::uint64_t x) noexcept {
    x = ((x & 0x00FF00FF00FF00FFull) << 8) | ((x >> 8) & 0x00FF00FF00FF00FFull);
    x = ((x & 0x0000FFFF0000FFFFull) << 16) |
        ((x >> 16) & 0x0000FFFF0000FFFFull);
    return (x << 32) | (x >> 32);
  }

  // 1 <= count <= 57, with count bits left in the stream.
  std::uint64_t take(unsigned count) noexcept {
    const std::uint64_t value = peek() >> (64 - count);
    pos_ += count;
    return value;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace jwins::compress
