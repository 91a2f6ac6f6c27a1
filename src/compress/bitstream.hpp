// Bit-granular I/O used by the Elias integer codes, the XOR float codec and
// the QSGD packer. Both ends work a 64-bit big-endian word at a time: a
// codeword of up to 57 bits costs one load, one shift and (for the writer)
// one store, never a loop over its bits or bytes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace jwins::compress {

namespace detail {

inline std::uint64_t byteswap64(std::uint64_t x) noexcept {
  x = ((x & 0x00FF00FF00FF00FFull) << 8) | ((x >> 8) & 0x00FF00FF00FF00FFull);
  x = ((x & 0x0000FFFF0000FFFFull) << 16) | ((x >> 16) & 0x0000FFFF0000FFFFull);
  return (x << 32) | (x >> 32);
}

/// The 8 bytes at `p` as a big-endian integer (p[0] is the top byte).
inline std::uint64_t load_be64(const std::uint8_t* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  if constexpr (std::endian::native == std::endian::little) {
    word = byteswap64(word);
  }
  return word;
}

inline void store_be64(std::uint8_t* p, std::uint64_t word) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    word = byteswap64(word);
  }
  std::memcpy(p, &word, 8);
}

}  // namespace detail

/// Append-only bit sink; bits are packed MSB-first within each byte.
///
/// Word-level: write_bits ORs a codeword into the buffer with one 64-bit
/// load and store at the byte holding the write position. The buffer is
/// therefore kept at least 8 bytes past that byte, and every byte past the
/// write position is zero, so the OR only ever sets the codeword's bits.
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

  /// Drops all written bits but keeps the heap capacity. Only the bytes
  /// written to are re-zeroed; the slack past them is still zero.
  void clear() noexcept {
    std::fill_n(bytes_.begin(), byte_count(), std::uint8_t{0});
    bit_count_ = 0;
  }

  /// Appends the lowest `count` bits of `bits`, most-significant first.
  /// Throws std::invalid_argument for a count above 64.
  void write_bits(std::uint64_t bits, unsigned count) {
    if (count > 57) {  // wider than one store can place: high part first
      if (count > 64) throw std::invalid_argument("write_bits: count > 64");
      write_bits(bits >> 32, count - 32);
      bits &= 0xFFFFFFFFull;
      count = 32;
    }
    if (count == 0) return;
    bits &= ~std::uint64_t{0} >> (64 - count);
    const std::size_t byte = bit_count_ / 8;
    if (bytes_.size() - byte < 8) grow(byte + 8);
    // The codeword lands at bit offset bit_count_ % 8 <= 7 of a word whose
    // 64 bits hold it whole (count <= 57).
    const unsigned shift = 64 - static_cast<unsigned>(bit_count_ % 8) - count;
    std::uint8_t* p = bytes_.data() + byte;
    detail::store_be64(p, detail::load_be64(p) | (bits << shift));
    bit_count_ += count;
  }

  /// Appends a single bit.
  void write_bit(bool bit) { write_bits(bit ? 1u : 0u, 1); }

  /// Number of bits written so far.
  std::size_t bit_count() const noexcept { return bit_count_; }

  /// Finalizes (pads the last byte with zeros, trims the slack) and returns
  /// the ceil(bit_count() / 8) bytes.
  std::vector<std::uint8_t> finish() && {
    bytes_.resize(byte_count());
    return std::move(bytes_);
  }

  /// The ceil(bit_count() / 8) bytes written so far; the last byte may be
  /// partial, its unwritten low bits zero. Valid until the next write.
  std::span<const std::uint8_t> bytes() const noexcept {
    return {bytes_.data(), byte_count()};
  }

 private:
  std::size_t byte_count() const noexcept { return (bit_count_ + 7) / 8; }

  // Zero-extends the buffer to at least `size` bytes, doubling so a long
  // encode resizes O(log n) times.
  void grow(std::size_t size) {
    bytes_.resize(std::max(size, 2 * bytes_.size()), 0);
  }

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
      window = detail::load_be64(bytes_.data() + byte);
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
    if (count > remaining()) {
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

  /// Steps past `count` bits the caller has already decoded out of peek().
  /// Precondition: count <= remaining().
  void skip(std::size_t count) noexcept { pos_ += count; }

  /// Bits consumed so far.
  std::size_t position() const noexcept { return pos_; }

  /// Total bits available.
  std::size_t capacity() const noexcept { return bytes_.size() * 8; }

  /// Bits not yet consumed.
  std::size_t remaining() const noexcept { return capacity() - pos_; }

  bool exhausted() const noexcept { return pos_ >= capacity(); }

 private:
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
