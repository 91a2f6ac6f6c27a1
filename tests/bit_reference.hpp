// Bit-at-a-time references that pin the word-level compress::BitWriter and
// compress::BitReader and the decoders built on them (Elias gamma, the XOR
// float codec). They move one bit per step, so they are slow but obviously
// right; the tests compare the library against them on valid and malformed
// streams alike.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

namespace jwins::testref {

/// A copy of `bytes`, for comparing byte spans with EXPECT_EQ.
inline std::vector<std::uint8_t> as_vector(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

/// MSB-first bit sink writing one bit per step, with the library BitWriter's
/// contract: invalid_argument for a count above 64, the lowest `count` bits
/// of the value written, the last byte zero-padded.
class RefBitWriter {
 public:
  void write_bits(std::uint64_t bits, unsigned count) {
    if (count > 64) throw std::invalid_argument("write_bits: count > 64");
    for (unsigned i = count; i > 0; --i) write_bit((bits >> (i - 1)) & 1u);
  }

  void write_bit(bool bit) {
    if (bit_count_ % 8 == 0) bytes_.push_back(0);
    if (bit) bytes_.back() |= static_cast<std::uint8_t>(0x80u >> (bit_count_ % 8));
    ++bit_count_;
  }

  std::size_t bit_count() const noexcept { return bit_count_; }

  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
};

/// MSB-first bit source reading one bit per step, with the library
/// BitReader's contract: out_of_range past the end, invalid_argument for a
/// count above 64.
class RefBitReader {
 public:
  explicit RefBitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint64_t read_bits(unsigned count) {
    if (count > 64) throw std::invalid_argument("read_bits: count > 64");
    if (count > bytes_.size() * 8 - pos_) {
      throw std::out_of_range("RefBitReader: read past end of stream");
    }
    std::uint64_t value = 0;
    for (unsigned i = 0; i < count; ++i) value = (value << 1) | read_bit();
    return value;
  }

  bool read_bit() {
    if (pos_ >= bytes_.size() * 8) {
      throw std::out_of_range("RefBitReader: read past end of stream");
    }
    const bool bit = (bytes_[pos_ / 8] >> (7 - pos_ % 8)) & 1u;
    ++pos_;
    return bit;
  }

  std::size_t position() const noexcept { return pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// The Elias gamma bit loop: count zeros, then read that many value bits.
inline std::uint64_t ref_gamma_decode(RefBitReader& reader) {
  unsigned zeros = 0;
  while (!reader.read_bit()) {
    if (++zeros > 63) throw std::runtime_error("elias gamma: malformed codeword");
  }
  std::uint64_t value = 1;
  if (zeros > 0) value = (value << zeros) | reader.read_bits(zeros);
  return value;
}

/// The XOR float codec's decoder, one bit at a time.
inline void ref_decompress_floats(std::span<const std::uint8_t> bytes,
                                  std::size_t count, std::vector<float>& out) {
  out.clear();
  if (count == 0) return;
  if (count > 8 * bytes.size()) {
    throw std::runtime_error("float codec: count exceeds the stream");
  }
  RefBitReader reader(bytes);
  auto prev = static_cast<std::uint32_t>(reader.read_bits(32));
  out.push_back(std::bit_cast<float>(prev));
  unsigned lead = 0;
  unsigned len = 0;
  bool have_block = false;
  for (std::size_t i = 1; i < count; ++i) {
    if (!reader.read_bit()) {
      out.push_back(std::bit_cast<float>(prev));
      continue;
    }
    if (reader.read_bit()) {
      lead = static_cast<unsigned>(reader.read_bits(5));
      len = static_cast<unsigned>(reader.read_bits(5)) + 1;
      if (lead + len > 32) {
        throw std::runtime_error("float codec: malformed block header");
      }
      have_block = true;
    } else if (!have_block) {
      throw std::runtime_error("float codec: reuse of block before definition");
    }
    prev ^= static_cast<std::uint32_t>(reader.read_bits(len)) << (32 - lead - len);
    out.push_back(std::bit_cast<float>(prev));
  }
}

/// Which exception a decode ended with, by type.
enum class Failure { kNone, kOutOfRange, kInvalidArgument, kRuntimeError, kOther };

/// Runs `body`, returning the type of the exception it threw, if any.
inline Failure failure_of(const std::function<void()>& body) {
  try {
    body();
  } catch (const std::out_of_range&) {
    return Failure::kOutOfRange;
  } catch (const std::invalid_argument&) {
    return Failure::kInvalidArgument;
  } catch (const std::runtime_error&) {
    return Failure::kRuntimeError;
  } catch (...) {
    return Failure::kOther;
  }
  return Failure::kNone;
}

}  // namespace jwins::testref
