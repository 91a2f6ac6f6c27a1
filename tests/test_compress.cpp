#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <utility>

#include "bit_reference.hpp"
#include "compress/bitstream.hpp"
#include "compress/elias.hpp"
#include "compress/float_codec.hpp"
#include "compress/topk.hpp"
#include "core/sparse_payload.hpp"
#include "net/serializer.hpp"

namespace jwins::compress {
namespace {

// ---------------------------------------------------------------- bitstream

TEST(BitStream, SingleBitsRoundTrip) {
  BitWriter w;
  const std::vector<bool> bits{true, false, true, true, false, false, true};
  for (bool b : bits) w.write_bit(b);
  EXPECT_EQ(w.bit_count(), bits.size());
  const auto bytes = std::move(w).finish();
  BitReader r(bytes);
  for (bool b : bits) EXPECT_EQ(r.read_bit(), b);
}

TEST(BitStream, MultiBitValuesRoundTrip) {
  BitWriter w;
  w.write_bits(0b1011, 4);
  w.write_bits(0xDEADBEEF, 32);
  w.write_bits(1, 1);
  const auto bytes = std::move(w).finish();
  BitReader r(bytes);
  EXPECT_EQ(r.read_bits(4), 0b1011u);
  EXPECT_EQ(r.read_bits(32), 0xDEADBEEFu);
  EXPECT_EQ(r.read_bits(1), 1u);
}

TEST(BitStream, ReadPastEndThrows) {
  BitWriter w;
  w.write_bits(0xFF, 8);
  const auto bytes = std::move(w).finish();
  BitReader r(bytes);
  r.read_bits(8);
  EXPECT_THROW(r.read_bit(), std::out_of_range);
}

TEST(BitStream, CountTooLargeThrows) {
  BitWriter w;
  EXPECT_THROW(w.write_bits(0, 65), std::invalid_argument);
  std::vector<std::uint8_t> buf(16);
  BitReader r(buf);
  EXPECT_THROW(r.read_bits(65), std::invalid_argument);
}

// -------------------------------------------------------------------- elias

TEST(EliasGamma, KnownCodewords) {
  // gamma(1) = "1", gamma(2) = "010", gamma(3) = "011", gamma(4) = "00100".
  BitWriter w;
  elias_gamma_encode(w, 1);
  EXPECT_EQ(w.bit_count(), 1u);
  elias_gamma_encode(w, 2);
  EXPECT_EQ(w.bit_count(), 4u);
  elias_gamma_encode(w, 4);
  EXPECT_EQ(w.bit_count(), 9u);
  const auto bytes = std::move(w).finish();
  BitReader r(bytes);
  EXPECT_EQ(elias_gamma_decode(r), 1u);
  EXPECT_EQ(elias_gamma_decode(r), 2u);
  EXPECT_EQ(elias_gamma_decode(r), 4u);
}

TEST(EliasGamma, ZeroThrows) {
  BitWriter w;
  EXPECT_THROW(elias_gamma_encode(w, 0), std::invalid_argument);
}

class EliasRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EliasRoundTrip, GammaAndDelta) {
  const std::uint64_t value = GetParam();
  BitWriter w;
  elias_gamma_encode(w, value);
  elias_delta_encode(w, value);
  const auto bytes = std::move(w).finish();
  BitReader r(bytes);
  EXPECT_EQ(elias_gamma_decode(r), value);
  EXPECT_EQ(elias_delta_decode(r), value);
}

INSTANTIATE_TEST_SUITE_P(Values, EliasRoundTrip,
                         ::testing::Values(1ull, 2ull, 3ull, 7ull, 8ull, 255ull,
                                           256ull, 1023ull, 65536ull,
                                           123456789ull, (1ull << 40) + 17));

TEST(EliasGamma, RandomStreamRoundTrip) {
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> values;
  BitWriter w;
  for (int i = 0; i < 2000; ++i) {
    // Mix of small (common for gaps) and occasionally large values.
    const std::uint64_t v = (rng() % 64 == 0) ? (rng() % 1000000 + 1)
                                              : (rng() % 16 + 1);
    values.push_back(v);
    elias_gamma_encode(w, v);
  }
  const auto bytes = std::move(w).finish();
  BitReader r(bytes);
  for (std::uint64_t v : values) EXPECT_EQ(elias_gamma_decode(r), v);
}

// ------------------------------ word-level decoders vs bit-at-a-time reference

using testref::Failure;
using testref::RefBitReader;

// Outcome of decoding up to `count` gamma codewords: the values and end
// positions decoded before the first error, and that error's type.
struct GammaOutcome {
  std::vector<std::uint64_t> values;
  std::vector<std::size_t> ends;
  Failure failure = Failure::kNone;
};

template <class Reader, class Decode>
GammaOutcome decode_gammas(std::span<const std::uint8_t> bytes,
                           std::size_t count, Decode decode) {
  GammaOutcome out;
  Reader reader(bytes);
  out.failure = testref::failure_of([&] {
    for (std::size_t i = 0; i < count; ++i) {
      out.values.push_back(decode(reader));
      out.ends.push_back(reader.position());
    }
  });
  return out;
}

// The library decoder agrees with the reference codeword by codeword: the
// same values ending at the same bits, or the same exception type at the
// same codeword.
void expect_gamma_matches_reference(std::span<const std::uint8_t> bytes,
                                    std::size_t count,
                                    const std::string& what) {
  const GammaOutcome got = decode_gammas<BitReader>(
      bytes, count, [](BitReader& r) { return elias_gamma_decode(r); });
  const GammaOutcome want = decode_gammas<RefBitReader>(
      bytes, count, [](RefBitReader& r) { return testref::ref_gamma_decode(r); });
  EXPECT_EQ(got.values, want.values) << what;
  EXPECT_EQ(got.ends, want.ends) << what;
  EXPECT_EQ(static_cast<int>(got.failure), static_cast<int>(want.failure))
      << what;
}

std::vector<std::uint32_t> ref_decode_index_gaps(
    std::span<const std::uint8_t> bytes, std::size_t count) {
  if (count > 8 * bytes.size()) throw std::runtime_error("count too large");
  RefBitReader reader(bytes);
  std::vector<std::uint32_t> out;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t gap = testref::ref_gamma_decode(reader);
    const std::uint64_t idx = (i == 0) ? gap - 1 : prev + gap;
    if (idx > 0xFFFFFFFFull) throw std::runtime_error("index overflows u32");
    out.push_back(static_cast<std::uint32_t>(idx));
    prev = idx;
  }
  return out;
}

// decode_index_gaps_into agrees with the reference: identical indices or
// the same exception type.
void expect_indices_match_reference(std::span<const std::uint8_t> bytes,
                                    std::size_t count,
                                    const std::string& what) {
  std::vector<std::uint32_t> got, want;
  const Failure got_failure =
      testref::failure_of([&] { decode_index_gaps_into(bytes, count, got); });
  const Failure want_failure =
      testref::failure_of([&] { want = ref_decode_index_gaps(bytes, count); });
  ASSERT_EQ(static_cast<int>(got_failure), static_cast<int>(want_failure))
      << what;
  if (got_failure == Failure::kNone) {
    EXPECT_EQ(got, want) << what;
  }
}

// A gap of random bit width: mostly the short codes real index streams
// have, a quarter of any width up to 64 bits (gaps of 2^29 and up have
// codewords over 57 bits and take the decoder's bit-loop fallback).
std::uint64_t random_gap(std::mt19937_64& rng) {
  const unsigned width = (rng() % 4 == 0) ? 1 + rng() % 64 : 1 + rng() % 8;
  const std::uint64_t top = std::uint64_t{1} << (width - 1);
  return top | (rng() & (top - 1));
}

// Gamma-codes `count` random gaps.
std::vector<std::uint8_t> random_gamma_stream(std::uint64_t seed,
                                              std::size_t count) {
  std::mt19937_64 rng(seed);
  BitWriter w;
  for (std::size_t i = 0; i < count; ++i) elias_gamma_encode(w, random_gap(rng));
  return std::move(w).finish();
}

// Sorted u32 indices with random gaps up to 2^31, gap-coded.
std::pair<std::vector<std::uint8_t>, std::size_t> random_index_stream(
    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> indices;
  std::uint64_t idx = rng() % 16;
  while (idx <= 0xFFFFFFFFull && indices.size() < 300) {
    indices.push_back(static_cast<std::uint32_t>(idx));
    const unsigned width = (rng() % 8 == 0) ? 1 + rng() % 31 : 1 + rng() % 6;
    idx += (std::uint64_t{1} << (width - 1)) | (rng() % (1u << (width - 1)));
  }
  BitWriter w;
  encode_index_gaps(indices, w);
  return {std::move(w).finish(), indices.size()};
}

TEST(EliasGamma, RandomGapStreamsMatchReference) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const auto bytes = random_gamma_stream(seed, 200);
    const std::string what = "seed " + std::to_string(seed);
    // Two codewords past the last: they run into the zero padding and off
    // the end of the stream.
    expect_gamma_matches_reference(bytes, 202, what);
    const auto [index_bytes, count] = random_index_stream(seed);
    expect_indices_match_reference(index_bytes, count, what);
    expect_indices_match_reference(index_bytes, count + 1, what);
  }
}

TEST(EliasGamma, CodewordsAtEveryWindowOffsetMatchReference) {
  // `pad` one-bit codewords put the codeword of each width at every bit
  // offset across the first 8-byte window edge; where pad + length is a
  // multiple of 8 it ends exactly on the stream's last bit.
  for (unsigned width = 1; width <= 64; ++width) {
    const std::uint64_t top = std::uint64_t{1} << (width - 1);
    const std::uint64_t value = top | (0x5555555555555555ull & (top - 1));
    for (unsigned pad = 0; pad < 72; ++pad) {
      BitWriter w;
      for (unsigned i = 0; i < pad; ++i) elias_gamma_encode(w, 1);
      elias_gamma_encode(w, value);
      const std::size_t bits = w.bit_count();
      const auto bytes = std::move(w).finish();
      if (bits % 8 == 0) {
        ASSERT_EQ(bits, 8 * bytes.size());
      }
      const std::string what =
          "width " + std::to_string(width) + " pad " + std::to_string(pad);
      expect_gamma_matches_reference(bytes, pad + 2, what);
      const GammaOutcome got = decode_gammas<BitReader>(
          bytes, pad + 1, [](BitReader& r) { return elias_gamma_decode(r); });
      ASSERT_EQ(got.values.size(), pad + 1) << what;
      EXPECT_EQ(got.values.back(), value) << what;
      EXPECT_EQ(got.ends.back(), bits) << what;
    }
  }
}

TEST(EliasGamma, EveryTruncationMatchesReference) {
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    const auto bytes = random_gamma_stream(seed, 120);
    for (std::size_t len = 0; len <= bytes.size(); ++len) {
      expect_gamma_matches_reference(
          std::span(bytes).first(len), 120,
          "seed " + std::to_string(seed) + " len " + std::to_string(len));
    }
    const auto [index_bytes, count] = random_index_stream(seed);
    for (std::size_t len = 0; len <= index_bytes.size(); ++len) {
      expect_indices_match_reference(
          std::span(index_bytes).first(len), count,
          "seed " + std::to_string(seed) + " len " + std::to_string(len));
    }
  }
}

TEST(EliasGamma, SingleBitFlipsMatchReference) {
  std::mt19937_64 rng(7);
  for (std::uint64_t seed = 200; seed < 216; ++seed) {
    const auto bytes = random_gamma_stream(seed, 100);
    const auto [index_bytes, count] = random_index_stream(seed);
    for (int flip = 0; flip < 64; ++flip) {
      auto flipped = bytes;
      const std::size_t bit = rng() % (8 * flipped.size());
      flipped[bit / 8] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
      const std::string what =
          "seed " + std::to_string(seed) + " bit " + std::to_string(bit);
      expect_gamma_matches_reference(flipped, 100, what);
      auto flipped_index = index_bytes;
      const std::size_t index_bit = rng() % (8 * flipped_index.size());
      flipped_index[index_bit / 8] ^=
          static_cast<std::uint8_t>(0x80u >> (index_bit % 8));
      expect_indices_match_reference(flipped_index, count, what);
    }
  }
}

TEST(EliasGamma, ExplicitMalformedCodewords) {
  // 64 zero bits: more zeros than any codeword has.
  const std::vector<std::uint8_t> zeros(9, 0);
  BitReader all_zero(zeros);
  EXPECT_THROW(elias_gamma_decode(all_zero), std::runtime_error);
  expect_gamma_matches_reference(zeros, 1, "64 zeros");
  const std::vector<std::uint8_t> eight_zeros(8, 0);
  BitReader exactly_64(eight_zeros);
  EXPECT_THROW(elias_gamma_decode(exactly_64), std::runtime_error);
  // 63 zeros, then the stream ends.
  BitReader short_zero(eight_zeros);
  short_zero.read_bit();
  EXPECT_THROW(elias_gamma_decode(short_zero), std::out_of_range);
  // 63 zeros and the terminating 1, but no value bits after it.
  const std::vector<std::uint8_t> no_value{0, 0, 0, 0, 0, 0, 0, 1};
  BitReader truncated(no_value);
  EXPECT_THROW(elias_gamma_decode(truncated), std::out_of_range);
  expect_gamma_matches_reference(no_value, 1, "63 zeros then end");
}

TEST(BitStream, WideReadsAcrossWindowEdgeMatchReference) {
  // Exactly-sized buffers, so a read past the span shows under ASan, and
  // every start offset, so reads straddle the 8-byte window edge.
  std::mt19937_64 rng(5);
  for (std::size_t size = 0; size <= 17; ++size) {
    std::vector<std::uint8_t> bytes(size);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    for (std::size_t offset = 0; offset <= 8 * size; ++offset) {
      for (unsigned count : {0u, 1u, 7u, 32u, 57u, 58u, 63u, 64u, 65u}) {
        BitReader got(bytes);
        RefBitReader want(bytes);
        for (std::size_t left = offset; left > 0;) {
          const auto step = static_cast<unsigned>(std::min<std::size_t>(left, 50));
          got.read_bits(step);
          want.read_bits(step);
          left -= step;
        }
        std::uint64_t got_value = 0, want_value = 0;
        const Failure got_failure =
            testref::failure_of([&] { got_value = got.read_bits(count); });
        const Failure want_failure =
            testref::failure_of([&] { want_value = want.read_bits(count); });
        const std::string what = "size " + std::to_string(size) + " offset " +
                                 std::to_string(offset) + " count " +
                                 std::to_string(count);
        ASSERT_EQ(static_cast<int>(got_failure), static_cast<int>(want_failure))
            << what;
        EXPECT_EQ(got_value, want_value) << what;
        EXPECT_EQ(got.position(), want.position()) << what;
      }
    }
  }
  // The window reads as zero past the end of the stream.
  const std::vector<std::uint8_t> one{0xA5};
  BitReader r(one);
  EXPECT_EQ(r.peek(), 0xA5ull << 56);
  r.read_bits(4);
  EXPECT_EQ(r.peek(), 0x5ull << 60);
}

TEST(IndexGaps, RoundTripIncludingZeroFirstIndex) {
  const std::vector<std::uint32_t> indices{0, 1, 5, 6, 100, 101, 4096};
  BitWriter w;
  encode_index_gaps(indices, w);
  std::vector<std::uint32_t> back;
  decode_index_gaps_into(w.bytes(), indices.size(), back);
  EXPECT_EQ(back, indices);
}

TEST(IndexGaps, EmptyArray) {
  BitWriter w;
  encode_index_gaps({}, w);
  EXPECT_TRUE(w.bytes().empty());
  std::vector<std::uint32_t> back{7};
  decode_index_gaps_into(w.bytes(), 0, back);
  EXPECT_TRUE(back.empty());
}

TEST(IndexGaps, NonMonotonicThrows) {
  BitWriter w;
  const std::vector<std::uint32_t> bad{3, 3};
  EXPECT_THROW(encode_index_gaps(bad, w), std::invalid_argument);
  const std::vector<std::uint32_t> bad2{5, 2};
  EXPECT_THROW(encode_index_gaps(bad2, w), std::invalid_argument);
}

TEST(IndexGaps, SizeEstimatorMatchesActual) {
  std::mt19937 rng(7);
  BitWriter w;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint32_t> indices;
    std::uint32_t cur = rng() % 5;
    for (int i = 0; i < 300; ++i) {
      indices.push_back(cur);
      cur += 1 + rng() % 50;
    }
    w.clear();
    encode_index_gaps(indices, w);
    EXPECT_EQ(index_gaps_encoded_size(indices), w.bytes().size());
  }
}

TEST(IndexGaps, DenseIndicesCompressWell) {
  // Gap arrays of a dense TopK selection are mostly small -> far below
  // 4 bytes/index. This is the Figure-9 mechanism.
  std::vector<std::uint32_t> indices;
  std::mt19937 rng(3);
  std::uint32_t cur = 0;
  for (int i = 0; i < 1000; ++i) {
    cur += 1 + rng() % 3;
    indices.push_back(cur);
  }
  BitWriter w;
  encode_index_gaps(indices, w);
  EXPECT_LT(w.bytes().size() * 4, indices.size() * 4);  // > 4x better than raw
}

TEST(IndexGaps, WireCountBoundedByStreamBeforeReserve) {
  // Every gap code is at least one bit, so a count above the stream's bit
  // length cannot be honest; it must throw before `out` reserves anything.
  const std::vector<std::uint8_t> bytes(10, 0xFF);
  std::vector<std::uint32_t> out;
  EXPECT_THROW(decode_index_gaps_into(bytes, 0xFFFFFFFFu, out),
               std::runtime_error);
  EXPECT_LE(out.capacity(), bytes.size());
  EXPECT_THROW(decode_index_gaps_into(bytes, 8 * bytes.size() + 1, out),
               std::runtime_error);
  EXPECT_LE(out.capacity(), bytes.size());
}

class IndexGapsSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IndexGapsSweep, RandomSubsetsRoundTrip) {
  const std::size_t k = GetParam();
  core::Arena arena;
  std::vector<std::uint32_t> indices;
  random_indices_into(100000, k, /*seed=*/k * 977 + 1, indices, arena);
  BitWriter w;
  encode_index_gaps(indices, w);
  std::vector<std::uint32_t> back;
  decode_index_gaps_into(w.bytes(), indices.size(), back);
  EXPECT_EQ(back, indices);
}

INSTANTIATE_TEST_SUITE_P(Sizes, IndexGapsSweep,
                         ::testing::Values(1u, 2u, 10u, 100u, 1000u, 10000u));

// -------------------------------------------------------------- float codec

// Encodes `vals` with the dispatching encoder and decodes them back.
std::vector<float> round_trip(std::span<const float> vals, BitWriter& w) {
  w.clear();
  compress_floats(vals, w);
  std::vector<float> back;
  decompress_floats_into(w.bytes(), vals.size(), back);
  return back;
}

TEST(FloatCodec, EmptyStream) {
  BitWriter w;
  EXPECT_TRUE(round_trip({}, w).empty());
  EXPECT_TRUE(w.bytes().empty());
}

TEST(FloatCodec, SingleValue) {
  const std::vector<float> vals{3.14159f};
  BitWriter w;
  EXPECT_EQ(round_trip(vals, w), vals);
}

TEST(FloatCodec, ConstantRunIsTiny) {
  const std::vector<float> vals(1000, 1.5f);
  BitWriter w;
  EXPECT_EQ(round_trip(vals, w), vals);
  // First value: 32 bits; every repeat: 1 bit -> ~129 bytes total.
  EXPECT_LT(w.bytes().size(), 160u);
}

TEST(FloatCodec, SpecialValuesAreLossless) {
  const std::vector<float> vals{
      0.0f, -0.0f, std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::max(), std::numeric_limits<float>::lowest(),
      1e-38f, -1e38f};
  BitWriter w;
  const auto back = round_trip(vals, w);
  ASSERT_EQ(back.size(), vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    // Bit-exact comparison (covers -0.0 vs 0.0).
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back[i]),
              std::bit_cast<std::uint32_t>(vals[i]));
  }
}

TEST(FloatCodec, NanPreservedBitExact) {
  const float nan1 = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> vals{1.0f, nan1, 2.0f};
  BitWriter w;
  const auto back = round_trip(vals, w);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(back[1]),
            std::bit_cast<std::uint32_t>(nan1));
}

TEST(FloatCodec, WireCountBoundedByStreamBeforeReserve) {
  // Both decoder tiers: a count the stream cannot hold (every value costs
  // at least one bit) throws before `out` reserves anything.
  const std::vector<std::uint8_t> bytes(10, 0xFF);
  for (auto* decode : {&decompress_floats_into_scalar,
                       &decompress_floats_into_fast}) {
    std::vector<float> out;
    EXPECT_THROW(decode(bytes, 0xFFFFFFFFu, out), std::runtime_error);
    EXPECT_LE(out.capacity(), bytes.size());
    EXPECT_THROW(decode(bytes, 8 * bytes.size() + 1, out), std::runtime_error);
    EXPECT_LE(out.capacity(), bytes.size());
  }
}

class FloatCodecSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(FloatCodecSweep, RandomStreamsRoundTripLosslessly) {
  std::mt19937 rng(GetParam());
  std::normal_distribution<float> dist(0.0f, 2.0f);
  std::vector<float> vals(1537);
  for (float& v : vals) v = dist(rng);
  BitWriter w;
  const auto back = round_trip(vals, w);
  ASSERT_EQ(back.size(), vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back[i]),
              std::bit_cast<std::uint32_t>(vals[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloatCodecSweep, ::testing::Range(1u, 9u));

TEST(FloatCodec, CorrelatedStreamCompresses) {
  // Slowly-varying values (like a trained model's parameter vector) share
  // sign/exponent bits, so the XOR predictor shortens them.
  std::vector<float> vals(4096);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = 0.5f + 1e-4f * static_cast<float>(i % 97);
  }
  BitWriter w;
  EXPECT_EQ(round_trip(vals, w), vals);
  EXPECT_LT(w.bytes().size(), vals.size() * 4 * 8 / 10);  // >= 20% saving
}

TEST(FloatCodec, SizeEstimatorMatches) {
  std::mt19937 rng(21);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> vals(777);
  for (float& v : vals) v = dist(rng);
  BitWriter w;
  compress_floats(vals, w);
  EXPECT_EQ(compressed_floats_size(vals), w.bytes().size());
}

// --------------------------------------------------------------------- topk

TEST(TopK, SelectsLargestMagnitudes) {
  const std::vector<float> v{0.1f, -5.0f, 3.0f, -0.2f, 4.0f};
  std::vector<std::uint32_t> idx;
  topk_indices_into(v, 2, idx);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 4}));
}

TEST(TopK, SortedAscendingOutput) {
  std::mt19937 rng(5);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> v(500);
  for (float& x : v) x = dist(rng);
  std::vector<std::uint32_t> idx;
  topk_indices_into(v, 50, idx);
  EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
  EXPECT_EQ(idx.size(), 50u);
}

TEST(TopK, ThresholdProperty) {
  // Every selected magnitude >= every unselected magnitude.
  std::mt19937 rng(17);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> v(200);
  for (float& x : v) x = dist(rng);
  std::vector<std::uint32_t> idx;
  topk_indices_into(v, 40, idx);
  std::vector<bool> selected(v.size(), false);
  float min_selected = std::numeric_limits<float>::infinity();
  for (auto i : idx) {
    selected[i] = true;
    min_selected = std::min(min_selected, std::fabs(v[i]));
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!selected[i]) {
      EXPECT_LE(std::fabs(v[i]), min_selected + 1e-6f);
    }
  }
}

TEST(TopK, KLargerThanNReturnsAll) {
  const std::vector<float> v{1.0f, 2.0f};
  std::vector<std::uint32_t> idx;
  topk_indices_into(v, 10, idx);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{0, 1}));
}

TEST(TopK, ZeroKReturnsEmpty) {
  const std::vector<float> v{1.0f, 2.0f};
  std::vector<std::uint32_t> idx{9};
  topk_indices_into(v, 0, idx);
  EXPECT_TRUE(idx.empty());
}

TEST(RandomIndices, DistinctSortedDeterministic) {
  core::Arena arena;
  std::vector<std::uint32_t> a, b;
  random_indices_into(1000, 100, 42, a, arena);
  random_indices_into(1000, 100, 42, b, arena);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_NE(a[i - 1], a[i]);
  EXPECT_LT(a.back(), 1000u);
}

TEST(RandomIndices, DifferentSeedsDiffer) {
  core::Arena arena;
  std::vector<std::uint32_t> a, b;
  random_indices_into(1000, 100, 1, a, arena);
  random_indices_into(1000, 100, 2, b, arena);
  EXPECT_NE(a, b);
}

TEST(RandomIndices, FullSelection) {
  core::Arena arena;
  std::vector<std::uint32_t> a;
  random_indices_into(10, 10, 3, a, arena);
  EXPECT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(a[i], i);
}

TEST(RandomIndices, RoughlyUniformCoverage) {
  // Across many seeds, each position should be picked ~k/n of the time.
  const std::size_t n = 50, k = 10, trials = 2000;
  std::vector<std::size_t> hits(n, 0);
  core::Arena arena;
  std::vector<std::uint32_t> picked;
  for (std::size_t s = 0; s < trials; ++s) {
    arena.reset();
    random_indices_into(n, k, s, picked, arena);
    for (auto i : picked) ++hits[i];
  }
  const double expected = static_cast<double>(trials) * k / n;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]), expected, expected * 0.35)
        << "position " << i;
  }
}

TEST(GatherScatter, RoundTrip) {
  const std::vector<float> dense{0, 10, 20, 30, 40};
  const std::vector<std::uint32_t> idx{1, 3};
  std::vector<float> vals;
  gather_into(dense, idx, vals);
  EXPECT_EQ(vals, (std::vector<float>{10, 30}));
  std::vector<float> out(5, -1.0f);
  scatter(out, idx, vals);
  EXPECT_EQ(out, (std::vector<float>{-1, 10, -1, 30, -1}));
}

TEST(GatherScatter, BoundsChecked) {
  const std::vector<float> dense{1.0f};
  const std::vector<std::uint32_t> bad{5};
  std::vector<float> out(1);
  EXPECT_THROW(gather_into(dense, bad, out), std::out_of_range);
  const std::vector<float> vals{1.0f};
  EXPECT_THROW(scatter(out, bad, vals), std::out_of_range);
  const std::vector<std::uint32_t> idx{0};
  const std::vector<float> too_many{1.0f, 2.0f};
  EXPECT_THROW(scatter(out, idx, too_many), std::invalid_argument);
}

// ------------------------------------------- payload decoder index contract

/// A hand-built payload message: raw values, and either raw indices or an
/// Elias-gamma gap stream over `indices` — whatever the header claims, with
/// no encoder-side validation in the way.
std::vector<std::uint8_t> crafted_payload(core::IndexEncoding mode,
                                          std::uint32_t vector_length,
                                          const std::vector<std::uint32_t>& indices) {
  net::ByteWriter body;
  body.write_u8(static_cast<std::uint8_t>(mode));
  body.write_u8(static_cast<std::uint8_t>(core::ValueEncoding::kRaw));
  body.write_u32(vector_length);
  body.write_u32(static_cast<std::uint32_t>(indices.size()));
  if (mode == core::IndexEncoding::kRaw) {
    body.write_u32_array(indices);
  } else {
    BitWriter gaps;
    encode_index_gaps(indices, gaps);
    body.write_bytes(gaps.bytes());
  }
  body.write_f32_array(std::vector<float>(indices.size(), 1.0f));
  return std::move(body).take();
}

TEST(PayloadDecode, AcceptsAscendingInRangeIndices) {
  core::Arena arena;
  core::SparsePayload out;
  for (const auto mode : {core::IndexEncoding::kRaw,
                          core::IndexEncoding::kEliasGamma}) {
    const std::vector<std::uint32_t> indices{0, 4, 9};
    core::decode_payload_into(crafted_payload(mode, 10, indices), out, arena);
    EXPECT_EQ(out.indices, indices);
    EXPECT_EQ(out.vector_length, 10u);
  }
}

TEST(PayloadDecode, RejectsEliasIndexPastVectorLength) {
  core::Arena arena;
  core::SparsePayload out;
  EXPECT_THROW(core::decode_payload_into(
                   crafted_payload(core::IndexEncoding::kEliasGamma, 10,
                                   {2, 10}),
                   out, arena),
               std::runtime_error);
  EXPECT_THROW(core::decode_payload_into(
                   crafted_payload(core::IndexEncoding::kEliasGamma, 10,
                                   {4000000000u}),
                   out, arena),
               std::runtime_error);
}

TEST(PayloadDecode, RejectsRawIndicesThatAreNotStrictlyAscending) {
  core::Arena arena;
  core::SparsePayload out;
  for (const std::vector<std::uint32_t>& bad :
       {std::vector<std::uint32_t>{5, 1, 7}, std::vector<std::uint32_t>{1, 5, 5},
        std::vector<std::uint32_t>{3, 3}}) {
    EXPECT_THROW(core::decode_payload_into(
                     crafted_payload(core::IndexEncoding::kRaw, 10, bad), out,
                     arena),
                 std::runtime_error);
  }
}

TEST(PayloadDecode, RejectsRawIndexPastVectorLength) {
  core::Arena arena;
  core::SparsePayload out;
  EXPECT_THROW(core::decode_payload_into(
                   crafted_payload(core::IndexEncoding::kRaw, 10, {1, 5, 10}),
                   out, arena),
               std::runtime_error);
  EXPECT_THROW(core::decode_payload_into(
                   crafted_payload(core::IndexEncoding::kRaw, 10, {0xFFFFFFFFu}),
                   out, arena),
               std::runtime_error);
}

// Two hostile bodies that used to decode to empty indices, which
// SparsePayload::dense() reads as "dense": averaging then walked values[i]
// up to vector_length over a one-entry (or empty) value array.
TEST(PayloadDecode, RejectsUnknownEncodingBytes) {
  core::Arena arena;
  core::SparsePayload out;
  // 18 bytes: index encoding byte 9 (no such mode), raw values,
  // vector_length 4096, count 1, and a one-float value array.
  net::ByteWriter body;
  body.write_u8(9);
  body.write_u8(static_cast<std::uint8_t>(core::ValueEncoding::kRaw));
  body.write_u32(4096);
  body.write_u32(1);
  body.write_f32_array(std::vector<float>{1.0f});
  const std::vector<std::uint8_t> bad_index = std::move(body).take();
  ASSERT_EQ(bad_index.size(), 18u);
  EXPECT_THROW(core::decode_payload_into(bad_index, out, arena),
               std::runtime_error);
  // Value encoding byte 7 (no such mode) on an empty dense body, whose
  // value count (0) the fallen-through value switch would have matched.
  net::ByteWriter dense;
  dense.write_u8(static_cast<std::uint8_t>(core::IndexEncoding::kDense));
  dense.write_u8(7);
  dense.write_u32(0);
  dense.write_u32(0);
  EXPECT_THROW(core::decode_payload_into(dense.buffer(), out, arena),
               std::runtime_error);
}

TEST(PayloadDecode, RejectsAnEmptySparseBody) {
  core::Arena arena;
  core::SparsePayload out;
  // The honest encoder's Elias-gamma/XOR body with 0 entries (senders never
  // produce one: they share max(1, k) entries).
  core::SparsePayload empty;
  empty.vector_length = 4096;
  net::ByteWriter body;
  BitWriter bits;
  core::encode_payload_into(empty, {}, body, bits);
  EXPECT_THROW(core::decode_payload_into(body.buffer(), out, arena),
               std::runtime_error);
  for (const auto mode : {core::IndexEncoding::kRaw,
                          core::IndexEncoding::kEliasGamma}) {
    EXPECT_THROW(
        core::decode_payload_into(crafted_payload(mode, 10, {}), out, arena),
        std::runtime_error);
  }
}

}  // namespace
}  // namespace jwins::compress
