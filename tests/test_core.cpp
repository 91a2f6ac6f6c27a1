#include <gtest/gtest.h>

#include <random>
#include <span>

#include "core/averaging.hpp"
#include "core/cutoff.hpp"
#include "core/ranker.hpp"
#include "core/sparse_payload.hpp"
#include "compress/topk.hpp"
#include "net/serializer.hpp"

namespace jwins::core {
namespace {

// ------------------------------------------------------------------ cutoff

TEST(RandomizedCutoff, PaperDefaultDistribution) {
  const RandomizedCutoff cutoff = RandomizedCutoff::paper_default();
  EXPECT_EQ(cutoff.alphas().size(), 7u);
  // E[alpha] = mean of {.1,.15,.2,.25,.3,.4,1.0} = 0.3428...
  EXPECT_NEAR(cutoff.expected_alpha(), 2.4 / 7.0, 1e-9);
}

TEST(RandomizedCutoff, SamplesMatchProbabilities) {
  const RandomizedCutoff cutoff = RandomizedCutoff::two_point(0.1, 0.1);
  std::mt19937_64 rng(3);
  std::size_t full = 0;
  const std::size_t trials = 20000;
  for (std::size_t i = 0; i < trials; ++i) {
    const double a = cutoff.sample(rng);
    EXPECT_TRUE(a == 0.1 || a == 1.0);
    if (a == 1.0) ++full;
  }
  EXPECT_NEAR(static_cast<double>(full) / trials, 0.1, 0.01);
}

TEST(RandomizedCutoff, TwoPointBudgets) {
  // The paper's 20% budget: p(100%)=0.1, p(10%)=0.9 -> E = 0.19.
  EXPECT_NEAR(RandomizedCutoff::two_point(0.10, 0.10).expected_alpha(), 0.19, 1e-12);
  // 10% budget: p(100%)=0.05, p(5%)=0.95 -> E = 0.0975.
  EXPECT_NEAR(RandomizedCutoff::two_point(0.05, 0.05).expected_alpha(), 0.0975, 1e-12);
}

TEST(RandomizedCutoff, FixedAlwaysReturnsAlpha) {
  const RandomizedCutoff cutoff = RandomizedCutoff::fixed(0.37);
  std::mt19937_64 rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(cutoff.sample(rng), 0.37);
}

TEST(RandomizedCutoff, ValidatesInputs) {
  EXPECT_THROW(RandomizedCutoff({}, {}), std::invalid_argument);
  EXPECT_THROW(RandomizedCutoff({0.5}, {0.9}), std::invalid_argument);     // sum != 1
  EXPECT_THROW(RandomizedCutoff({1.5}, {1.0}), std::invalid_argument);     // alpha > 1
  EXPECT_THROW(RandomizedCutoff({0.5, 0.6}, {1.0}), std::invalid_argument);
  EXPECT_THROW(RandomizedCutoff::two_point(0.1, 1.0), std::invalid_argument);
}

// ------------------------------------------------------------------ ranker

WaveletRanker::Options identity_options() {
  WaveletRanker::Options opt;
  opt.wavelet = WaveletRanker::kIdentity;
  return opt;
}

TEST(WaveletRanker, IdentityTransformAccumulates) {
  WaveletRanker ranker(4, identity_options());
  Arena arena;
  dwt::DwtWorkspace ws;
  const std::vector<float> x0{0, 0, 0, 0};
  const std::vector<float> x1{1, -2, 0, 3};
  auto scores = ranker.accumulate_round_change(x0, x1, arena, ws);
  EXPECT_FLOAT_EQ(scores[0], 1.0f);
  EXPECT_FLOAT_EQ(scores[1], -2.0f);
  EXPECT_FLOAT_EQ(scores[3], 3.0f);
  // Second round accumulates on top (eq. 3).
  const std::vector<float> x2{2, -2, 0, 3};
  scores = ranker.accumulate_round_change(x1, x2, arena, ws);
  EXPECT_FLOAT_EQ(scores[0], 2.0f);
  EXPECT_FLOAT_EQ(scores[1], -2.0f);
}

TEST(WaveletRanker, NoAccumulationClearsEachRound) {
  auto opt = identity_options();
  opt.use_accumulation = false;
  WaveletRanker ranker(3, opt);
  Arena arena;
  dwt::DwtWorkspace ws;
  ranker.accumulate_round_change(std::vector<float>{0, 0, 0},
                                 std::vector<float>{5, 5, 5}, arena, ws);
  const auto scores = ranker.accumulate_round_change(
      std::vector<float>{5, 5, 5}, std::vector<float>{6, 5, 5}, arena, ws);
  EXPECT_FLOAT_EQ(scores[0], 1.0f);  // only this round's change
  EXPECT_FLOAT_EQ(scores[1], 0.0f);
}

TEST(WaveletRanker, FinishRoundResetsSentEntries) {
  WaveletRanker ranker(4, identity_options());
  Arena arena;
  dwt::DwtWorkspace ws;
  ranker.accumulate_round_change(std::vector<float>{0, 0, 0, 0},
                                 std::vector<float>{1, 2, 3, 4}, arena, ws);
  // Suppose averaging leaves the model unchanged; entries 1 and 3 were sent.
  const std::vector<std::uint32_t> sent{1, 3};
  ranker.finish_round(std::vector<float>{1, 2, 3, 4},
                      std::vector<float>{1, 2, 3, 4}, sent, arena, ws);
  const auto scores = ranker.scores();
  EXPECT_FLOAT_EQ(scores[0], 1.0f);
  EXPECT_FLOAT_EQ(scores[1], 0.0f);  // reset
  EXPECT_FLOAT_EQ(scores[2], 3.0f);
  EXPECT_FLOAT_EQ(scores[3], 0.0f);  // reset
}

TEST(WaveletRanker, FinishRoundFoldsAveragingChange) {
  // Eq. (4): V_{t+1} = V_t + T(x^{t+1,0} - x^{t,0}) (then resets). With the
  // identity transform this is directly checkable.
  WaveletRanker ranker(2, identity_options());
  Arena arena;
  dwt::DwtWorkspace ws;
  ranker.accumulate_round_change(std::vector<float>{0, 0},
                                 std::vector<float>{1, 1}, arena,
                                 ws);  // V' = (1, 1)
  ranker.finish_round(std::vector<float>{1, 1}, std::vector<float>{1.5, 0.5},
                      {}, arena, ws);  // + (0.5, -0.5)
  const auto scores = ranker.scores();
  EXPECT_FLOAT_EQ(scores[0], 1.5f);
  EXPECT_FLOAT_EQ(scores[1], 0.5f);
}

TEST(WaveletRanker, WaveletModeUsesTransformDomain) {
  WaveletRanker::Options opt;  // defaults: sym2, 4 levels, wavelet on
  WaveletRanker ranker(64, opt);
  EXPECT_EQ(ranker.coeff_length(), 64u);
  Arena arena;
  dwt::DwtWorkspace ws;
  std::vector<float> x0(64, 0.0f), x1(64, 1.0f);
  const auto scores = ranker.accumulate_round_change(x0, x1, arena, ws);
  // Constant change -> only approximation-band coefficients are non-zero.
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < 4; ++i) head += std::abs(scores[i]);
  for (std::size_t i = 4; i < 64; ++i) tail += std::abs(scores[i]);
  EXPECT_GT(head, 1.0);
  EXPECT_NEAR(tail, 0.0, 1e-4);
}

TEST(WaveletRanker, TransformInverseRoundTrip) {
  WaveletRanker::Options opt;
  WaveletRanker ranker(100, opt);
  std::mt19937 rng(5);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> x(100);
  for (float& v : x) v = dist(rng);
  dwt::DwtWorkspace ws;
  std::vector<float> coeffs(ranker.coeff_length()), back(x.size());
  ranker.transform_into(x, coeffs, ws);
  ranker.inverse_into(coeffs, back, ws);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-4f);
}

TEST(WaveletRanker, SizeMismatchThrows) {
  WaveletRanker ranker(8, identity_options());
  Arena arena;
  dwt::DwtWorkspace ws;
  const std::vector<float> wrong(5, 0.0f);
  const std::vector<float> right(8, 0.0f);
  std::vector<float> coeffs(ranker.coeff_length());
  EXPECT_THROW(ranker.accumulate_round_change(wrong, right, arena, ws),
               std::invalid_argument);
  EXPECT_THROW(ranker.transform_into(wrong, coeffs, ws), std::invalid_argument);
  EXPECT_THROW(ranker.finish_round(wrong, right, {}, arena, ws),
               std::invalid_argument);
}

// ----------------------------------------------------------------- payload

struct PayloadCase {
  IndexEncoding index_mode;
  ValueEncoding value_mode;
};

class PayloadParam : public ::testing::TestWithParam<PayloadCase> {};

TEST_P(PayloadParam, EncodeDecodeRoundTrip) {
  const auto [index_mode, value_mode] = GetParam();
  SparsePayload payload;
  payload.vector_length = 1000;
  PayloadOptions options;
  options.index_encoding = index_mode;
  options.value_encoding = value_mode;
  std::mt19937 rng(9);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  Arena arena;
  if (index_mode == IndexEncoding::kDense) {
    payload.values.resize(1000);
    for (float& v : payload.values) v = dist(rng);
  } else {
    if (index_mode == IndexEncoding::kSeed) options.seed = 424242;
    compress::random_indices_into(
        1000, 100, index_mode == IndexEncoding::kSeed ? options.seed : 7,
        payload.indices, arena);
    payload.values = std::vector<float>(100);
    for (float& v : payload.values) v = dist(rng);
  }

  net::ByteWriter body;
  compress::BitWriter bits;
  const std::size_t metadata =
      encode_payload_into(payload, options, body, bits);
  EXPECT_GT(metadata, 0u);
  EXPECT_LT(metadata, body.size());
  SparsePayload back;
  decode_payload_into(body.buffer(), back, arena);
  EXPECT_EQ(back.vector_length, payload.vector_length);
  EXPECT_EQ(back.values, payload.values);
  if (index_mode == IndexEncoding::kDense) {
    EXPECT_TRUE(back.dense());
  } else {
    EXPECT_EQ(back.indices, payload.indices);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PayloadParam,
    ::testing::Values(PayloadCase{IndexEncoding::kDense, ValueEncoding::kRaw},
                      PayloadCase{IndexEncoding::kDense, ValueEncoding::kXorCodec},
                      PayloadCase{IndexEncoding::kEliasGamma, ValueEncoding::kRaw},
                      PayloadCase{IndexEncoding::kEliasGamma, ValueEncoding::kXorCodec},
                      PayloadCase{IndexEncoding::kRaw, ValueEncoding::kRaw},
                      PayloadCase{IndexEncoding::kRaw, ValueEncoding::kXorCodec},
                      PayloadCase{IndexEncoding::kSeed, ValueEncoding::kRaw},
                      PayloadCase{IndexEncoding::kSeed, ValueEncoding::kXorCodec}));

// Encode/decode scratch shared by the payload cases.
class Payload : public ::testing::Test {
 protected:
  net::ByteWriter body;
  compress::BitWriter bits;
  Arena arena;
};

TEST_F(Payload, EliasMetadataMuchSmallerThanRaw) {
  SparsePayload payload;
  payload.vector_length = 100000;
  compress::random_indices_into(100000, 30000, 3, payload.indices, arena);
  payload.values.assign(30000, 1.0f);
  PayloadOptions elias;
  elias.index_encoding = IndexEncoding::kEliasGamma;
  elias.value_encoding = ValueEncoding::kRaw;
  PayloadOptions raw = elias;
  raw.index_encoding = IndexEncoding::kRaw;
  net::ByteWriter e_body, r_body;
  const std::size_t e = encode_payload_into(payload, elias, e_body, bits);
  const std::size_t r = encode_payload_into(payload, raw, r_body, bits);
  // Figure 9: Elias gamma shrinks the metadata by roughly an order of
  // magnitude relative to 4-byte raw indices for dense-ish selections.
  EXPECT_LT(e * 5, r);
}

TEST_F(Payload, SeedMetadataIsConstantSize) {
  SparsePayload payload;
  payload.vector_length = 50000;
  PayloadOptions options;
  options.index_encoding = IndexEncoding::kSeed;
  options.seed = 99;
  options.value_encoding = ValueEncoding::kRaw;
  compress::random_indices_into(50000, 10000, 99, payload.indices, arena);
  payload.values.assign(10000, 0.5f);
  // header (2 + 4 + 4) + seed (8) = 18 bytes of metadata regardless of k.
  EXPECT_EQ(encode_payload_into(payload, options, body, bits), 18u);
}

TEST_F(Payload, MalformedDenseThrows) {
  SparsePayload payload;
  payload.vector_length = 10;
  payload.values.assign(5, 1.0f);  // wrong size for dense
  PayloadOptions options;
  options.index_encoding = IndexEncoding::kDense;
  EXPECT_THROW(encode_payload_into(payload, options, body, bits),
               std::invalid_argument);
}

TEST_F(Payload, SeedIndexValueMismatchThrows) {
  // The seed regenerates the indices on the receiver, but a drawn index set
  // passed along with the values must still align with them.
  SparsePayload payload;
  payload.vector_length = 10;
  payload.indices = {1, 5, 7};
  payload.values = {1.0f, 2.0f};
  PayloadOptions options;
  options.index_encoding = IndexEncoding::kSeed;
  options.seed = 5;
  EXPECT_THROW(encode_payload_into(payload, options, body, bits),
               std::invalid_argument);
  payload.indices.clear();  // values only: the seed alone carries the set
  EXPECT_NO_THROW(encode_payload_into(payload, options, body, bits));
}

TEST_F(Payload, TruncatedBodyThrows) {
  SparsePayload payload;
  payload.vector_length = 10;
  payload.indices = {1, 5};
  payload.values = {1.0f, 2.0f};
  encode_payload_into(payload, {}, body, bits);
  std::vector<std::uint8_t> cut(body.buffer().begin(), body.buffer().end() - 3);
  SparsePayload back;
  EXPECT_THROW(decode_payload_into(cut, back, arena), std::exception);
}

TEST_F(Payload, WireCountBoundedBeforeDecode) {
  // A hostile header claims 0xFFFFFFFF entries over a tiny body. Each index
  // mode must reject it before any output buffer grows past the body size.
  struct Row {
    IndexEncoding mode;
    std::uint32_t vector_length;
  };
  const Row rows[] = {
      {IndexEncoding::kDense, 0xFFFFFFFFu},       // XOR value decoder bound
      {IndexEncoding::kEliasGamma, 0xFFFFFFFFu},  // Elias index decoder bound
      {IndexEncoding::kRaw, 0xFFFFFFFFu},         // raw array length check
      {IndexEncoding::kSeed, 64},                 // count > vector_length
  };
  const std::vector<std::uint8_t> blob(8, 0xFF);
  for (const Row& row : rows) {
    SCOPED_TRACE(static_cast<int>(row.mode));
    body.clear();
    body.write_u8(static_cast<std::uint8_t>(row.mode));
    body.write_u8(static_cast<std::uint8_t>(ValueEncoding::kXorCodec));
    body.write_u32(row.vector_length);
    body.write_u32(0xFFFFFFFFu);
    switch (row.mode) {
      case IndexEncoding::kDense: break;
      case IndexEncoding::kEliasGamma: body.write_bytes(blob); break;
      case IndexEncoding::kRaw:
        body.write_u32_array(std::vector<std::uint32_t>{1, 2});
        break;
      case IndexEncoding::kSeed: body.write_u64(7); break;
    }
    body.write_bytes(blob);
    SparsePayload out;
    EXPECT_THROW(decode_payload_into(body.buffer(), out, arena),
                 std::runtime_error);
    EXPECT_LE(out.indices.capacity(), body.size());
    EXPECT_LE(out.values.capacity(), body.size());
  }
}

TEST_F(Payload, MakeMessageWiresAccounting) {
  SparsePayload payload;
  payload.vector_length = 100;
  compress::random_indices_into(100, 10, 1, payload.indices, arena);
  payload.values.assign(10, 2.0f);
  net::BufferPool pool;
  const net::Message msg = make_message(3, 7, payload, {}, pool, bits);
  EXPECT_EQ(msg.sender, 3u);
  EXPECT_EQ(msg.round, 7u);
  EXPECT_GT(msg.metadata_bytes, 0u);
  EXPECT_GT(msg.payload_bytes(), 0u);
  EXPECT_EQ(msg.body.size(), msg.metadata_bytes + msg.payload_bytes());
}

// --------------------------------------------------------------- averaging

// The averaging accumulators come from this arena.
class PartialAverage : public ::testing::Test {
 protected:
  Arena arena;
};
using PartialAverageScaled = PartialAverage;

TEST_F(PartialAverage, DenseReducesToWeightedMean) {
  std::vector<float> own{1.0f, 1.0f};
  SparsePayload p1;
  p1.vector_length = 2;
  p1.values = {3.0f, 5.0f};
  SparsePayload p2;
  p2.vector_length = 2;
  p2.values = {7.0f, 9.0f};
  const std::vector<WeightedContribution> contribs{{0.25, &p1}, {0.25, &p2}};
  partial_average(own, 0.5, contribs, arena);
  EXPECT_FLOAT_EQ(own[0], 0.5f * 1 + 0.25f * 3 + 0.25f * 7);
  EXPECT_FLOAT_EQ(own[1], 0.5f * 1 + 0.25f * 5 + 0.25f * 9);
}

TEST_F(PartialAverage, MissingCoordinatesKeepOwnValue) {
  std::vector<float> own{1.0f, 2.0f, 3.0f};
  SparsePayload p;
  p.vector_length = 3;
  p.indices = {1};
  p.values = {10.0f};
  const std::vector<WeightedContribution> contribs{{0.5, &p}};
  partial_average(own, 0.5, contribs, arena);
  EXPECT_FLOAT_EQ(own[0], 1.0f);  // nobody contributed -> unchanged
  EXPECT_FLOAT_EQ(own[1], 6.0f);  // (0.5*2 + 0.5*10) / 1.0
  EXPECT_FLOAT_EQ(own[2], 3.0f);
}

TEST_F(PartialAverage, RenormalizesOverContributors) {
  // Two sparse neighbors overlap on index 0 only.
  std::vector<float> own{0.0f, 0.0f};
  SparsePayload p1;
  p1.vector_length = 2;
  p1.indices = {0};
  p1.values = {6.0f};
  SparsePayload p2;
  p2.vector_length = 2;
  p2.indices = {0, 1};
  p2.values = {12.0f, 4.0f};
  const std::vector<WeightedContribution> contribs{{0.25, &p1}, {0.25, &p2}};
  partial_average(own, 0.5, contribs, arena);
  // idx0: (0.5*0 + 0.25*6 + 0.25*12) / 1.0 = 4.5
  EXPECT_FLOAT_EQ(own[0], 4.5f);
  // idx1: (0.5*0 + 0.25*4) / 0.75 = 4/3
  EXPECT_NEAR(own[1], 4.0f / 3.0f, 1e-5f);
}

TEST_F(PartialAverage, ConvexityBound) {
  // The averaged value never escapes [min, max] of the contributions.
  std::mt19937 rng(12);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> own(50);
  for (float& v : own) v = dist(rng);
  SparsePayload p;
  p.vector_length = 50;
  compress::random_indices_into(50, 20, 5, p.indices, arena);
  p.values.resize(20);
  for (float& v : p.values) v = dist(rng);
  std::vector<float> before = own;
  const std::vector<WeightedContribution> contribs{{0.5, &p}};
  partial_average(own, 0.5, contribs, arena);
  for (std::size_t i = 0; i < p.indices.size(); ++i) {
    const std::size_t idx = p.indices[i];
    const float lo = std::min(before[idx], p.values[i]);
    const float hi = std::max(before[idx], p.values[i]);
    EXPECT_GE(own[idx], lo - 1e-5f);
    EXPECT_LE(own[idx], hi + 1e-5f);
  }
}

TEST_F(PartialAverage, ValidatesInputs) {
  std::vector<float> own{1.0f};
  SparsePayload wrong_len;
  wrong_len.vector_length = 7;
  wrong_len.values = {1, 2, 3, 4, 5, 6, 7};
  const std::vector<WeightedContribution> c1{{0.5, &wrong_len}};
  EXPECT_THROW(partial_average(own, 0.5, c1, arena), std::invalid_argument);
  const std::vector<WeightedContribution> c2{{0.5, nullptr}};
  EXPECT_THROW(partial_average(own, 0.5, c2, arena), std::invalid_argument);
  SparsePayload bad_idx;
  bad_idx.vector_length = 1;
  bad_idx.indices = {9};
  bad_idx.values = {1.0f};
  const std::vector<WeightedContribution> c3{{0.5, &bad_idx}};
  EXPECT_THROW(partial_average(own, 0.5, c3, arena), std::out_of_range);
}

TEST_F(PartialAverageScaled, ScaleEqualsReweighting) {
  // A staleness-decayed weight s * w enters the numerator AND the
  // denominator: the result is the convex combination with w shrunk to s * w.
  std::vector<float> own{1.0f, 2.0f};
  SparsePayload p;
  p.vector_length = 2;
  p.values = {9.0f, 5.0f};
  const std::vector<WeightedContribution> decayed{{0.4 * 0.5, &p}};
  partial_average(own, 0.6, decayed, arena);
  const double w = 0.4 * 0.5;
  EXPECT_EQ(own[0], static_cast<float>((0.6 * 1.0 + w * 9.0) / (0.6 + w)));
  EXPECT_EQ(own[1], static_cast<float>((0.6 * 2.0 + w * 5.0) / (0.6 + w)));
}

TEST_F(PartialAverageScaled, StaysConvexAndRenormalized) {
  // With decayed weights the weights no longer sum to 1, but the
  // per-coordinate denominator renormalizes: the result is still a convex
  // combination of own value and contributions.
  std::vector<float> own{0.0f};
  SparsePayload p1;
  p1.vector_length = 1;
  p1.values = {10.0f};
  SparsePayload p2;
  p2.vector_length = 1;
  p2.values = {20.0f};
  const std::vector<WeightedContribution> contribs{{0.25 * 0.5, &p1},
                                                   {0.25 * 0.25, &p2}};
  partial_average(own, 0.5, contribs, arena);
  // (0.5*0 + 0.125*10 + 0.0625*20) / (0.5 + 0.125 + 0.0625) = 2.5/0.6875
  EXPECT_NEAR(own[0], 2.5f / 0.6875f, 1e-5f);
  EXPECT_GE(own[0], 0.0f);
  EXPECT_LE(own[0], 20.0f);
}

}  // namespace
}  // namespace jwins::core
