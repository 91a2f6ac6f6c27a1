// Bit-identity harness for the vectorized kernel tiers (ISSUE 9 tentpole).
//
// Every fast kernel in core::KernelDispatch's families — DWT analyze /
// synthesize, TopK bucket-select, blocked QSGD rounding, and the XOR float
// codec block encoder — promises *byte-identical* output to its pinned
// scalar reference. These tests compare the raw output bytes (not
// approximate values) across a size ladder that covers degenerate,
// non-power-of-two, and large inputs, plus adversarial all-equal/all-zero
// vectors and a 200-seed tie-heavy TopK sweep.
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bit_reference.hpp"
#include "compress/bitstream.hpp"
#include "compress/float_codec.hpp"
#include "compress/quantize.hpp"
#include "compress/topk.hpp"
#include "core/kernel_dispatch.hpp"
#include "dwt/dwt.hpp"
#include "dwt/wavelet.hpp"

namespace {

using namespace jwins;

// The ladder from ISSUE 9: degenerate (1..3), around the first vector width
// (15..17), non-power-of-two (255, 65537), and the bench sizes.
const std::vector<std::size_t> kSizes = {1,    2,    3,     15,   16,
                                         17,   255,  1024,  16384, 65537};

std::vector<float> random_values(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> out(n);
  for (float& v : out) v = dist(rng);
  return out;
}

// Adversarial variants: all-zero (degenerate norms, empty XOR residuals),
// all-equal (every TopK candidate tied), and alternating-sign equal
// magnitude (ties with sign churn). All NaN-free by construction.
std::vector<std::vector<float>> adversarial_inputs(std::size_t n,
                                                   unsigned seed) {
  std::vector<std::vector<float>> out;
  out.push_back(std::vector<float>(n, 0.0f));
  out.push_back(std::vector<float>(n, 1.5f));
  std::vector<float> alt(n);
  for (std::size_t i = 0; i < n; ++i) alt[i] = (i % 2 == 0) ? 0.25f : -0.25f;
  out.push_back(std::move(alt));
  out.push_back(random_values(n, seed));
  return out;
}

template <class T>
void expect_bytes_equal(const std::vector<T>& a, const std::vector<T>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T))) << what;
  }
}

// --- DWT ---------------------------------------------------------------

TEST(KernelEquivalence, DwtAnalyzeBitIdentical) {
  for (const auto& w : {dwt::haar(), dwt::sym2(), dwt::db4()}) {
    for (std::size_t raw : kSizes) {
      const std::size_t n = std::max<std::size_t>(2, raw & ~std::size_t{1});
      for (const auto& input : adversarial_inputs(n, 11)) {
        std::vector<float> a_s(n / 2), d_s(n / 2), a_f(n / 2), d_f(n / 2);
        dwt::analyze_level_scalar(w, input, a_s, d_s);
        dwt::analyze_level_fast(w, input, a_f, d_f);
        const std::string what = w.name + " n=" + std::to_string(n);
        expect_bytes_equal(a_s, a_f, "approx " + what);
        expect_bytes_equal(d_s, d_f, "detail " + what);
      }
    }
  }
}

TEST(KernelEquivalence, DwtSynthesizeBitIdentical) {
  for (const auto& w : {dwt::haar(), dwt::sym2(), dwt::db4()}) {
    for (std::size_t raw : kSizes) {
      const std::size_t n = std::max<std::size_t>(2, raw & ~std::size_t{1});
      for (const auto& input : adversarial_inputs(n, 13)) {
        // Use analysis coefficients as synthesis input so the data exercises
        // realistic dynamic range (any pair of half-length spans is legal).
        std::vector<float> approx(n / 2), detail(n / 2);
        dwt::analyze_level_scalar(w, input, approx, detail);
        std::vector<float> out_s(n), out_f(n);
        dwt::synthesize_level_scalar(w, approx, detail, out_s);
        dwt::synthesize_level_fast(w, approx, detail, out_f);
        expect_bytes_equal(out_s, out_f,
                           w.name + " n=" + std::to_string(n));
      }
    }
  }
}

// --- TopK --------------------------------------------------------------

TEST(KernelEquivalence, TopkIdenticalIndexSet) {
  for (std::size_t n : kSizes) {
    for (const auto& values : adversarial_inputs(n, 17)) {
      for (std::size_t k :
           {std::size_t{0}, std::size_t{1}, n / 10, n / 2, n - 1, n, n + 7}) {
        std::vector<std::uint32_t> idx_s, idx_f;
        compress::topk_indices_into_scalar(values, k, idx_s);
        compress::topk_indices_into_fast(values, k, idx_f);
        EXPECT_EQ(idx_s, idx_f) << "n=" << n << " k=" << k;
      }
    }
  }
}

// 200-seed randomized sweep over tie-heavy inputs: values drawn from a small
// discrete magnitude set so the boundary bucket is packed with exact ties.
// The fast path must return *exactly* the reference index set, which pins
// the shared tie rule (magnitude descending, index ascending).
TEST(KernelEquivalence, TopkTieBreak200SeedSweep) {
  const std::size_t n = 8192;  // above the bucket-select threshold
  for (unsigned seed = 0; seed < 200; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> mag(0, 4);
    std::uniform_int_distribution<int> sign(0, 1);
    std::vector<float> values(n);
    for (float& v : values) {
      v = static_cast<float>(mag(rng)) * 0.5f * (sign(rng) ? 1.0f : -1.0f);
    }
    const std::size_t k = n / 10 + (seed % 64);
    std::vector<std::uint32_t> idx_s, idx_f;
    compress::topk_indices_into_scalar(values, k, idx_s);
    compress::topk_indices_into_fast(values, k, idx_f);
    ASSERT_EQ(idx_s, idx_f) << "seed=" << seed;
  }
}

// --- QSGD --------------------------------------------------------------

TEST(KernelEquivalence, QsgdBitIdentical) {
  for (std::size_t n : kSizes) {
    for (const auto& values : adversarial_inputs(n, 23)) {
      for (std::uint32_t levels : {1u, 15u, 16u, 255u}) {
        std::mt19937_64 rng_s(99), rng_f(99);
        compress::QuantizedVector q_s, q_f;
        compress::qsgd_quantize_into_scalar(std::span<const float>(values),
                                            levels, rng_s, q_s);
        compress::qsgd_quantize_into_fast(std::span<const float>(values),
                                          levels, rng_f, q_f);
        ASSERT_EQ(q_s.norm, q_f.norm) << "n=" << n << " levels=" << levels;
        ASSERT_EQ(q_s.count, q_f.count);
        expect_bytes_equal(q_s.packed, q_f.packed,
                           "n=" + std::to_string(n) +
                               " levels=" + std::to_string(levels));
        // Both tiers must also have consumed the same number of draws.
        EXPECT_EQ(rng_s(), rng_f()) << "RNG streams diverged";
      }
    }
  }
}

// --- XOR float codec ---------------------------------------------------

TEST(KernelEquivalence, XorCodecBitIdentical) {
  for (std::size_t n : kSizes) {
    for (const auto& values : adversarial_inputs(n, 29)) {
      compress::BitWriter w_s, w_f;
      compress::compress_floats_scalar(values, w_s);
      compress::compress_floats_fast(values, w_f);
      ASSERT_EQ(w_s.bit_count(), w_f.bit_count()) << "n=" << n;
      const auto bytes_s = std::move(w_s).finish();
      const auto bytes_f = std::move(w_f).finish();
      expect_bytes_equal(bytes_s, bytes_f, "encode n=" + std::to_string(n));
      std::vector<float> dec_s, dec_f;
      compress::decompress_floats_into_scalar(bytes_s, n, dec_s);
      compress::decompress_floats_into_fast(bytes_s, n, dec_f);
      expect_bytes_equal(dec_s, dec_f, "decode n=" + std::to_string(n));
      expect_bytes_equal(dec_s, values, "roundtrip n=" + std::to_string(n));
    }
  }
}

// Truncated and bit-flipped streams: both decoder tiers and the
// bit-at-a-time reference give identical floats or the same exception type.
TEST(KernelEquivalence, XorDecodeMalformedStreamsIdentical) {
  using testref::Failure;
  auto expect_same = [](std::span<const std::uint8_t> bytes, std::size_t n,
                        const std::string& what) {
    std::vector<float> dec_s, dec_f, dec_r;
    const Failure fail_s = testref::failure_of(
        [&] { compress::decompress_floats_into_scalar(bytes, n, dec_s); });
    const Failure fail_f = testref::failure_of(
        [&] { compress::decompress_floats_into_fast(bytes, n, dec_f); });
    const Failure fail_r = testref::failure_of(
        [&] { testref::ref_decompress_floats(bytes, n, dec_r); });
    ASSERT_EQ(static_cast<int>(fail_s), static_cast<int>(fail_r)) << what;
    ASSERT_EQ(static_cast<int>(fail_f), static_cast<int>(fail_r)) << what;
    if (fail_r != Failure::kNone) return;
    expect_bytes_equal(dec_s, dec_r, "scalar " + what);
    expect_bytes_equal(dec_f, dec_r, "fast " + what);
  };
  std::mt19937_64 rng(41);
  for (std::size_t n : {1, 2, 3, 17, 255, 1024}) {
    for (const auto& values : adversarial_inputs(n, 37)) {
      compress::BitWriter w;
      compress::compress_floats_scalar(values, w);
      const auto bytes = std::move(w).finish();
      const std::string size = "n=" + std::to_string(n);
      expect_same(bytes, n + 1, size + " one value too many");
      for (std::size_t len = 0; len <= bytes.size(); ++len) {
        expect_same(std::span(bytes).first(len), n,
                    size + " len=" + std::to_string(len));
      }
      // Every bit of short streams, 256 seeded bits of long ones.
      const std::size_t bits = 8 * bytes.size();
      const std::size_t flips = bits <= 256 ? bits : 256;
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t bit = bits <= 256 ? f : rng() % bits;
        auto flipped = bytes;
        flipped[bit / 8] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
        expect_same(flipped, n, size + " flip=" + std::to_string(bit));
      }
    }
  }
}

// --- Dispatch plumbing -------------------------------------------------

TEST(KernelEquivalence, ScopedForceSelectsTier) {
  {
    core::KernelDispatch::ScopedForce forced(core::KernelTier::kScalar);
    EXPECT_EQ(core::KernelDispatch::tier(), core::KernelTier::kScalar);
    EXPECT_STREQ(core::KernelDispatch::tier_name(), "scalar");
    {
      core::KernelDispatch::ScopedForce nested(core::KernelTier::kFast);
      EXPECT_TRUE(core::KernelDispatch::fast());
    }
    EXPECT_FALSE(core::KernelDispatch::fast());
  }
  // Dispatched entry points honor the override: the same call under both
  // forces must agree (they run different code paths).
  const std::vector<float> values = random_values(5000, 31);
  std::vector<std::uint32_t> idx_scalar, idx_fast;
  {
    core::KernelDispatch::ScopedForce forced(core::KernelTier::kScalar);
    compress::topk_indices_into(values, 500, idx_scalar);
  }
  {
    core::KernelDispatch::ScopedForce forced(core::KernelTier::kFast);
    compress::topk_indices_into(values, 500, idx_fast);
  }
  EXPECT_EQ(idx_scalar, idx_fast);
}

}  // namespace
