// Bit-identity harness for the restructured kernels.
//
// Every kernel on the share path — DWT analyze / synthesize, the radix-select
// top-k, the seed-mode index draw, blocked QSGD rounding, and the XOR float
// codec — promises *byte-identical* output to a simple reference: the DWT's
// per-output analyze_level_scalar / scatter synthesize_level_scalar in
// src/dwt (the kernels call them for long filters), the others in
// tests/*_reference.hpp. These tests compare the raw output bytes (not
// approximate values) across a size ladder that covers degenerate,
// non-power-of-two, and large inputs, plus adversarial all-equal/all-zero
// and extreme-magnitude vectors and a 200-seed tie-heavy top-k sweep.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
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
#include "core/arena.hpp"
#include "core/rng.hpp"
#include "dwt/dwt.hpp"
#include "dwt/wavelet.hpp"
#include "dwt_reference.hpp"
#include "float_codec_reference.hpp"
#include "quantize_reference.hpp"
#include "random_indices_reference.hpp"
#include "topk_reference.hpp"

namespace {

using namespace jwins;

// The size ladder: degenerate (1..3), around the first vector width
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
// all-equal (every TopK candidate tied), alternating-sign equal magnitude
// (ties with sign churn), the extreme magnitudes (±inf, ±FLT_MAX,
// ±denorm_min, then subnormals and zeros, so a top-k threshold can be a
// subnormal), and keys that share the top radix digit (the top 11 key bits
// of 1.0f) and spread over the lower 20 bits, so every level of the top-k
// select runs. All NaN-free by construction.
std::vector<std::vector<float>> adversarial_inputs(std::size_t n,
                                                   unsigned seed) {
  std::vector<std::vector<float>> out;
  out.push_back(std::vector<float>(n, 0.0f));
  out.push_back(std::vector<float>(n, 1.5f));
  std::vector<float> alt(n);
  for (std::size_t i = 0; i < n; ++i) alt[i] = (i % 2 == 0) ? 0.25f : -0.25f;
  out.push_back(std::move(alt));
  out.push_back(random_values(n, seed));
  using limits = std::numeric_limits<float>;
  const float extremes[] = {limits::infinity(), -limits::infinity(),
                            limits::max(),      -limits::max(),
                            limits::denorm_min(), -limits::denorm_min()};
  std::vector<float> extreme(n);
  for (std::size_t i = 0; i < n; ++i) {
    extreme[i] = i % 10 < 6 ? extremes[i % 10]
                            : limits::denorm_min() * static_cast<float>(i % 97) *
                                  (i % 2 == 0 ? 1.0f : -1.0f);
  }
  out.push_back(std::move(extreme));
  std::vector<float> top_digit(n);
  std::mt19937 rng(seed);
  for (float& v : top_digit) {
    const std::uint32_t bits = 0x3F800000u | (rng() & 0xFFFFFu);
    v = std::bit_cast<float>(bits) * (rng() % 2 == 0 ? 1.0f : -1.0f);
  }
  out.push_back(std::move(top_digit));
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
        dwt::analyze_level(w, input, a_f, d_f);
        const std::string what = w.name + " n=" + std::to_string(n);
        expect_bytes_equal(a_s, a_f, "approx " + what);
        expect_bytes_equal(d_s, d_f, "detail " + what);
      }
    }
    // The whole multi-level plan, odd lengths (zero-padded levels) included.
    for (std::size_t n : kSizes) {
      const dwt::DwtPlan plan(w, n, 4);
      dwt::DwtWorkspace ws_r, ws_k;
      for (const auto& input : adversarial_inputs(n, 19)) {
        std::vector<float> c_r(plan.coeff_length()), c_k(plan.coeff_length());
        testref::ref_dwt_forward(plan, input, c_r, ws_r);
        plan.forward_into(input, c_k, ws_k);
        expect_bytes_equal(c_r, c_k, "plan " + w.name + " n=" + std::to_string(n));
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
        dwt::synthesize_level(w, approx, detail, out_f);
        expect_bytes_equal(out_s, out_f,
                           w.name + " n=" + std::to_string(n));
      }
    }
    for (std::size_t n : kSizes) {
      const dwt::DwtPlan plan(w, n, 4);
      dwt::DwtWorkspace ws_r, ws_k;
      for (const auto& input : adversarial_inputs(n, 23)) {
        std::vector<float> coeffs(plan.coeff_length());
        plan.forward_into(input, coeffs, ws_k);
        std::vector<float> out_r(n), out_k(n);
        testref::ref_dwt_inverse(plan, coeffs, out_r, ws_r);
        plan.inverse_into(coeffs, out_k, ws_k);
        expect_bytes_equal(out_r, out_k, "plan " + w.name + " n=" + std::to_string(n));
      }
    }
  }
}

// --- TopK --------------------------------------------------------------

// Score vectors as the workloads hand them to top-k: JWINS scores over a
// small model are mostly exact zeros (a 2-round movielens192_jwins smoke run
// had 2923 of 3360 at zero), here ~88 % of them, with +0.0 and -0.0
// mixed; the rest are normal draws with a few subnormals and repeats.
std::vector<float> workload_scores(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> out(n);
  for (float& v : out) {
    const unsigned pick = rng() % 100;
    if (pick < 88) {
      v = pick % 2 == 0 ? 0.0f : -0.0f;
    } else if (pick < 90) {
      v = std::numeric_limits<float>::denorm_min() * static_cast<float>(rng() % 4);
    } else if (pick < 92) {
      v = 0.5f;
    } else {
      v = dist(rng);
    }
  }
  return out;
}

void expect_topk_matches_reference(std::span<const float> values,
                                   std::size_t k, const std::string& what) {
  std::vector<std::uint32_t> idx_r, idx_k;
  testref::ref_topk_indices(values, k, idx_r);
  compress::topk_indices_into(values, k, idx_k);
  EXPECT_EQ(idx_r, idx_k) << what;
}

TEST(KernelEquivalence, TopkIdenticalIndexSet) {
  for (std::size_t n : kSizes) {
    for (const auto& values : adversarial_inputs(n, 17)) {
      for (std::size_t k :
           {std::size_t{0}, std::size_t{1}, n / 10, n / 2, n - 1, n, n + 7}) {
        expect_topk_matches_reference(values, k,
                                "n=" + std::to_string(n) + " k=" + std::to_string(k));
      }
    }
  }
  // The model sizes the benchmark workloads select over (cifar 2092,
  // movielens 3360), at every paper cut-off alpha and at CHOCO's n / 10, on
  // zero-heavy and dense scores.
  for (std::size_t n : {std::size_t{2092}, std::size_t{3360}}) {
    for (unsigned seed = 0; seed < 4; ++seed) {
      const std::vector<float> sparse = workload_scores(n, 31 + seed);
      ASSERT_GE(std::count_if(sparse.begin(), sparse.end(),
                              [](float v) { return v == 0.0f; }),
                static_cast<std::ptrdiff_t>(n * 85 / 100));
      const std::vector<float> dense = random_values(n, 41 + seed);
      for (double alpha : {0.10, 0.15, 0.20, 0.25, 0.30, 0.40}) {
        const auto k = static_cast<std::size_t>(alpha * static_cast<double>(n) + 0.5);
        const std::string what = "n=" + std::to_string(n) + " alpha=" +
                                 std::to_string(alpha) + " seed=" +
                                 std::to_string(seed);
        expect_topk_matches_reference(sparse, k, what + " sparse");
        expect_topk_matches_reference(dense, k, what + " dense");
      }
      expect_topk_matches_reference(sparse, n / 10, "choco sparse n=" + std::to_string(n));
      expect_topk_matches_reference(dense, n / 10, "choco dense n=" + std::to_string(n));
    }
  }
}

// 200-seed randomized sweep over tie-heavy inputs: values drawn from a small
// discrete magnitude set so the threshold magnitude is packed with exact
// ties. The kernel must return *exactly* the reference index set, which
// pins the shared tie rule (magnitude descending, index ascending). It runs
// at the movielens model size and at 8192, where the tied keys outnumber k
// and the select re-reads every value at each level.
TEST(KernelEquivalence, TopkTieBreak200SeedSweep) {
  for (const std::size_t n : {std::size_t{3360}, std::size_t{8192}}) {
    for (unsigned seed = 0; seed < 200; ++seed) {
      std::mt19937 rng(seed);
      std::uniform_int_distribution<int> mag(0, 4);
      std::uniform_int_distribution<int> sign(0, 1);
      std::vector<float> values(n);
      for (float& v : values) {
        v = static_cast<float>(mag(rng)) * 0.5f * (sign(rng) ? 1.0f : -1.0f);
      }
      const std::size_t k = n / 10 + (seed % 64);
      std::vector<std::uint32_t> idx_r, idx_k;
      testref::ref_topk_indices(values, k, idx_r);
      compress::topk_indices_into(values, k, idx_k);
      ASSERT_EQ(idx_r, idx_k) << "n=" << n << " seed=" << seed;
    }
  }
}

// --- Seed-mode index draw ------------------------------------------------

// The kernel's flag scan against Floyd's draw followed by a sort, on the
// in-repo generator, so it runs on every standard library. The shapes cover
// k = 0, k = n, k > n (clamped), the scale workload's 21 of 58, and sets
// sparse and dense in large n.
TEST(KernelEquivalence, RandomIndicesMatchReference) {
  core::Arena arena;
  std::vector<std::uint32_t> got, want;
  const std::size_t shapes[][2] = {{1, 0},      {1, 1},     {10, 3},
                                   {58, 21},    {58, 58},   {100, 99},
                                   {400, 320},  {3360, 336}, {5000, 40},
                                   {5000, 5000}, {100000, 5}, {3, 7}};
  for (const auto& [n, k] : shapes) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      const std::uint64_t s = core::mix64(seed * 7919 + n + k);
      arena.reset();
      compress::random_indices_into(n, k, s, got, arena);
      testref::ref_random_indices(n, k, s, want);
      ASSERT_EQ(got, want) << "n " << n << " k " << k << " seed " << s;
    }
  }
}

// --- QSGD --------------------------------------------------------------

TEST(KernelEquivalence, QsgdBitIdentical) {
  for (std::size_t n : kSizes) {
    for (const auto& values : adversarial_inputs(n, 23)) {
      for (std::uint32_t levels : {1u, 15u, 16u, 255u}) {
        std::mt19937_64 rng_s(99), rng_f(99);
        compress::QuantizedVector q_s, q_f;
        testref::ref_qsgd_quantize(std::span<const float>(values), levels,
                                   rng_s, q_s);
        compress::qsgd_quantize_into(std::span<const float>(values), levels,
                                     rng_f, q_f);
        ASSERT_EQ(q_s.norm, q_f.norm) << "n=" << n << " levels=" << levels;
        ASSERT_EQ(q_s.count, q_f.count);
        expect_bytes_equal(q_s.packed, q_f.packed,
                           "n=" + std::to_string(n) +
                               " levels=" + std::to_string(levels));
        // Both must also have consumed the same number of draws.
        EXPECT_EQ(rng_s(), rng_f()) << "RNG streams diverged";
      }
    }
  }
}

// --- XOR float codec ---------------------------------------------------

TEST(KernelEquivalence, XorCodecBitIdentical) {
  for (std::size_t n : kSizes) {
    for (const auto& values : adversarial_inputs(n, 29)) {
      compress::BitWriter w_r, w_k;
      testref::ref_compress_floats(values, w_r);
      compress::compress_floats(values, w_k);
      ASSERT_EQ(w_r.bit_count(), w_k.bit_count()) << "n=" << n;
      const auto bytes_r = std::move(w_r).finish();
      const auto bytes_k = std::move(w_k).finish();
      expect_bytes_equal(bytes_r, bytes_k, "encode n=" + std::to_string(n));
      std::vector<float> dec_r, dec_k;
      testref::ref_decompress_floats(bytes_r, n, dec_r);
      compress::decompress_floats_into(bytes_r, n, dec_k);
      expect_bytes_equal(dec_r, dec_k, "decode n=" + std::to_string(n));
      expect_bytes_equal(dec_k, values, "roundtrip n=" + std::to_string(n));
    }
  }
}

// Truncated and bit-flipped streams: the windowed decoder and the
// bit-at-a-time reference give identical floats or the same exception type.
TEST(KernelEquivalence, XorDecodeMalformedStreamsIdentical) {
  using testref::Failure;
  auto expect_same = [](std::span<const std::uint8_t> bytes, std::size_t n,
                        const std::string& what) {
    std::vector<float> dec_k, dec_r;
    const Failure fail_k = testref::failure_of(
        [&] { compress::decompress_floats_into(bytes, n, dec_k); });
    const Failure fail_r = testref::failure_of(
        [&] { testref::ref_decompress_floats(bytes, n, dec_r); });
    ASSERT_EQ(static_cast<int>(fail_k), static_cast<int>(fail_r)) << what;
    if (fail_r != Failure::kNone) return;
    expect_bytes_equal(dec_k, dec_r, what);
  };
  std::mt19937_64 rng(41);
  for (std::size_t n : {1, 2, 3, 17, 255, 1024}) {
    for (const auto& values : adversarial_inputs(n, 37)) {
      compress::BitWriter w;
      testref::ref_compress_floats(values, w);
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

}  // namespace
