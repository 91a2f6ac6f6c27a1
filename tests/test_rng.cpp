// The in-repo random streams behind seed-mode index draws: core::Mt19937_64
// must reproduce std::mt19937_64 draw for draw, core::bounded must be
// Lemire's method, and random_indices_into's subsets are pinned as literal
// constants so the repo alone defines the random-sampling wire semantics.
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "compress/topk.hpp"
#include "core/arena.hpp"
#include "core/rng.hpp"
#include "random_indices_reference.hpp"

namespace {

using namespace jwins;

TEST(Mt19937_64, MatchesStdEngineAcrossTwistBlocks) {
  // 1000 draws cross the 312- and 624-draw block boundaries.
  std::vector<std::uint64_t> seeds = {0, 1, 5489, ~std::uint64_t{0},
                                      0x8000000000000000ull};
  for (std::uint64_t s = 0; seeds.size() < 1005; ++s) {
    seeds.push_back(core::mix64(s));
  }
  for (const std::uint64_t seed : seeds) {
    std::mt19937_64 expected(seed);
    core::Mt19937_64 rng(seed);
    for (int d = 0; d < 1000; ++d) {
      const std::uint64_t want = expected();
      const std::uint64_t got = rng();
      if (got != want) {
        FAIL() << "seed " << seed << " draw " << d << ": " << got
               << " != " << want;
      }
    }
  }
}

TEST(Mt19937_64, TenThousandthDrawIsTheStandardValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces this value.
  core::Mt19937_64 rng(5489);
  for (int d = 1; d < 10000; ++d) rng();
  EXPECT_EQ(rng(), 9981545732273789042ull);
}

TEST(Bounded, StaysInRangeAndConsumesADrawForRangeOne) {
  core::Mt19937_64 a(11), b(11);
  for (int d = 0; d < 100; ++d) {
    EXPECT_EQ(core::bounded(a, 1), 0u);
    b();
  }
  EXPECT_EQ(a(), b());
  for (std::uint64_t range = 1; range < 200; ++range) {
    EXPECT_LT(core::bounded(a, range), range);
  }
}

#if defined(__GLIBCXX__)
// libstdc++ runs Lemire's method for a 64-bit engine; other libraries are
// free to downscale differently, so only there are the two comparable.
TEST(Bounded, MatchesLibstdcxxUniformIntDistribution) {
  std::vector<std::uint64_t> ranges;
  for (std::uint64_t r = 1; r <= 300; ++r) ranges.push_back(r);
  for (int b = 8; b < 64; ++b) {
    const std::uint64_t p = std::uint64_t{1} << b;
    ranges.insert(ranges.end(), {p - 1, p, p + 1, p + p / 3});
  }
  // Ranges just above 2^63 reject almost half of all draws.
  ranges.insert(ranges.end(), {0x8000000000000001ull, 0xC000000000000000ull,
                               ~std::uint64_t{0}});
  std::mt19937_64 engine(42);
  std::mt19937_64 reference(42);
  for (const std::uint64_t range : ranges) {
    std::uniform_int_distribution<std::size_t> dist(0, range - 1);
    for (int d = 0; d < 50; ++d) {
      ASSERT_EQ(core::bounded(engine, range), dist(reference))
          << "range " << range << " draw " << d;
    }
  }
  // The same number of draws was consumed on both sides.
  EXPECT_EQ(engine(), reference());
}

// Floyd's algorithm exactly as random_indices_into ran it on <random>.
std::vector<std::uint32_t> std_random_indices(std::size_t n, std::size_t k,
                                              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> out;
  testref::floyd_sorted(
      n, k,
      [&rng](std::size_t range) {
        std::uniform_int_distribution<std::size_t> dist(0, range - 1);
        return dist(rng);
      },
      out);
  return out;
}

TEST(RandomIndices, MatchesStdFloydDraw) {
  core::Arena arena;
  std::vector<std::uint32_t> got;
  const std::size_t shapes[][2] = {{1, 0},    {1, 1},      {10, 3},
                                   {58, 21},  {58, 58},    {100, 99},
                                   {400, 320}, {5000, 40}, {5000, 5000},
                                   {100000, 5}, {3, 7}};
  for (const auto& [n, k] : shapes) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      const std::uint64_t s = core::mix64(seed * 1000 + n + k);
      arena.reset();
      compress::random_indices_into(n, k, s, got, arena);
      ASSERT_EQ(got, std_random_indices(n, k, s))
          << "n " << n << " k " << k << " seed " << s;
    }
  }
}
#endif

TEST(RandomIndices, KnownAnswerSets) {
  // Captured from the std::mt19937_64 + uniform_int_distribution draw this
  // replaced; any change here changes every random-sampling result.
  core::Arena arena;
  std::vector<std::uint32_t> got;
  compress::random_indices_into(58, 21, 7, got, arena);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{2,  4,  5,  11, 15, 16, 19,
                                             28, 29, 33, 35, 36, 37, 40,
                                             43, 47, 48, 51, 53, 54, 56}));
  arena.reset();
  compress::random_indices_into(58, 21, 0xFEED, got, arena);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{1,  5,  7,  12, 13, 16, 17,
                                             18, 21, 22, 23, 28, 29, 30,
                                             31, 33, 34, 41, 42, 44, 50}));
  arena.reset();
  compress::random_indices_into(10, 3, 1, got, arena);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 4, 8}));
}

}  // namespace
