// Counter-based random streams for reproducible parallel simulation.
//
// The engine runs every node of a round concurrently, so per-node randomness
// must not depend on *when* a node draws relative to the others. Instead of
// seed-offset stateful engines (whose output depends on the full call
// history), each consumer derives an independent stream from the logical
// coordinates of the draw — (experiment seed, node id, round, salt) — via a
// SplitMix64-style keyed counter. The k-th draw of a stream is a pure
// function of (key, k), so `threads = N` is bit-identical to `threads = 1`
// by construction. See docs/DESIGN.md "Determinism & threading model".
//
// Seed-mode index draws (random sampling) instead regenerate a subset from
// the 8-byte seed on the wire; their generator and bounded draw live here
// too, so the repo rather than the standard library fixes that stream.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace jwins::core {

/// SplitMix64 finalizer (Steele et al.): bijective avalanche mix of a 64-bit
/// word; net::Network keys its message-drop decisions on it too.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Hashes up to four logical coordinates into one well-mixed stream key.
/// Unlike `seed * constant + node` offsets, nearby (seed, node, round)
/// tuples never collide into overlapping engine states.
constexpr std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a = 0,
                                    std::uint64_t b = 0,
                                    std::uint64_t c = 0) noexcept {
  std::uint64_t h = mix64(seed ^ 0xA0761D6478BD642Full);
  h = mix64(h ^ mix64(a ^ 0xE7037ED1A0B428DBull));
  h = mix64(h ^ mix64(b ^ 0x8EBC6AF09C88C6E3ull));
  h = mix64(h ^ mix64(c ^ 0x589965CC75374CC3ull));
  return h;
}

/// Counter-based UniformRandomBitGenerator: draw k of a stream is
/// mix64(key + k * odd_constant) — stateless up to the counter, copyable,
/// and usable with <random> distributions (deterministic per platform).
class CounterRng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr CounterRng(std::uint64_t key) noexcept : key_(key) {}

  /// Stream for one (experiment seed, node, round[, salt]) coordinate.
  constexpr CounterRng(std::uint64_t seed, std::uint64_t node,
                       std::uint64_t round, std::uint64_t salt = 0) noexcept
      : key_(derive_seed(seed, node, round, salt)) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  constexpr result_type operator()() noexcept {
    return mix64(key_ + 0x9E3779B97F4A7C15ull * ++counter_);
  }

 private:
  std::uint64_t key_;
  std::uint64_t counter_ = 0;
};

/// MT19937-64 whose output equals `std::mt19937_64(seed)` draw for draw,
/// but which seeds and twists its state one word at a time, on demand. The
/// standard engine computes all 312 seed words and twists all 312 before the
/// first draw; here draw p of the first block needs seed words only up to
/// p + 156 and twists only word p, so a short stream (random sampling draws
/// ~20 values per seed) pays for what it uses. The per-word twist is done in
/// place in index order, which is exactly the order the bulk twist updates
/// words in, so every later block matches too (tests/test_rng.cpp).
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(std::uint64_t seed) noexcept { x_[0] = seed; }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept {
    if (i_ == kN) i_ = 0;
    // Word i reads words i + 1 and i + m; in the first block those must be
    // seeded first. Once all kN are seeded this never runs again. The chain
    // is carried in a register, not reloaded from the word just stored.
    const std::size_t need = i_ + kM + 1 < kN ? i_ + kM + 1 : kN;
    if (seeded_ < need) {
      std::uint64_t prev = x_[seeded_ - 1];
      std::size_t s = seeded_;
      do {
        prev = 6364136223846793005ull * (prev ^ (prev >> 62)) + s;
        x_[s++] = prev;
      } while (s < need);
      seeded_ = s;
    }
    const std::size_t next = i_ + 1 == kN ? 0 : i_ + 1;
    const std::size_t far = i_ + kM < kN ? i_ + kM : i_ + kM - kN;
    const std::uint64_t y = (x_[i_] & kUpper) | (x_[next] & kLower);
    std::uint64_t z = x_[far] ^ (y >> 1) ^ ((y & 1) ? 0xB5026F5AA96619E9ull : 0);
    x_[i_++] = z;
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLower = ~kUpper;

  std::array<std::uint64_t, kN> x_{};  // words [seeded_, kN) not seeded yet
  std::size_t seeded_ = 1;
  std::size_t i_ = 0;
};

/// Uniform draw from [0, range), range >= 1, from a full 64-bit generator by
/// Lemire's nearly-divisionless method ("Fast Random Integer Generation in an
/// Interval", ACM TOMACS 2019, arXiv:1805.10941). Every call consumes at
/// least one draw, also for range == 1. This is the algorithm libstdc++'s
/// `uniform_int_distribution` runs for a 64-bit engine, so the two agree
/// there, but this one is defined by the repo rather than the library.
template <typename Rng>
std::uint64_t bounded(Rng& rng, std::uint64_t range) noexcept {
  static_assert(Rng::min() == 0 && Rng::max() == ~std::uint64_t{0},
                "bounded() needs a full 64-bit generator");
  unsigned __int128 product = static_cast<unsigned __int128>(rng()) * range;
  auto low = static_cast<std::uint64_t>(product);
  if (low < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      product = static_cast<unsigned __int128>(rng()) * range;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::uint64_t>(product >> 64);
}

}  // namespace jwins::core
