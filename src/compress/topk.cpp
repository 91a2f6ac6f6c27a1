#include "compress/topk.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "core/rng.hpp"

namespace jwins::compress {

namespace {

// Magnitude key of a (non-NaN) float: IEEE-754 bit patterns of
// non-negative floats are monotone in value, so comparing keys is comparing
// magnitudes exactly (+0.0 and -0.0 share key 0, as fabs makes them equal).
inline std::uint32_t magnitude_key(float v) noexcept {
  return std::bit_cast<std::uint32_t>(v) & 0x7FFFFFFFu;
}

// T, the k-th largest key, with how many keys lie above it and equal to it.
struct Threshold {
  std::uint32_t key;
  std::size_t above;
  std::size_t ties;
};

// The radix select reads 11-bit digits of the 31-bit key, so one level's
// histogram is 2048 counters (8 KiB) on the stack: bits 30..20, then
// 19..9, then 10..0, whose top two bits are fixed already.
constexpr std::uint32_t kDigitBits = 11;
constexpr std::uint32_t kDigitMask = (1u << kDigitBits) - 1;
constexpr std::uint32_t kShifts[] = {20, 9, 0};
using Histogram = std::array<std::uint32_t, std::size_t{1} << kDigitBits>;

// A radix select between levels: the digits fixed so far (`prefix`, over
// the bits in `fixed`), how many keys lie above every key sharing them, and
// T's rank among those that do (1 = the largest).
struct Radix {
  std::uint32_t prefix = 0;
  std::uint32_t fixed = 0;
  std::size_t above = 0;
  std::size_t rank = 0;
};

// Fixes the digit at `shift`: the bucket where the count from the top
// reaches r.rank. Blocks of 16 buckets short of it are skipped whole; the
// candidates number at least r.rank, so one block reaches it. Returns the
// bucket's count.
std::uint32_t fix_digit(const Histogram& hist, std::uint32_t shift, Radix& r) {
  std::size_t d = hist.size();
  for (;;) {
    std::uint32_t block = 0;
    for (std::size_t j = d - 16; j < d; ++j) block += hist[j];
    if (block >= r.rank) break;
    r.rank -= block;
    r.above += block;
    d -= 16;
  }
  while (hist[--d] < r.rank) {
    r.rank -= hist[d];
    r.above += hist[d];
  }
  r.prefix |= static_cast<std::uint32_t>(d) << shift;
  r.fixed |= kDigitMask << shift;
  return hist[d];
}

inline std::uint32_t key_of(float v) noexcept { return magnitude_key(v); }
inline std::uint32_t key_of(std::uint32_t key) noexcept { return key; }

// Histograms the digit at `shift` of the keys that share r's fixed digits.
template <class Item>
void count_digit(std::span<const Item> items, const Radix& r,
                 std::uint32_t shift, Histogram& hist) {
  hist.fill(0);
  for (const Item item : items) {
    const std::uint32_t key = key_of(item);
    if ((key & r.fixed) == r.prefix) ++hist[(key >> shift) & kDigitMask];
  }
}

// Radix select of T, most significant digit first. After the last digit
// the fixed prefix is T itself, and its bucket holds exactly the keys
// equal to it. Once the keys that share the fixed digits fit in `scratch`
// with one entry to spare, they are gathered there, and the levels below
// read them instead of every value.
Threshold kth_largest_key(std::span<const float> values, std::size_t k,
                          std::span<std::uint32_t> scratch) {
  Histogram hist{};
  Radix r;
  r.rank = k;
  // Level 0 reads every key. Exact zeros, most of a JWINS score vector,
  // are counted apart: in the histogram they would all queue on one
  // counter, and when T is zero the select ends here.
  std::uint32_t zeros = 0;
  for (const float v : values) {
    const std::uint32_t key = magnitude_key(v);
    if (key == 0) {
      ++zeros;
    } else {
      ++hist[key >> kShifts[0]];
    }
  }
  hist[0] += zeros;
  std::uint32_t count = fix_digit(hist, kShifts[0], r);
  if (r.prefix == 0 && r.rank > count - zeros) {
    // T is zero; the bucket's other keys, subnormals, lie above it.
    return {0, r.above + (count - zeros), zeros};
  }
  std::size_t m = 0;
  bool have_gathered = false;
  for (const std::uint32_t shift : {kShifts[1], kShifts[2]}) {
    if (!have_gathered && count < scratch.size()) {
      // Branch-free like emit_at_least: every key is stored, and the count
      // steps past the ones that share the fixed digits.
      for (const float v : values) {
        const std::uint32_t key = magnitude_key(v);
        scratch[m] = key;
        m += (key & r.fixed) == r.prefix;
      }
      have_gathered = true;
    }
    if (have_gathered) {
      count_digit(std::span<const std::uint32_t>(scratch.data(), m), r, shift,
                  hist);
    } else {
      count_digit(values, r, shift, hist);
    }
    count = fix_digit(hist, shift, r);
  }
  return {r.prefix, r.above, count};
}

// Appends each index in [begin, end) whose key is at least `floor` to
// dst[m...] in index order and returns the new count. Branch-free: every
// index is stored, and the count steps past the kept ones, so dst must have
// room for one entry past the last kept.
std::size_t emit_at_least(std::span<const float> values, std::size_t begin,
                          std::size_t end, std::uint32_t floor,
                          std::uint32_t* dst, std::size_t m) {
  for (std::size_t i = begin; i < end; ++i) {
    dst[m] = static_cast<std::uint32_t>(i);
    m += magnitude_key(values[i]) >= floor;
  }
  return m;
}

}  // namespace

void topk_indices_into(std::span<const float> values, std::size_t k,
                       std::vector<std::uint32_t>& out) {
  const std::size_t n = values.size();
  if (k >= n) {
    out.resize(n);
    std::iota(out.begin(), out.end(), 0u);
    return;
  }
  if (k == 0) {
    out.clear();
    return;
  }
  // Under "magnitude descending, index ascending" the top k are every key
  // above T plus the first `quota` keys equal to T in index order. So up to
  // the quota-th tie every key >= T is kept, and past it every key > T: one
  // pass in index order emits the selection already sorted.
  // Room for emit_at_least's store past the last kept; until the emit, the
  // select's gather space.
  out.resize(k + 1);
  const Threshold t = kth_largest_key(values, k, out);
  const std::size_t quota = k - t.above;  // >= 1: T itself is not above T
  std::size_t split = n;
  if (quota < t.ties) {
    split = 0;
    for (std::size_t left = quota; left != 0; ++split) {
      left -= magnitude_key(values[split]) == t.key;
    }
  }
  std::size_t m = emit_at_least(values, 0, split, t.key, out.data(), 0);
  m = emit_at_least(values, split, n, t.key + 1, out.data(), m);
  out.resize(m);
}

void random_indices_into(std::size_t n, std::size_t k, std::uint64_t seed,
                         std::vector<std::uint32_t>& out, core::Arena& arena) {
  const std::span<std::uint8_t> in_set = arena.alloc<std::uint8_t>(n);
  std::fill(in_set.begin(), in_set.end(), std::uint8_t{0});
  if (k > n) k = n;
  core::Mt19937_64 rng(seed);
  // Floyd's algorithm gives k distinct samples in O(k) draws.
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = core::bounded(rng, j + 1);
    if (in_set[t]) t = j;
    in_set[t] = true;
  }
  // The set in index order is one scan of the flags, stored branch-free
  // like emit_at_least.
  out.resize(k + 1);
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[m] = static_cast<std::uint32_t>(i);
    m += in_set[i];
  }
  out.resize(m);
}

void gather_into(std::span<const float> values,
                 std::span<const std::uint32_t> indices,
                 std::vector<float>& out) {
  out.resize(indices.size());
  gather_into(values, indices, std::span<float>(out));
}

void gather_into(std::span<const float> values,
                 std::span<const std::uint32_t> indices, std::span<float> out) {
  if (out.size() != indices.size()) {
    throw std::invalid_argument("gather_into: output size mismatch");
  }
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::uint32_t idx = indices[i];
    if (idx >= values.size()) throw std::out_of_range("gather: index out of range");
    out[i] = values[idx];
  }
}

}  // namespace jwins::compress
