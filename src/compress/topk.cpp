#include "compress/topk.hpp"

#include <algorithm>
#include <bit>
#include <functional>
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

// From this size on the threshold comes from a 65536-bucket histogram over
// the top 16 key bits; below it, from nth_element over a copy of the keys.
constexpr std::size_t kHistogramMinN = 4096;

// T, the k-th largest key, with how many keys lie above it and equal to it.
struct Threshold {
  std::uint32_t key;
  std::size_t above;
  std::size_t ties;
};

// Tallies `keys` against `key`: the keys above it and equal to it.
Threshold tally(std::span<const std::uint32_t> keys, std::uint32_t key) {
  std::size_t above = 0;
  std::size_t ties = 0;
  for (const std::uint32_t x : keys) {
    above += x > key;
    ties += x == key;
  }
  return {key, above, ties};
}

// Small n: select over a copy of the keys, held in `work`.
Threshold threshold_by_select(std::span<const float> values, std::size_t k,
                              std::vector<std::uint32_t>& work) {
  const std::size_t n = values.size();
  work.resize(n);
  for (std::size_t i = 0; i < n; ++i) work[i] = magnitude_key(values[i]);
  const auto kth = work.begin() + static_cast<std::ptrdiff_t>(k - 1);
  std::nth_element(work.begin(), kth, work.end(), std::greater<>{});
  return tally(work, *kth);
}

// Large n: a histogram pass finds the bucket holding T, and the exact select
// runs over that bucket's keys only. Every key equal to T is in the bucket.
Threshold threshold_by_histogram(std::span<const float> values,
                                 std::size_t k) {
  // Fully rewritten per call, so the result does not depend on prior calls
  // (only the heap warm-up does).
  thread_local std::vector<std::uint32_t> hist;
  thread_local std::vector<std::uint32_t> bucket;
  hist.assign(std::size_t{1} << 16, 0u);
  for (const float v : values) ++hist[magnitude_key(v) >> 15];
  // The boundary bucket: scanning from the largest magnitudes down, the
  // first where the cumulative count reaches k.
  std::size_t cum = 0;
  std::uint32_t cut = static_cast<std::uint32_t>(hist.size());
  while (cut-- > 0) {
    cum += hist[cut];
    if (cum >= k) break;
  }
  bucket.clear();
  for (const float v : values) {
    const std::uint32_t key = magnitude_key(v);
    if ((key >> 15) == cut) bucket.push_back(key);
  }
  const std::size_t bucket_above = cum - hist[cut];
  const auto kth =
      bucket.begin() + static_cast<std::ptrdiff_t>(k - bucket_above - 1);
  std::nth_element(bucket.begin(), kth, bucket.end(), std::greater<>{});
  Threshold t = tally(bucket, *kth);
  t.above += bucket_above;
  return t;
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
  const Threshold t = n < kHistogramMinN
                          ? threshold_by_select(values, k, out)
                          : threshold_by_histogram(values, k);
  const std::size_t quota = k - t.above;  // >= 1: T itself is not above T
  std::size_t split = n;
  if (quota < t.ties) {
    split = 0;
    for (std::size_t left = quota; left != 0; ++split) {
      left -= magnitude_key(values[split]) == t.key;
    }
  }
  out.resize(k + 1);  // room for emit_at_least's store past the last kept
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
  out.clear();
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = core::bounded(rng, j + 1);
    if (in_set[t]) t = j;
    in_set[t] = true;
    out.push_back(static_cast<std::uint32_t>(t));
  }
  std::sort(out.begin(), out.end());
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

void scatter(std::span<float> dense, std::span<const std::uint32_t> indices,
             std::span<const float> sparse) {
  if (indices.size() != sparse.size()) {
    throw std::invalid_argument("scatter: indices/values size mismatch");
  }
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= dense.size()) {
      throw std::out_of_range("scatter: index out of range");
    }
    dense[indices[i]] = sparse[i];
  }
}

}  // namespace jwins::compress
