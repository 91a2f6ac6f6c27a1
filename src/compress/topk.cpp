#include "compress/topk.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/kernel_dispatch.hpp"
#include "core/rng.hpp"

namespace jwins::compress {

namespace {

// Total order shared by the scalar reference and the fast path: magnitude
// descending, index ascending on ties. The tie rule makes the selected set
// unique, which is what lets the bucket-select kernel promise the *identical*
// index set (and what the 200-seed sweep in test_kernel_equivalence.cpp
// pins).
struct MagnitudeGreater {
  std::span<const float> values;
  bool operator()(std::uint32_t a, std::uint32_t b) const {
    const float fa = std::fabs(values[a]);
    const float fb = std::fabs(values[b]);
    if (fa != fb) return fa > fb;
    return a < b;
  }
};

// Magnitude bits of a (non-NaN) float: IEEE-754 bit patterns of non-negative
// floats are monotone in value, so bucketing by the top 16 of the 31
// magnitude bits preserves the magnitude order between buckets exactly.
inline std::uint32_t magnitude_bucket(float v) noexcept {
  return (std::bit_cast<std::uint32_t>(v) & 0x7FFFFFFFu) >> 15;
}

// Below this size the histogram pass costs more than it saves; the fast
// entry point delegates to the scalar select (still bit-identical).
constexpr std::size_t kBucketSelectMinN = 4096;

}  // namespace

void topk_indices_into_scalar(std::span<const float> values, std::size_t k,
                              std::vector<std::uint32_t>& out) {
  const std::size_t n = values.size();
  // `out` is the selection workspace: its capacity stays at n after the
  // first call, so reuse makes this allocation-free.
  out.resize(n);
  std::iota(out.begin(), out.end(), 0u);
  if (k >= n) {
    return;  // already ascending
  }
  std::nth_element(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(k),
                   out.end(), MagnitudeGreater{values});
  out.resize(k);
  std::sort(out.begin(), out.end());
}

void topk_indices_into_fast(std::span<const float> values, std::size_t k,
                            std::vector<std::uint32_t>& out) {
  const std::size_t n = values.size();
  if (k >= n) {
    out.resize(n);
    std::iota(out.begin(), out.end(), 0u);
    return;
  }
  if (n < kBucketSelectMinN || k == 0) {
    topk_indices_into_scalar(values, k, out);
    return;
  }
  // Pass 1: 65536-bucket histogram over the top magnitude bits. The
  // thread_local workspaces are fully rewritten per call, so the result does
  // not depend on prior calls (only the heap warm-up does).
  thread_local std::vector<std::uint32_t> hist;
  thread_local std::vector<std::uint32_t> boundary;
  hist.assign(std::size_t{1} << 16, 0u);
  for (std::size_t i = 0; i < n; ++i) ++hist[magnitude_bucket(values[i])];
  // Find the boundary bucket: the highest bucket where the cumulative count
  // (scanning from the largest magnitudes down) first reaches k.
  std::size_t cum = 0;
  std::uint32_t cut = static_cast<std::uint32_t>(hist.size());
  while (cut-- > 0) {
    cum += hist[cut];
    if (cum >= k) break;
  }
  const std::size_t above = cum - hist[cut];
  // Pass 2: everything strictly above the boundary bucket is selected;
  // boundary-bucket members are candidates for the remaining slots.
  out.clear();
  boundary.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t b = magnitude_bucket(values[i]);
    if (b > cut) {
      out.push_back(static_cast<std::uint32_t>(i));
    } else if (b == cut) {
      boundary.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // Exact select on the boundary bucket only, under the same total order as
  // the scalar reference.
  const std::size_t need = k - above;
  if (need < boundary.size()) {
    std::nth_element(boundary.begin(),
                     boundary.begin() + static_cast<std::ptrdiff_t>(need),
                     boundary.end(), MagnitudeGreater{values});
    boundary.resize(need);
    std::sort(boundary.begin(), boundary.end());
  }
  // Both halves are ascending (collected in index order; the boundary
  // remainder re-sorted above), so a merge replaces the full k-sort.
  thread_local std::vector<std::uint32_t> merged;
  merged.resize(k);
  std::merge(out.begin(), out.end(), boundary.begin(), boundary.end(),
             merged.begin());
  out.assign(merged.begin(), merged.end());
}

void topk_indices_into(std::span<const float> values, std::size_t k,
                       std::vector<std::uint32_t>& out) {
  if (core::KernelDispatch::fast()) {
    topk_indices_into_fast(values, k, out);
  } else {
    topk_indices_into_scalar(values, k, out);
  }
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
