// Reference seed-mode index draw for compress::random_indices_into: Floyd's
// algorithm, then a sort. The kernel writes the same set by a scan of its
// membership flags in index order; the equivalence tests compare the two
// index for index, and test_rng.cpp runs the same Floyd loop on <random>'s
// engine and distribution.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"

namespace jwins::testref {

/// k distinct indices of [0, n) (k clamped to n) by Floyd's algorithm, the
/// draw for j = n - k ... n - 1 being `below(j + 1)`, written to `out`
/// (overwritten) sorted ascending. `below(range)` returns a uniform value
/// in [0, range).
template <class Below>
void floyd_sorted(std::size_t n, std::size_t k, Below below,
                  std::vector<std::uint32_t>& out) {
  std::vector<std::uint8_t> in_set(n, 0);
  if (k > n) k = n;
  out.clear();
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = below(j + 1);
    if (in_set[t]) t = j;
    in_set[t] = 1;
    out.push_back(static_cast<std::uint32_t>(t));
  }
  std::sort(out.begin(), out.end());
}

/// The subset random_indices_into(n, k, seed, ...) must return: Floyd's
/// algorithm over core::Mt19937_64(seed) with core::bounded for each draw.
inline void ref_random_indices(std::size_t n, std::size_t k,
                               std::uint64_t seed,
                               std::vector<std::uint32_t>& out) {
  core::Mt19937_64 rng(seed);
  floyd_sorted(
      n, k,
      [&rng](std::size_t range) {
        return static_cast<std::size_t>(core::bounded(rng, range));
      },
      out);
}

}  // namespace jwins::testref
