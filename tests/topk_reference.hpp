// Reference top-k for compress::topk_indices_into: a full nth_element select
// under the magnitude-descending / index-ascending total order, then a
// sort. It is slow but obviously right; the equivalence tests compare the
// library's one-pass kernel against it index for index.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

namespace jwins::testref {

/// Indices of the `k` largest-magnitude elements of `values`, ascending,
/// ties toward the lower index; all indices when k >= values.size().
inline void ref_topk_indices(std::span<const float> values, std::size_t k,
                             std::vector<std::uint32_t>& out) {
  const std::size_t n = values.size();
  out.resize(n);
  std::iota(out.begin(), out.end(), 0u);
  if (k >= n) return;  // already ascending
  const auto magnitude_greater = [values](std::uint32_t a, std::uint32_t b) {
    const float fa = std::fabs(values[a]);
    const float fb = std::fabs(values[b]);
    if (fa != fb) return fa > fb;
    return a < b;
  };
  std::nth_element(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(k),
                   out.end(), magnitude_greater);
  out.resize(k);
  std::sort(out.begin(), out.end());
}

}  // namespace jwins::testref
