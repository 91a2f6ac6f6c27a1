// TopK magnitude selection and seeded random index sampling — the two
// sparsification primitives in the paper (TopK for JWINS/CHOCO, random
// sampling as the sparse-communication baseline).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/arena.hpp"

namespace jwins::compress {

/// Indices of the `k` largest-magnitude elements of `values`, sorted
/// ascending (the order required by the gap-based metadata coder), written
/// to `out` (overwritten). Ties in magnitude break toward the lower index,
/// making the selected set unique. If k >= values.size(), all indices are
/// returned. Values must be NaN-free. `out` doubles as the selection
/// workspace — once warmed to values.size() capacity the call is
/// allocation-free. Dispatches between the scalar reference and the
/// bucket-select fast path per core::KernelDispatch.
void topk_indices_into(std::span<const float> values, std::size_t k,
                       std::vector<std::uint32_t>& out);

/// Pinned golden reference: full nth_element select under the
/// magnitude-descending / index-ascending total order.
void topk_indices_into_scalar(std::span<const float> values, std::size_t k,
                              std::vector<std::uint32_t>& out);

/// Fast path: single-pass 65536-bucket histogram over the top magnitude
/// bits, exact nth_element only on the boundary bucket. Returns the
/// identical index set as the scalar reference (same total order).
void topk_indices_into_fast(std::span<const float> values, std::size_t k,
                            std::vector<std::uint32_t>& out);

/// `k` distinct indices drawn uniformly from [0, n) using `seed` — the
/// random-sampling baseline. Sharing the seed reproduces the exact subset on
/// the receiver, so the metadata cost is just the 8-byte seed (paper §II-B2).
/// The stream is Floyd's algorithm over core::Mt19937_64(seed) with
/// core::bounded (Lemire) for each draw, both defined in core/rng.hpp, so the
/// repo alone fixes the subset for a seed; a known-answer test pins it
/// (tests/test_rng.cpp). Draws into `out` (cleared first, sorted ascending)
/// using `arena` for the O(n) membership flags.
void random_indices_into(std::size_t n, std::size_t k, std::uint64_t seed,
                         std::vector<std::uint32_t>& out, core::Arena& arena);

/// Gathers `values[idx]` for each idx into `out` (resized to
/// indices.size()).
void gather_into(std::span<const float> values,
                 std::span<const std::uint32_t> indices,
                 std::vector<float>& out);

/// Gathers into a caller-provided span (same length as `indices`), e.g.
/// arena storage.
void gather_into(std::span<const float> values,
                 std::span<const std::uint32_t> indices, std::span<float> out);

/// Scatters `sparse[i]` into `dense[indices[i]]`.
void scatter(std::span<float> dense, std::span<const std::uint32_t> indices,
             std::span<const float> sparse);

}  // namespace jwins::compress
