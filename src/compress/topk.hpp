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
/// returned. Values must be NaN-free. `out` ends with capacity for k + 1
/// entries at most (on a fresh vector), so once warmed the call is
/// allocation-free.
///
/// Finds T, the k-th largest magnitude key (the float's bits without the
/// sign), and how many keys above T there are, by a radix select at every
/// size: a 2048-bucket histogram on the stack over each 11-bit digit of the
/// key, most significant first, descending into the boundary bucket until T
/// is exact. Exact zeros are counted apart, so when T is zero (most JWINS
/// score vectors) one pass decides it; once the boundary bucket's keys fit
/// in `out`, they are gathered there and the lower digits read only them.
/// One branch-free pass in index order then emits every index whose key is
/// above T, or equal to T while the tie quota lasts, so the selection comes
/// out sorted. tests/topk_reference.hpp holds the full-sort reference it
/// matches index for index.
void topk_indices_into(std::span<const float> values, std::size_t k,
                       std::vector<std::uint32_t>& out);

/// `k` distinct indices drawn uniformly from [0, n) using `seed` — the
/// random-sampling baseline. Sharing the seed reproduces the exact subset on
/// the receiver, so the metadata cost is just the 8-byte seed (paper §II-B2).
/// The stream is Floyd's algorithm over core::Mt19937_64(seed) with
/// core::bounded (Lemire) for each draw, both defined in core/rng.hpp, so the
/// repo alone fixes the subset for a seed; a known-answer test pins it
/// (tests/test_rng.cpp). The draws mark O(n) membership flags in `arena`,
/// and one scan of the flags writes the set to `out` (overwritten) in
/// ascending order, with no sort; tests/random_indices_reference.hpp holds
/// the draw-then-sort reference it matches.
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

}  // namespace jwins::compress
