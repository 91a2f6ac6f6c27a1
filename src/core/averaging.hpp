// Partial weighted averaging (paper Algorithm 1, line 10).
//
// Received sparse vectors cover different index subsets, so the mixing
// weights are re-normalized per coefficient over the set of contributors
// that actually supplied it (own model always contributes): for index k,
//   avg[k] = (w_self * own[k] + sum_{j sent k} w_j * z_j[k])
//            / (w_self + sum_{j sent k} w_j).
// With dense contributions from every neighbor this reduces exactly to the
// Metropolis-Hastings weighted average used by full-sharing D-PSGD.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/arena.hpp"
#include "core/sparse_payload.hpp"

namespace jwins::core {

struct WeightedContribution {
  double weight = 0.0;
  const SparsePayload* payload = nullptr;
};

/// Robust-aggregation rule applied where Algorithm 1 would plainly average
/// (the byzantine countermeasure layer; docs/SIMULATION.md "Adversarial
/// behavior"). kNone routes through partial_average() unchanged — the plain
/// path, pinned byte-identical by tests/test_byzantine.cpp.
enum class RobustAggKind {
  kNone,         ///< plain partial averaging (the default)
  kTrimmedMean,  ///< coordinate-wise: drop the t lowest/highest, average rest
  kMedian,       ///< coordinate-wise unweighted median of the suppliers
  kNormClip,     ///< per-contribution L2 deviation clipped to a radius
};

const char* robust_agg_name(RobustAggKind kind);

struct RobustAggConfig {
  RobustAggKind kind = RobustAggKind::kNone;
  /// trimmed_mean: fraction trimmed from EACH end of the per-coordinate
  /// supplier list; t = floor(f * m) further clamped to (m - 1) / 2 so at
  /// least one entry always survives. Must be in [0, 0.5).
  double trim_fraction = 0.0;
  /// norm_clip: maximum L2 deviation a contribution may have from the
  /// receiver's own vector; larger deviations are radially shrunk onto the
  /// clip sphere. Must be > 0 when the kind is kNormClip.
  double clip_norm = 1.0;
};

/// Per-node tally of what the robust rule actually did — surfaced in the
/// result JSON's "byzantine" block (sim/report.cpp).
struct RobustAggCounters {
  std::uint64_t trimmed_entries = 0;        ///< coordinate entries discarded
  std::uint64_t clipped_contributions = 0;  ///< payloads shrunk onto the sphere
};

/// Averages `own` (dense) with sparse neighbor contributions in place. Each
/// weight enters both the numerator and the denominator, so the result is a
/// convex combination whatever the weights are — a staleness-decayed weight
/// (sim::AsyncMode::kWeighted) shifts mass from stale contributors toward
/// the rest and never leaks it. The two O(n) double accumulators come from
/// `arena` (valid only within this call).
void partial_average(std::span<float> own, double self_weight,
                     std::span<const WeightedContribution> contributions,
                     Arena& arena);

/// Robust variant of partial_average: merges `own` with the contributions
/// under the configured rule.
///
///  * kNone — forwards to partial_average() (the plain path: same doubles,
///    same operation order).
///  * kTrimmedMean — per coordinate, the supplier list is (own, then each
///    contribution that sent the coordinate, in order); after trimming
///    t = min(floor(f * m), (m - 1) / 2) entries from each end of the
///    value-sorted list, the survivors are weighted-averaged with the same
///    renormalization as partial_average.
///  * kMedian — per coordinate, the unweighted median of the same supplier
///    list (even count: mean of the middle two).
///  * kNormClip — each contribution whose L2 deviation from `own` (over the
///    indices it supplies) exceeds clip_norm is radially shrunk onto the
///    sphere (z' = own + (c / ||z - own||)(z - own)); the clipped values
///    then flow through the ordinary partial average. Contributions inside
///    the sphere pass through untouched (bit-identical values).
///
/// Temporaries come from `arena`; `counters` (optional) accumulates what
/// the rule discarded or shrank.
void robust_partial_average(const RobustAggConfig& config, std::span<float> own,
                            double self_weight,
                            std::span<const WeightedContribution> contributions,
                            Arena& arena,
                            RobustAggCounters* counters = nullptr);

/// CHOCO-style robust accumulation over *difference* payloads: every
/// contribution is a neighbor's compressed model diff and the honest update
/// is acc[i] += sum_j w_j * z_j[i]. The robust rules reshape that sum:
///
///  * kNone — the literal weighted sum, in contribution order.
///  * kNormClip — contribution j is shrunk to L2 norm clip_norm when it
///    exceeds it (diffs deviate from zero, not from `acc`).
///  * kTrimmedMean / kMedian — per coordinate, the robust combine r_i of the
///    supplying neighbors' values (trim/median exactly as above, no own
///    entry — the receiver's own diff is self-applied by CHOCO separately);
///    the update becomes acc[i] += W_i * r_i with W_i the summed weight of
///    the suppliers, so the step magnitude matches the honest sum when all
///    suppliers agree.
void robust_accumulate_diffs(const RobustAggConfig& config,
                             std::span<float> acc,
                             std::span<const WeightedContribution> contributions,
                             Arena& arena,
                             RobustAggCounters* counters = nullptr);

}  // namespace jwins::core
