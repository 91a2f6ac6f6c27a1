// Byzantine attack-matrix suite: adversarial node injection and the robust-
// aggregation countermeasures (docs/SIMULATION.md "Adversarial behavior").
// Four layers, mirroring the tentpole contract:
//   (a) no-attack / robust_agg = none runs stay byte-identical to an
//       untouched config's report (but for the echoed mode knob) — the
//       golden guarantee that merely compiling the adversarial layer in
//       changes nothing;
//   (b) sign-flip with no defense measurably degrades final loss, while
//       trimmed_mean / median recover within a pinned tolerance;
//   (c) the robust aggregators satisfy unit-level properties (permutation
//       invariance, bounded output under a single outlier, trim-fraction
//       monotonicity, exact kNone reduction);
//   (d) threads=1 vs 4 and replay bit-identity hold under every attack
//       mode and every defense (the determinism contract survives attack).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "algo/node.hpp"
#include "core/averaging.hpp"
#include "graph/graph.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/workloads.hpp"

namespace jwins {
namespace {

// --- unit-level helpers ---------------------------------------------------

core::SparsePayload dense_payload(std::vector<float> values) {
  core::SparsePayload p;
  p.vector_length = static_cast<std::uint32_t>(values.size());
  p.values = std::move(values);
  return p;
}

core::SparsePayload sparse_payload(std::uint32_t length,
                                   std::vector<std::uint32_t> indices,
                                   std::vector<float> values) {
  core::SparsePayload p;
  p.vector_length = length;
  p.indices = std::move(indices);
  p.values = std::move(values);
  return p;
}

std::vector<core::WeightedContribution> contribs(
    const std::vector<const core::SparsePayload*>& payloads, double weight) {
  std::vector<core::WeightedContribution> out;
  for (const core::SparsePayload* p : payloads) out.push_back({weight, p});
  return out;
}

// Unit cases share one scratch arena; the rules allocate their temporaries
// from it.
class RobustAggUnit : public ::testing::Test {
 protected:
  core::Arena arena;
};

// --- (c) unit properties: exact kNone reduction ---------------------------

TEST_F(RobustAggUnit, NoneMatchesPartialAverageBitForBit) {
  const auto p1 = dense_payload({1.0f, 2.0f, 3.0f, 4.0f});
  const auto p2 = sparse_payload(4, {1, 3}, {10.0f, -2.0f});
  const auto c = contribs({&p1, &p2}, 0.25);
  std::vector<float> legacy = {0.5f, -0.5f, 1.5f, 2.5f};
  std::vector<float> robust = legacy;
  core::partial_average(legacy, 0.5, c, arena);
  core::RobustAggConfig none;  // kind = kNone
  core::robust_partial_average(none, robust, 0.5, c, arena);
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i], robust[i]) << i;
  }
}

TEST_F(RobustAggUnit, NoneMatchesScaledPartialAverageBitForBit) {
  const auto p1 = dense_payload({1.0f, 2.0f, 3.0f, 4.0f});
  const auto p2 = dense_payload({-1.0f, 0.0f, 1.0f, 2.0f});
  // Staleness-decayed weights (0.25 * 1.0, 0.25 * 0.5).
  auto c = contribs({&p1, &p2}, 0.25);
  c[1].weight *= 0.5;
  std::vector<float> legacy = {0.5f, -0.5f, 1.5f, 2.5f};
  std::vector<float> robust = legacy;
  core::partial_average(legacy, 0.5, c, arena);
  core::RobustAggConfig none;
  core::robust_partial_average(none, robust, 0.5, c, arena);
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i], robust[i]) << i;
  }
}

TEST_F(RobustAggUnit, NoneAccumulateMatchesManualWeightedSum) {
  const auto p1 = dense_payload({1.0f, -2.0f, 3.0f});
  const auto p2 = sparse_payload(3, {0, 2}, {4.0f, -8.0f});
  const auto c = contribs({&p1, &p2}, 0.25);
  std::vector<float> acc = {10.0f, 20.0f, 30.0f};
  core::RobustAggConfig none;
  core::robust_accumulate_diffs(none, acc, c, arena);
  EXPECT_FLOAT_EQ(acc[0], 10.0f + 0.25f * 1.0f + 0.25f * 4.0f);
  EXPECT_FLOAT_EQ(acc[1], 20.0f + 0.25f * -2.0f);
  EXPECT_FLOAT_EQ(acc[2], 30.0f + 0.25f * 3.0f + 0.25f * -8.0f);
}

// --- (c) unit properties: median ------------------------------------------

TEST_F(RobustAggUnit, MedianPicksMiddleValueIgnoringWeights) {
  // Suppliers per coordinate: own, p1, p2 (odd count) — the median must be
  // the middle *value*, regardless of how lopsided the weights are.
  const auto p1 = dense_payload({100.0f, -100.0f});
  const auto p2 = dense_payload({2.0f, 3.0f});
  std::vector<core::WeightedContribution> c = {{1000.0, &p1}, {0.001, &p2}};
  std::vector<float> own = {1.0f, 5.0f};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kMedian;
  core::robust_partial_average(cfg, own, 0.5, c, arena);
  EXPECT_FLOAT_EQ(own[0], 2.0f);   // median of {1, 100, 2}
  EXPECT_FLOAT_EQ(own[1], 3.0f);   // median of {5, -100, 3}
}

TEST_F(RobustAggUnit, MedianEvenCountAveragesMiddleTwo) {
  const auto p1 = dense_payload({8.0f});
  std::vector<core::WeightedContribution> c = {{0.5, &p1}};
  std::vector<float> own = {2.0f};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kMedian;
  core::robust_partial_average(cfg, own, 0.5, c, arena);
  EXPECT_FLOAT_EQ(own[0], 5.0f);  // mean of {2, 8}
}

TEST_F(RobustAggUnit, MedianLeavesUnsuppliedCoordinatesUntouched) {
  // A sparse contribution covers only index 1; index 0's supplier list is
  // just `own` (m == 1), which the robust rules leave bit-identical.
  const auto p1 = sparse_payload(2, {1}, {9.0f});
  std::vector<core::WeightedContribution> c = {{0.5, &p1}};
  std::vector<float> own = {3.25f, 1.0f};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kMedian;
  core::robust_partial_average(cfg, own, 0.5, c, arena);
  EXPECT_EQ(own[0], 3.25f);
  EXPECT_FLOAT_EQ(own[1], 5.0f);
}

// --- (c) unit properties: trimmed mean ------------------------------------

TEST_F(RobustAggUnit, TrimmedMeanDropsExtremesAndRenormalizes) {
  // Suppliers: own=0 (w 0.4), and four contributions 1..4 (w 0.15 each).
  // f = 0.2, m = 5 -> t = 1: drop the min (own, 0) and max (4); survivors
  // {1, 2, 3} weighted-average with renormalized weights (all equal 0.15,
  // so the result is the plain mean 2).
  const auto p1 = dense_payload({1.0f});
  const auto p2 = dense_payload({2.0f});
  const auto p3 = dense_payload({3.0f});
  const auto p4 = dense_payload({4.0f});
  const auto c = contribs({&p1, &p2, &p3, &p4}, 0.15);
  std::vector<float> own = {0.0f};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kTrimmedMean;
  cfg.trim_fraction = 0.2;
  core::RobustAggCounters counters;
  core::robust_partial_average(cfg, own, 0.4, c, arena, &counters);
  EXPECT_FLOAT_EQ(own[0], 2.0f);
  EXPECT_EQ(counters.trimmed_entries, 2u);  // one per end, one coordinate
}

TEST_F(RobustAggUnit, TrimmedMeanWeightsSurvivorsProperly) {
  // Survivors with unequal weights: own=2 (w 0.6) and p2=4 (w 0.2) survive
  // after trimming min/max; weighted mean = (0.6*2 + 0.2*4) / 0.8 = 2.5.
  const auto p1 = dense_payload({-100.0f});
  const auto p2 = dense_payload({4.0f});
  const auto p3 = dense_payload({100.0f});
  const auto c = contribs({&p1, &p2, &p3}, 0.2);
  std::vector<float> own = {2.0f};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kTrimmedMean;
  cfg.trim_fraction = 0.25;  // m = 4 -> t = 1
  core::robust_partial_average(cfg, own, 0.6, c, arena);
  EXPECT_FLOAT_EQ(own[0], 2.5f);
}

TEST_F(RobustAggUnit, TrimCountClampAlwaysLeavesASurvivor) {
  // f = 0.49 with m = 5 gives floor(2.45) = 2 = (5-1)/2: exactly one
  // survivor (the median entry) remains.
  const auto p1 = dense_payload({10.0f});
  const auto p2 = dense_payload({20.0f});
  const auto p3 = dense_payload({30.0f});
  const auto p4 = dense_payload({40.0f});
  const auto c = contribs({&p1, &p2, &p3, &p4}, 0.2);
  std::vector<float> own = {25.0f};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kTrimmedMean;
  cfg.trim_fraction = 0.49;
  core::robust_partial_average(cfg, own, 0.2, c, arena);
  EXPECT_FLOAT_EQ(own[0], 25.0f);  // the median survivor is own itself
}

TEST_F(RobustAggUnit, TrimFractionMonotonicity) {
  // One gross outlier among 9 suppliers: as the trim fraction grows the
  // estimate moves monotonically toward the honest mean, and the trimmed-
  // entry counter grows monotonically too.
  std::vector<core::SparsePayload> payloads;
  for (int i = 0; i < 7; ++i) {
    payloads.push_back(dense_payload({static_cast<float>(i % 3)}));  // 0,1,2
  }
  payloads.push_back(dense_payload({1000.0f}));  // the outlier
  std::vector<core::WeightedContribution> c;
  for (const auto& p : payloads) c.push_back({0.1, &p});
  const double honest_mean = (0 + 1 + 2 + 0 + 1 + 2 + 0 + 1.0) / 8.0;
  double previous_error = std::numeric_limits<double>::infinity();
  std::uint64_t previous_trimmed = 0;
  for (const double f : {0.05, 0.12, 0.23, 0.34, 0.45}) {
    std::vector<float> own = {1.0f};
    core::RobustAggConfig cfg;
    cfg.kind = core::RobustAggKind::kTrimmedMean;
    cfg.trim_fraction = f;
    core::RobustAggCounters counters;
    core::robust_partial_average(cfg, own, 0.2, c, arena, &counters);
    const double error = std::abs(own[0] - honest_mean);
    EXPECT_LE(error, previous_error) << "f=" << f;
    EXPECT_GE(counters.trimmed_entries, previous_trimmed) << "f=" << f;
    previous_error = error;
    previous_trimmed = counters.trimmed_entries;
  }
  EXPECT_LT(previous_error, 1.0);  // the outlier is fully suppressed
}

// --- (c) unit properties: bounded output under a single outlier -----------

TEST_F(RobustAggUnit, MedianBoundedUnderSingleOutlier) {
  const auto honest1 = dense_payload({1.0f, -1.0f});
  const auto honest2 = dense_payload({2.0f, -2.0f});
  const auto outlier = dense_payload({1e6f, -1e6f});
  const auto c = contribs({&honest1, &honest2, &outlier}, 0.2);
  std::vector<float> own = {0.5f, -0.5f};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kMedian;
  core::robust_partial_average(cfg, own, 0.4, c, arena);
  for (const float v : own) EXPECT_LE(std::abs(v), 2.0f);
}

TEST_F(RobustAggUnit, TrimmedMeanBoundedUnderSingleOutlier) {
  const auto honest1 = dense_payload({1.0f, -1.0f});
  const auto honest2 = dense_payload({2.0f, -2.0f});
  const auto outlier = dense_payload({-1e6f, 1e6f});
  const auto c = contribs({&honest1, &honest2, &outlier}, 0.2);
  std::vector<float> own = {0.5f, -0.5f};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kTrimmedMean;
  cfg.trim_fraction = 0.25;  // m = 4 -> t = 1: the outlier is trimmed
  core::robust_partial_average(cfg, own, 0.4, c, arena);
  for (const float v : own) EXPECT_LE(std::abs(v), 2.0f);
}

TEST_F(RobustAggUnit, NormClipBoundsDeviationFromOwn) {
  const auto outlier = dense_payload({100.0f, 0.0f});
  std::vector<core::WeightedContribution> c = {{0.5, &outlier}};
  std::vector<float> own = {0.0f, 0.0f};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kNormClip;
  cfg.clip_norm = 2.0;
  core::RobustAggCounters counters;
  core::robust_partial_average(cfg, own, 0.5, c, arena, &counters);
  // Clipped contribution: own + 2/100 * (z - own) = (2, 0); the 50/50
  // average with own (0, 0) gives (1, 0).
  EXPECT_FLOAT_EQ(own[0], 1.0f);
  EXPECT_FLOAT_EQ(own[1], 0.0f);
  EXPECT_EQ(counters.clipped_contributions, 1u);
}

TEST_F(RobustAggUnit, NormClipPassesSmallDeviationsBitIdentically) {
  const auto p1 = dense_payload({0.25f, -0.125f});
  const auto p2 = sparse_payload(2, {0}, {0.5f});
  const auto c = contribs({&p1, &p2}, 0.25);
  std::vector<float> clipped = {0.0f, 0.0f};
  std::vector<float> legacy = clipped;
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kNormClip;
  cfg.clip_norm = 10.0;  // nothing deviates this far
  core::RobustAggCounters counters;
  core::robust_partial_average(cfg, clipped, 0.5, c, arena, &counters);
  core::partial_average(legacy, 0.5, c, arena);
  EXPECT_EQ(counters.clipped_contributions, 0u);
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i], clipped[i]) << i;
  }
}

// --- (c) unit properties: permutation invariance --------------------------

class RobustPermutation
    : public ::testing::TestWithParam<core::RobustAggKind> {};

TEST_P(RobustPermutation, ContributionOrderDoesNotChangeTheResult) {
  // Distinct values per coordinate so the value-sort is canonical; the
  // order the contributions arrive in must not matter.
  core::Arena arena;
  const auto p1 = dense_payload({1.0f, 7.0f, -3.0f});
  const auto p2 = dense_payload({4.0f, -2.0f, 5.0f});
  const auto p3 = dense_payload({-6.0f, 3.0f, 1.0f});
  const auto p4 = sparse_payload(3, {0, 2}, {2.0f, -1.0f});
  std::vector<core::WeightedContribution> forward = {
      {0.15, &p1}, {0.2, &p2}, {0.25, &p3}, {0.1, &p4}};
  std::vector<core::WeightedContribution> reversed(forward.rbegin(),
                                                   forward.rend());
  core::RobustAggConfig cfg;
  cfg.kind = GetParam();
  cfg.trim_fraction = 0.2;
  cfg.clip_norm = 3.0;
  std::vector<float> a = {0.5f, 0.25f, -0.75f};
  std::vector<float> b = a;
  core::robust_partial_average(cfg, a, 0.3, forward, arena);
  core::robust_partial_average(cfg, b, 0.3, reversed, arena);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-6) << i;
  }
}

TEST_P(RobustPermutation, DiffAccumulationOrderDoesNotChangeTheResult) {
  const auto p1 = dense_payload({1.0f, 7.0f});
  const auto p2 = dense_payload({4.0f, -2.0f});
  const auto p3 = dense_payload({-6.0f, 3.0f});
  std::vector<core::WeightedContribution> forward = {
      {0.15, &p1}, {0.2, &p2}, {0.25, &p3}};
  std::vector<core::WeightedContribution> reversed(forward.rbegin(),
                                                   forward.rend());
  core::RobustAggConfig cfg;
  cfg.kind = GetParam();
  cfg.trim_fraction = 0.2;
  cfg.clip_norm = 3.0;
  std::vector<float> a = {0.5f, -0.5f};
  std::vector<float> b = a;
  core::Arena arena;
  core::robust_accumulate_diffs(cfg, a, forward, arena);
  core::robust_accumulate_diffs(cfg, b, reversed, arena);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-6) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, RobustPermutation,
    ::testing::Values(core::RobustAggKind::kTrimmedMean,
                      core::RobustAggKind::kMedian,
                      core::RobustAggKind::kNormClip),
    [](const ::testing::TestParamInfo<core::RobustAggKind>& info) {
      return core::robust_agg_name(info.param);
    });

// --- (c) unit properties: diff-space rules (the CHOCO path) ---------------

TEST_F(RobustAggUnit, DiffMedianScalesBySummedSupplierWeight) {
  // Median of {1, 5, 9} is 5; W = 0.2 + 0.3 + 0.1 = 0.6 -> acc += 3.
  const auto p1 = dense_payload({1.0f});
  const auto p2 = dense_payload({5.0f});
  const auto p3 = dense_payload({9.0f});
  std::vector<core::WeightedContribution> c = {
      {0.2, &p1}, {0.3, &p2}, {0.1, &p3}};
  std::vector<float> acc = {10.0f};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kMedian;
  core::robust_accumulate_diffs(cfg, acc, c, arena);
  EXPECT_FLOAT_EQ(acc[0], 13.0f);
}

TEST_F(RobustAggUnit, DiffTrimmedMeanSuppressesOutlierDiff) {
  // Four equal-weight diffs, one huge: f = 0.25 -> t = 1 trims the min and
  // the max; survivors {2, 3} average to 2.5, W = 0.4 -> acc += 1.
  const auto p1 = dense_payload({2.0f});
  const auto p2 = dense_payload({3.0f});
  const auto p3 = dense_payload({1.0f});
  const auto p4 = dense_payload({1e6f});
  const auto c = contribs({&p1, &p2, &p3, &p4}, 0.1);
  std::vector<float> acc = {0.0f};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kTrimmedMean;
  cfg.trim_fraction = 0.25;
  core::RobustAggCounters counters;
  core::robust_accumulate_diffs(cfg, acc, c, arena, &counters);
  EXPECT_FLOAT_EQ(acc[0], 0.4f * 2.5f);
  EXPECT_EQ(counters.trimmed_entries, 2u);
}

TEST_F(RobustAggUnit, DiffNormClipShrinksLargeDiffs) {
  // ||(3, 4)|| = 5 > 1 -> shrunk by 1/5 to (0.6, 0.8), weight 0.5.
  const auto big = dense_payload({3.0f, 4.0f});
  std::vector<core::WeightedContribution> c = {{0.5, &big}};
  std::vector<float> acc = {0.0f, 0.0f};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kNormClip;
  cfg.clip_norm = 1.0;
  core::RobustAggCounters counters;
  core::robust_accumulate_diffs(cfg, acc, c, arena, &counters);
  EXPECT_FLOAT_EQ(acc[0], 0.5f * 0.6f);
  EXPECT_FLOAT_EQ(acc[1], 0.5f * 0.8f);
  EXPECT_EQ(counters.clipped_contributions, 1u);
}

TEST_F(RobustAggUnit, CountersAccumulateAcrossCalls) {
  const auto outlier = dense_payload({100.0f});
  std::vector<core::WeightedContribution> c = {{0.5, &outlier}};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kNormClip;
  cfg.clip_norm = 1.0;
  core::RobustAggCounters counters;
  for (int i = 0; i < 3; ++i) {
    std::vector<float> own = {0.0f};
    core::robust_partial_average(cfg, own, 0.5, c, arena, &counters);
  }
  EXPECT_EQ(counters.clipped_contributions, 3u);
}

TEST_F(RobustAggUnit, MalformedContributionsThrow) {
  const auto wrong_length = dense_payload({1.0f, 2.0f});
  std::vector<core::WeightedContribution> c = {{0.5, &wrong_length}};
  std::vector<float> own = {0.0f, 0.0f, 0.0f};
  core::RobustAggConfig cfg;
  cfg.kind = core::RobustAggKind::kMedian;
  EXPECT_THROW(core::robust_partial_average(cfg, own, 0.5, c, arena),
               std::invalid_argument);
  auto bad_index = sparse_payload(3, {7}, {1.0f});
  std::vector<core::WeightedContribution> c2 = {{0.5, &bad_index}};
  EXPECT_THROW(core::robust_partial_average(cfg, own, 0.5, c2, arena),
               std::out_of_range);
  EXPECT_THROW(core::robust_accumulate_diffs(cfg, own, c, arena),
               std::invalid_argument);
}

TEST_F(RobustAggUnit, RuleNamesAreStable) {
  EXPECT_STREQ(core::robust_agg_name(core::RobustAggKind::kNone), "none");
  EXPECT_STREQ(core::robust_agg_name(core::RobustAggKind::kTrimmedMean),
               "trimmed_mean");
  EXPECT_STREQ(core::robust_agg_name(core::RobustAggKind::kMedian), "median");
  EXPECT_STREQ(core::robust_agg_name(core::RobustAggKind::kNormClip),
               "norm_clip");
  EXPECT_STREQ(algo::byzantine_mode_name(algo::ByzantineMode::kRandom),
               "random");
  EXPECT_STREQ(algo::byzantine_mode_name(algo::ByzantineMode::kSignFlip),
               "sign_flip");
  EXPECT_STREQ(algo::byzantine_mode_name(algo::ByzantineMode::kScale),
               "scale");
}

// --- seeded victim selection ----------------------------------------------

TEST(ByzantineVictims, AscendingUniqueAndClamped) {
  const auto victims = algo::byzantine_victims(7, 16, 5);
  ASSERT_EQ(victims.size(), 5u);
  for (std::size_t i = 1; i < victims.size(); ++i) {
    EXPECT_LT(victims[i - 1], victims[i]);
  }
  for (const std::uint32_t v : victims) EXPECT_LT(v, 16u);
  EXPECT_EQ(algo::byzantine_victims(7, 4, 100).size(), 4u);
  EXPECT_TRUE(algo::byzantine_victims(7, 4, 0).empty());
}

TEST(ByzantineVictims, DeterministicPerSeedAndSeedSensitive) {
  EXPECT_EQ(algo::byzantine_victims(11, 32, 8),
            algo::byzantine_victims(11, 32, 8));
  EXPECT_NE(algo::byzantine_victims(11, 32, 8),
            algo::byzantine_victims(12, 32, 8));
}

TEST(ByzantineVictims, GrowingCountIsANestedPrefix) {
  // The k victims under count=k are always a subset of those under k+1 —
  // the sorted-hash construction makes attacker sweeps nested, like the
  // crash set.
  const auto small = algo::byzantine_victims(23, 16, 3);
  const auto large = algo::byzantine_victims(23, 16, 6);
  for (const std::uint32_t v : small) {
    EXPECT_NE(std::find(large.begin(), large.end(), v), large.end()) << v;
  }
}

// --- experiment-level helpers ---------------------------------------------

struct ByzScenario {
  const char* name;
  sim::Algorithm algorithm;
  bool choco_qsgd = false;
  algo::ByzantineMode mode = algo::ByzantineMode::kSignFlip;
  double scale = 1.0;
  std::size_t attackers = 2;
  core::RobustAggKind defense = core::RobustAggKind::kNone;
};

sim::ExperimentResult run_byz(const ByzScenario& s, unsigned threads,
                              sim::EngineKind engine = sim::EngineKind::kSync,
                              std::size_t rounds = 4) {
  const std::size_t n = 8;
  const sim::Workload w = sim::make_femnist_like(n, 29);
  sim::ExperimentConfig cfg;
  cfg.algorithm = s.algorithm;
  cfg.rounds = rounds;
  cfg.local_steps = 2;
  cfg.sgd.learning_rate = 0.05f;
  cfg.eval_every = rounds;
  cfg.eval_sample_limit = 48;
  cfg.threads = threads;
  cfg.seed = 29;
  cfg.engine = engine;
  if (s.choco_qsgd) cfg.choco.compressor = algo::ChocoNode::Compressor::kQsgd;
  cfg.byzantine_nodes = s.attackers;
  cfg.byzantine_mode = s.mode;
  cfg.byzantine_scale = s.scale;
  cfg.robust_agg.kind = s.defense;
  cfg.robust_agg.trim_fraction = 0.25;
  cfg.robust_agg.clip_norm = 0.5;
  std::mt19937 topo_rng(29);
  sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                      std::make_unique<graph::StaticTopology>(
                          graph::random_regular(n, 4, topo_rng)));
  return exp.run();
}

/// The report without its byzantine.mode echo, the one line an unused
/// attack-mode knob shows on a benign run.
std::string without_mode_echo(const std::string& json) {
  static const std::regex echo("\n    \"mode\": \"[a-z_]+\",");
  return std::regex_replace(json, echo, "");
}

void expect_bit_identical(const sim::ExperimentResult& a,
                          const sim::ExperimentResult& b, const char* label,
                          bool ignore_mode_echo = false) {
  SCOPED_TRACE(label);
  std::ostringstream ja, jb;
  sim::write_result_json(ja, "report", a, /*include_wall=*/false);
  sim::write_result_json(jb, "report", b, /*include_wall=*/false);
  if (ignore_mode_echo) {
    EXPECT_EQ(without_mode_echo(ja.str()), without_mode_echo(jb.str()));
  } else {
    EXPECT_EQ(ja.str(), jb.str());
  }
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.byzantine.corrupted_messages, b.byzantine.corrupted_messages);
  EXPECT_EQ(a.byzantine.trimmed_entries, b.byzantine.trimmed_entries);
  EXPECT_EQ(a.byzantine.clipped_contributions,
            b.byzantine.clipped_contributions);
}

// --- (a) golden guarantee: benign runs match a config without the layer ---

class NoAttackGolden
    : public ::testing::TestWithParam<ByzScenario> {};

TEST_P(NoAttackGolden, BenignRunMatchesUntouchedConfigByteForByte) {
  // byzantine_nodes = 0 with robust_agg = none must be indistinguishable —
  // in every metric and in the emitted JSON, byte for byte but for the
  // byzantine.mode echo of the knob itself — from a config that never heard
  // of the adversarial layer, whatever the (unused) attack-mode knobs are
  // set to.
  ByzScenario benign = GetParam();
  benign.attackers = 0;
  benign.defense = core::RobustAggKind::kNone;
  benign.mode = algo::ByzantineMode::kRandom;  // irrelevant without victims
  benign.scale = 42.0;
  const auto with_knobs = run_byz(benign, 1);
  ByzScenario untouched = GetParam();
  untouched.attackers = 0;
  untouched.defense = core::RobustAggKind::kNone;
  untouched.mode = algo::ByzantineMode::kSignFlip;  // the defaults
  untouched.scale = 1.0;
  const auto legacy = run_byz(untouched, 1);
  expect_bit_identical(with_knobs, legacy, "benign vs legacy",
                       /*ignore_mode_echo=*/true);
  EXPECT_TRUE(with_knobs.byzantine.attackers.empty());
  EXPECT_EQ(with_knobs.byzantine.corrupted_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, NoAttackGolden,
    ::testing::Values(
        ByzScenario{"full_sharing", sim::Algorithm::kFullSharing},
        ByzScenario{"random_sampling", sim::Algorithm::kRandomSampling},
        ByzScenario{"jwins", sim::Algorithm::kJwins},
        ByzScenario{"choco_topk", sim::Algorithm::kChoco},
        ByzScenario{"choco_qsgd", sim::Algorithm::kChoco, true},
        ByzScenario{"power_gossip", sim::Algorithm::kPowerGossip}),
    [](const ::testing::TestParamInfo<ByzScenario>& info) {
      return info.param.name;
    });

// --- attack matrix: every algorithm x every attack mode -------------------

class AttackMatrix : public ::testing::TestWithParam<ByzScenario> {};

TEST_P(AttackMatrix, AttackAccountingIsReported) {
  const auto result = run_byz(GetParam(), 1);
  EXPECT_EQ(result.byzantine.mode, GetParam().mode);
  EXPECT_EQ(result.byzantine.attackers,
            algo::byzantine_victims(29, 8, GetParam().attackers));
  EXPECT_GT(result.byzantine.corrupted_messages, 0u);
  EXPECT_TRUE(std::isfinite(result.final_loss));
  std::ostringstream os;
  sim::write_result_json(os, "report", result, /*include_wall=*/false);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"byzantine\""), std::string::npos);
  EXPECT_NE(json.find(std::string("\"mode\": \"") +
                      algo::byzantine_mode_name(GetParam().mode) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"corrupted_messages\""), std::string::npos);
}

TEST_P(AttackMatrix, BitIdenticalAcrossThreadCountsAndReplay) {
  // (d) the determinism contract under attack: threads=1 vs threads=4,
  // and an identical replay, must agree byte for byte.
  const auto sequential = run_byz(GetParam(), 1);
  const auto threaded = run_byz(GetParam(), 4);
  const auto replay = run_byz(GetParam(), 4);
  expect_bit_identical(sequential, threaded, "threads=1 vs threads=4");
  expect_bit_identical(threaded, replay, "replay");
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllModes, AttackMatrix,
    ::testing::Values(
        ByzScenario{"full_sharing_random", sim::Algorithm::kFullSharing,
                    false, algo::ByzantineMode::kRandom},
        ByzScenario{"full_sharing_sign_flip", sim::Algorithm::kFullSharing,
                    false, algo::ByzantineMode::kSignFlip},
        ByzScenario{"full_sharing_scale", sim::Algorithm::kFullSharing,
                    false, algo::ByzantineMode::kScale, -10.0},
        ByzScenario{"random_sampling_random", sim::Algorithm::kRandomSampling,
                    false, algo::ByzantineMode::kRandom},
        ByzScenario{"random_sampling_sign_flip",
                    sim::Algorithm::kRandomSampling, false,
                    algo::ByzantineMode::kSignFlip},
        ByzScenario{"random_sampling_scale", sim::Algorithm::kRandomSampling,
                    false, algo::ByzantineMode::kScale, -10.0},
        ByzScenario{"jwins_random", sim::Algorithm::kJwins, false,
                    algo::ByzantineMode::kRandom},
        ByzScenario{"jwins_sign_flip", sim::Algorithm::kJwins, false,
                    algo::ByzantineMode::kSignFlip},
        ByzScenario{"jwins_scale", sim::Algorithm::kJwins, false,
                    algo::ByzantineMode::kScale, -10.0},
        ByzScenario{"choco_topk_random", sim::Algorithm::kChoco, false,
                    algo::ByzantineMode::kRandom},
        ByzScenario{"choco_topk_sign_flip", sim::Algorithm::kChoco, false,
                    algo::ByzantineMode::kSignFlip},
        ByzScenario{"choco_topk_scale", sim::Algorithm::kChoco, false,
                    algo::ByzantineMode::kScale, -10.0},
        ByzScenario{"choco_qsgd_random", sim::Algorithm::kChoco, true,
                    algo::ByzantineMode::kRandom},
        ByzScenario{"choco_qsgd_sign_flip", sim::Algorithm::kChoco, true,
                    algo::ByzantineMode::kSignFlip},
        ByzScenario{"choco_qsgd_scale", sim::Algorithm::kChoco, true,
                    algo::ByzantineMode::kScale, -10.0},
        ByzScenario{"power_gossip_random", sim::Algorithm::kPowerGossip,
                    false, algo::ByzantineMode::kRandom},
        ByzScenario{"power_gossip_sign_flip", sim::Algorithm::kPowerGossip,
                    false, algo::ByzantineMode::kSignFlip},
        ByzScenario{"power_gossip_scale", sim::Algorithm::kPowerGossip, false,
                    algo::ByzantineMode::kScale, -10.0}),
    [](const ::testing::TestParamInfo<ByzScenario>& info) {
      return info.param.name;
    });

TEST(Byzantine, CorruptedMessagesCountEverySend) {
  // Sync engine, no faults: every attacker sends one corrupted message to
  // each neighbour every round, so the tally is exact.
  std::mt19937 topo_rng(29);
  const graph::Graph g = graph::random_regular(8, 4, topo_rng);
  const ByzScenario scenarios[] = {
      {"full_sharing", sim::Algorithm::kFullSharing},
      {"random_sampling", sim::Algorithm::kRandomSampling},
      {"jwins", sim::Algorithm::kJwins},
      {"choco_topk", sim::Algorithm::kChoco},
      {"choco_qsgd", sim::Algorithm::kChoco, true},
      {"power_gossip", sim::Algorithm::kPowerGossip},
  };
  for (const ByzScenario& s : scenarios) {
    const auto result = run_byz(s, 1);
    std::uint64_t degree_sum = 0;
    for (const std::uint32_t a : result.byzantine.attackers) {
      degree_sum += g.neighbors(a).size();
    }
    ASSERT_EQ(result.byzantine.attackers.size(), s.attackers) << s.name;
    EXPECT_EQ(result.byzantine.corrupted_messages,
              degree_sum * result.rounds_run)
        << s.name;
  }
}

// --- defense matrix: robust rules under a live sign-flip attack -----------

class DefenseMatrix : public ::testing::TestWithParam<ByzScenario> {};

TEST_P(DefenseMatrix, DefenseRunsAndReportsItsActivity) {
  const auto result = run_byz(GetParam(), 1);
  EXPECT_EQ(result.byzantine.robust_agg, GetParam().defense);
  EXPECT_TRUE(std::isfinite(result.final_loss));
  // The defense must actually have engaged: order-statistic rules trim,
  // the clip rule clips (sign-flipped payloads deviate far beyond 0.5).
  if (GetParam().defense == core::RobustAggKind::kNormClip) {
    EXPECT_GT(result.byzantine.clipped_contributions, 0u);
  } else {
    EXPECT_GT(result.byzantine.trimmed_entries, 0u);
  }
  std::ostringstream os;
  sim::write_result_json(os, "report", result, /*include_wall=*/false);
  EXPECT_NE(os.str().find(std::string("\"robust_agg\": \"") +
                          core::robust_agg_name(GetParam().defense) + "\""),
            std::string::npos);
}

TEST_P(DefenseMatrix, BitIdenticalAcrossThreadCounts) {
  const auto sequential = run_byz(GetParam(), 1);
  const auto threaded = run_byz(GetParam(), 4);
  expect_bit_identical(sequential, threaded, "threads=1 vs threads=4");
}

INSTANTIATE_TEST_SUITE_P(
    RulesAcrossAlgorithms, DefenseMatrix,
    ::testing::Values(
        ByzScenario{"full_sharing_trimmed", sim::Algorithm::kFullSharing,
                    false, algo::ByzantineMode::kSignFlip, 1.0, 2,
                    core::RobustAggKind::kTrimmedMean},
        ByzScenario{"full_sharing_median", sim::Algorithm::kFullSharing,
                    false, algo::ByzantineMode::kSignFlip, 1.0, 2,
                    core::RobustAggKind::kMedian},
        ByzScenario{"full_sharing_norm_clip", sim::Algorithm::kFullSharing,
                    false, algo::ByzantineMode::kSignFlip, 1.0, 2,
                    core::RobustAggKind::kNormClip},
        ByzScenario{"jwins_trimmed", sim::Algorithm::kJwins, false,
                    algo::ByzantineMode::kSignFlip, 1.0, 2,
                    core::RobustAggKind::kTrimmedMean},
        ByzScenario{"jwins_median", sim::Algorithm::kJwins, false,
                    algo::ByzantineMode::kSignFlip, 1.0, 2,
                    core::RobustAggKind::kMedian},
        ByzScenario{"jwins_norm_clip", sim::Algorithm::kJwins, false,
                    algo::ByzantineMode::kSignFlip, 1.0, 2,
                    core::RobustAggKind::kNormClip},
        ByzScenario{"choco_topk_trimmed", sim::Algorithm::kChoco, false,
                    algo::ByzantineMode::kSignFlip, 1.0, 2,
                    core::RobustAggKind::kTrimmedMean},
        ByzScenario{"choco_topk_median", sim::Algorithm::kChoco, false,
                    algo::ByzantineMode::kSignFlip, 1.0, 2,
                    core::RobustAggKind::kMedian},
        ByzScenario{"choco_topk_norm_clip", sim::Algorithm::kChoco, false,
                    algo::ByzantineMode::kSignFlip, 1.0, 2,
                    core::RobustAggKind::kNormClip},
        ByzScenario{"power_gossip_norm_clip", sim::Algorithm::kPowerGossip,
                    false, algo::ByzantineMode::kSignFlip, 1.0, 2,
                    core::RobustAggKind::kNormClip}),
    [](const ::testing::TestParamInfo<ByzScenario>& info) {
      return info.param.name;
    });

// --- (b) sign-flip degradation and robust recovery ------------------------

TEST(SignFlipRecovery, UndefendedDegradesAndOrderStatisticsRecover) {
  // Full-sharing, 8 nodes, 2 sign-flippers, 8 rounds. The pinned contract:
  // with no defense the poisoned average visibly hurts the final loss;
  // trimmed_mean and median bring it back near the benign trajectory.
  ByzScenario benign{"benign", sim::Algorithm::kFullSharing};
  benign.attackers = 0;
  ByzScenario attacked = benign;
  attacked.attackers = 2;
  attacked.mode = algo::ByzantineMode::kSignFlip;
  ByzScenario trimmed = attacked;
  trimmed.defense = core::RobustAggKind::kTrimmedMean;
  ByzScenario median = attacked;
  median.defense = core::RobustAggKind::kMedian;

  const std::size_t rounds = 16;
  const double benign_loss =
      run_byz(benign, 4, sim::EngineKind::kSync, rounds).final_loss;
  const double undefended_loss =
      run_byz(attacked, 4, sim::EngineKind::kSync, rounds).final_loss;
  const double trimmed_loss =
      run_byz(trimmed, 4, sim::EngineKind::kSync, rounds).final_loss;
  const double median_loss =
      run_byz(median, 4, sim::EngineKind::kSync, rounds).final_loss;

  // Degradation: the undefended run must be measurably worse.
  EXPECT_GT(undefended_loss, benign_loss * 1.10)
      << "benign=" << benign_loss << " undefended=" << undefended_loss;
  // Recovery, pinned: the order-statistic defenses land within 10% of the
  // benign loss and beat the undefended run outright.
  EXPECT_LT(trimmed_loss, benign_loss * 1.10)
      << "benign=" << benign_loss << " trimmed=" << trimmed_loss;
  EXPECT_LT(median_loss, benign_loss * 1.10)
      << "benign=" << benign_loss << " median=" << median_loss;
  EXPECT_LT(trimmed_loss, undefended_loss);
  EXPECT_LT(median_loss, undefended_loss);
}

TEST(SignFlipRecovery, JwinsTrimmedMeanRecoversOnTheSparsePath) {
  // The same contract on the renormalized sparse-average path the paper's
  // algorithm actually uses.
  ByzScenario attacked{"jwins", sim::Algorithm::kJwins};
  attacked.attackers = 2;
  ByzScenario trimmed = attacked;
  trimmed.defense = core::RobustAggKind::kTrimmedMean;
  const std::size_t rounds = 8;
  const double undefended_loss =
      run_byz(attacked, 4, sim::EngineKind::kSync, rounds).final_loss;
  const double trimmed_loss =
      run_byz(trimmed, 4, sim::EngineKind::kSync, rounds).final_loss;
  EXPECT_LT(trimmed_loss, undefended_loss)
      << "undefended=" << undefended_loss << " trimmed=" << trimmed_loss;
}

// --- config-level validation of the adversarial fields --------------------

TEST(ByzantineValidation, ExperimentRejectsContradictoryConfigs) {
  sim::ExperimentConfig cfg;
  cfg.byzantine_nodes = 8;
  auto errors = cfg.validate(8);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("byzantine_nodes"), std::string::npos);

  sim::ExperimentConfig trim;
  trim.robust_agg.kind = core::RobustAggKind::kTrimmedMean;
  trim.robust_agg.trim_fraction = 0.5;
  errors = trim.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("trim fraction"), std::string::npos);

  sim::ExperimentConfig clip;
  clip.robust_agg.kind = core::RobustAggKind::kNormClip;
  clip.robust_agg.clip_norm = 0.0;
  errors = clip.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("clip norm"), std::string::npos);

  sim::ExperimentConfig pg;
  pg.algorithm = sim::Algorithm::kPowerGossip;
  pg.robust_agg.kind = core::RobustAggKind::kTrimmedMean;
  pg.robust_agg.trim_fraction = 0.1;
  errors = pg.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("power-gossip"), std::string::npos);
}

TEST(ByzantineValidation, CrashAndByzantineVictimOverlapIsRejected) {
  // Find a (seed, crash, byzantine) combination whose seeded victim sets
  // collide, then assert validate(n) names the overlap. With 3 crashed and
  // 3 byzantine of 8 nodes some seed below 64 must collide.
  const std::size_t n = 8;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    sim::ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.byzantine_nodes = 3;
    cfg.time.crash_nodes = 3;
    cfg.time.crash_at = 2;
    const auto errors = cfg.validate(n);
    if (errors.empty()) continue;  // disjoint under this seed
    EXPECT_NE(errors.front().find("both crashed and byzantine"),
              std::string::npos)
        << errors.front();
    return;
  }
  FAIL() << "no colliding seed found in 64 tries (statistically impossible "
            "unless the overlap check is dead)";
}

TEST(ByzantineValidation, DisjointCrashAndByzantineSetsPass) {
  const std::size_t n = 8;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    sim::ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.byzantine_nodes = 1;
    cfg.time.crash_nodes = 1;
    cfg.time.crash_at = 2;
    if (cfg.validate(n).empty()) return;  // found a disjoint pair: passes
  }
  FAIL() << "every seed collided (the overlap check is over-eager)";
}

TEST(ByzantineValidation, ConstructorSurfacesTheOverlapError) {
  const std::size_t n = 8;
  const sim::Workload w = sim::make_femnist_like(n, 29);
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    sim::ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.byzantine_nodes = 3;
    cfg.time.crash_nodes = 3;
    cfg.time.crash_at = 2;
    if (cfg.validate(n).empty()) continue;
    std::mt19937 topo_rng(29);
    EXPECT_THROW(
        sim::Experiment(cfg, w.model_factory, *w.train, w.partition, *w.test,
                        std::make_unique<graph::StaticTopology>(
                            graph::random_regular(n, 4, topo_rng))),
        std::invalid_argument);
    return;
  }
  FAIL() << "no colliding seed found";
}

}  // namespace
}  // namespace jwins
