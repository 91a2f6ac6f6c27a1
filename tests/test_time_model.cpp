// Heterogeneous link-time & fault-injection engine tests
// (net/time_model.hpp; docs/SIMULATION.md is the spec):
//
//  * distribution determinism — per-edge/per-node draws are pure functions
//    of (seed, coordinates), symmetric, seed-sensitive, query-order free;
//  * golden equivalence — the default TimeModel reduces EXACTLY (EXPECT_EQ
//    on doubles) to the legacy flat LinkModel formula, and inert
//    heterogeneity settings keep result JSON byte-identical;
//  * the per-edge critical-path accumulator against hand-computed cases,
//    including the isolated-node and zero-byte-round edge cases;
//  * crash/rejoin and burst bookkeeping, per-cause drop counters;
//  * the new scenario keys: value mapping, unit conversion, and every
//    diagnostic path;
//  * experiment integration: the sim_time JSON block (drop and straggler
//    counters under heterogeneity/faults, zero by default) and the
//    threads=1 vs 4 byte-identical-JSON determinism guard carried over to
//    heterogeneous runs.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>

#include "config/runner.hpp"
#include "config/scenario.hpp"
#include "core/rng.hpp"
#include "graph/graph.hpp"
#include "net/network.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/workloads.hpp"
#include "test_util.hpp"

namespace jwins {
namespace {

using net::DropCause;
using net::EdgeDropDist;
using net::LinkDist;
using net::LinkModel;
using net::TimeModel;
using net::TimeModelConfig;

LinkDist uniform_dist(double lo, double hi) {
  return {LinkDist::Kind::kUniform, lo, hi};
}

LinkDist lognormal_dist(double median, double sigma) {
  return {LinkDist::Kind::kLognormal, median, sigma};
}

// --- config validation ------------------------------------------------------

TEST(TimeModelConfig, DefaultIsValidAndNotExtended) {
  const TimeModelConfig config;
  EXPECT_TRUE(config.validate().empty());
  EXPECT_FALSE(config.heterogeneous_time());
  EXPECT_FALSE(config.any_faults());
  EXPECT_FALSE(config.extended());
}

TEST(TimeModelConfig, ReportsKeyedViolations) {
  TimeModelConfig config;
  config.straggler_fraction = 1.0;
  config.straggler_slowdown = 0.5;
  config.rejoin_at = 3;
  config.crash_at = 5;
  config.burst_every = 2;
  config.burst_length = 4;
  config.burst_drop = 0.0;
  const auto errors = config.validate();
  auto has = [&](const std::string& needle) {
    for (const std::string& e : errors) {
      if (e.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("straggler_fraction:"));
  EXPECT_TRUE(has("straggler_slowdown:"));
  EXPECT_TRUE(has("rejoin_at:"));
  EXPECT_TRUE(has("burst_length:"));
  EXPECT_TRUE(has("burst_drop:"));
}

TEST(TimeModelConfig, DistributionRangeChecks) {
  TimeModelConfig config;
  config.bandwidth_dist = uniform_dist(0.0, 10.0);  // bandwidth lo must be > 0
  EXPECT_FALSE(config.validate().empty());
  config.bandwidth_dist = lognormal_dist(-1.0, 0.5);
  EXPECT_FALSE(config.validate().empty());
  config.bandwidth_dist = {};
  config.latency_dist = uniform_dist(0.0, 0.1);  // latency may reach zero
  EXPECT_TRUE(config.validate().empty());
  config.edge_drop = {EdgeDropDist::Kind::kUniform, 0.2, 1.0};  // hi must be < 1
  EXPECT_FALSE(config.validate().empty());
}

TEST(TimeModelConfig, ExtendedGating) {
  TimeModelConfig config;
  config.straggler_fraction = 0.5;  // slowdown still 1.0 -> inert
  EXPECT_FALSE(config.heterogeneous_time());
  config.straggler_slowdown = 2.0;
  EXPECT_TRUE(config.heterogeneous_time());
  config = {};
  config.crash_nodes = 1;
  EXPECT_FALSE(config.heterogeneous_time());
  EXPECT_TRUE(config.any_faults());
  EXPECT_TRUE(config.extended());
}

// --- distribution determinism ----------------------------------------------

TEST(TimeModelDraws, EdgeAttributesAreSymmetricAndSeedKeyed) {
  TimeModelConfig config;
  config.bandwidth_dist = uniform_dist(1e5, 1e7);
  config.latency_dist = lognormal_dist(0.01, 0.5);
  const TimeModel a(16, {}, config, /*seed=*/42);
  const TimeModel b(16, {}, config, /*seed=*/42);
  const TimeModel c(16, {}, config, /*seed=*/43);
  bool any_differs_across_seeds = false;
  for (std::uint32_t u = 0; u < 16; ++u) {
    for (std::uint32_t v = u + 1; v < 16; ++v) {
      EXPECT_EQ(a.edge_bandwidth(u, v), a.edge_bandwidth(v, u));
      EXPECT_EQ(a.edge_latency(u, v), a.edge_latency(v, u));
      EXPECT_EQ(a.edge_bandwidth(u, v), b.edge_bandwidth(u, v));
      EXPECT_EQ(a.edge_latency(u, v), b.edge_latency(u, v));
      if (a.edge_bandwidth(u, v) != c.edge_bandwidth(u, v)) {
        any_differs_across_seeds = true;
      }
    }
  }
  EXPECT_TRUE(any_differs_across_seeds);
}

TEST(TimeModelDraws, UniformDrawsStayInRangeAndSpread) {
  TimeModelConfig config;
  config.bandwidth_dist = uniform_dist(1000.0, 2000.0);
  const TimeModel tm(64, {}, config, 7);
  double lo = 1e18, hi = 0.0;
  for (std::uint32_t u = 0; u < 64; ++u) {
    for (std::uint32_t v = u + 1; v < 64; ++v) {
      const double bw = tm.edge_bandwidth(u, v);
      ASSERT_GE(bw, 1000.0);
      ASSERT_LE(bw, 2000.0);
      lo = std::min(lo, bw);
      hi = std::max(hi, bw);
    }
  }
  // 2016 edges: the draws should cover most of the interval.
  EXPECT_LT(lo, 1100.0);
  EXPECT_GT(hi, 1900.0);
}

TEST(TimeModelDraws, LognormalIsPositiveWithMedianNearTheSpec) {
  TimeModelConfig config;
  config.latency_dist = lognormal_dist(0.02, 0.75);
  const TimeModel tm(64, {}, config, 3);
  std::size_t below = 0, total = 0;
  for (std::uint32_t u = 0; u < 64; ++u) {
    for (std::uint32_t v = u + 1; v < 64; ++v) {
      const double lat = tm.edge_latency(u, v);
      ASSERT_GT(lat, 0.0);
      if (lat < 0.02) ++below;
      ++total;
    }
  }
  // Median of the lognormal is the spec value: roughly half below.
  EXPECT_GT(below, total * 2 / 5);
  EXPECT_LT(below, total * 3 / 5);
}

TEST(TimeModelDraws, InertStragglerFractionReportsNoStragglers) {
  // fraction > 0 with the multiplier at 1 slows nothing, so nothing may be
  // *reported* as a straggler either (the sim_time block must not claim
  // injection that had no effect).
  TimeModelConfig config;
  config.straggler_fraction = 0.9;
  const TimeModel tm(16, {}, config, 9);
  EXPECT_EQ(tm.straggler_count(), 0u);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_FALSE(tm.is_straggler(i));
    EXPECT_EQ(tm.compute_multiplier(i), 1.0);
  }
}

TEST(TimeModelDraws, StragglerChoiceIsDeterministicPerSeed) {
  TimeModelConfig config;
  config.straggler_fraction = 0.4;
  config.straggler_slowdown = 3.0;
  const TimeModel a(32, {}, config, 9);
  const TimeModel b(32, {}, config, 9);
  EXPECT_EQ(a.straggler_count(), b.straggler_count());
  EXPECT_GT(a.straggler_count(), 0u);  // 32 draws at p=0.4: deterministic set
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ(a.is_straggler(i), b.is_straggler(i));
    EXPECT_EQ(a.compute_multiplier(i), a.is_straggler(i) ? 3.0 : 1.0);
  }
}

// --- golden equivalence to the flat model ----------------------------------

TEST(TimeModelGolden, DefaultModelMatchesFlatFormulaExactly) {
  LinkModel link;
  link.bandwidth_bytes_per_sec = 1000.0;
  link.latency_sec = 0.5;
  net::Network flat(2, link);
  net::Message big;
  big.sender = 0;
  big.body = net::SharedBytes::zeros(2000 - net::Message::kEnvelopeBytes);
  net::Message small;
  small.sender = 1;
  small.body = net::SharedBytes::zeros(100 - net::Message::kEnvelopeBytes);
  flat.send(1, big);
  flat.send(0, small);
  flat.finish_round(/*compute_seconds=*/1.0);
  // EXACT equality, not near: the legacy reduction must evaluate the same
  // doubles in the same order as LinkModel::comm_time.
  EXPECT_EQ(flat.simulated_seconds(), 1.0 + link.comm_time(2000));
  EXPECT_EQ(flat.simulated_compute_seconds(), 1.0);
  EXPECT_EQ(flat.simulated_comm_seconds(), link.comm_time(2000));
  // An idle round costs compute + latency, as before.
  flat.finish_round(1.0);
  EXPECT_EQ(flat.simulated_seconds(),
            (1.0 + link.comm_time(2000)) + (1.0 + link.comm_time(0)));
}

TEST(TimeModelGolden, DegenerateHeterogeneityMatchesFlatOnSingleEdges) {
  // uniform:[x, x] forces the critical-path engine with constant values;
  // with one message per sender the queue is one transfer, so the result
  // must coincide with the flat formula.
  LinkModel link;
  link.bandwidth_bytes_per_sec = 1000.0;
  link.latency_sec = 0.5;
  TimeModelConfig config;
  config.bandwidth_dist = uniform_dist(1000.0, 1000.0);
  config.latency_dist = uniform_dist(0.5, 0.5);
  TimeModel tm(2, link, config, 1);
  tm.record_send(0, 1, 2000);
  tm.record_send(1, 0, 100);
  const TimeModel::RoundTime rt = tm.finish_round(1.0);
  EXPECT_EQ(rt.compute, 1.0);
  EXPECT_DOUBLE_EQ(rt.comm, 0.5 + 2000.0 / 1000.0);
}

TEST(TimeModelGolden, InertHeterogeneitySettingsKeepResultsByteIdentical) {
  // straggler_fraction > 0 with slowdown == 1 changes nothing, so the run
  // must stay on the flat path and emit byte-identical JSON.
  const std::size_t n = 6;
  auto run_with = [&](const TimeModelConfig& time) {
    const sim::Workload w = sim::make_femnist_like(n, 5);
    sim::ExperimentConfig cfg;
    cfg.rounds = 3;
    cfg.eval_every = 1;
    cfg.eval_sample_limit = 32;
    cfg.threads = 2;
    cfg.seed = 5;
    cfg.time = time;
    std::mt19937 rng(5);
    sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                        std::make_unique<graph::StaticTopology>(
                            graph::random_regular(n, 3, rng)));
    return testutil::deterministic_json(exp.run(), "golden");
  };
  TimeModelConfig inert;
  inert.straggler_fraction = 0.5;
  inert.straggler_slowdown = 1.0;
  const std::string a = run_with({});
  const std::string b = run_with(inert);
  EXPECT_EQ(a, b);
}

// --- the critical-path accumulator -----------------------------------------

TEST(TimeModelCriticalPath, HandComputedThreeNodeCase) {
  TimeModelConfig config;
  config.bandwidth_dist = uniform_dist(1000.0, 1000.0);
  config.latency_dist = uniform_dist(0.5, 0.5);
  TimeModel tm(3, {}, config, 1);
  // Node 0 queues two transfers through its uplink: 2000 B then 1000 B.
  tm.record_send(0, 1, 2000);
  tm.record_send(0, 2, 1000);
  // Node 1 sends a single small message.
  tm.record_send(1, 0, 100);
  const TimeModel::RoundTime rt = tm.finish_round(0.0);
  // Edge (0,1): 2.0 + 0.5 = 2.5; edge (0,2): 2.0 + 1.0 + 0.5 = 3.5;
  // edge (1,0): 0.1 + 0.5 = 0.6. Critical path: 3.5.
  EXPECT_DOUBLE_EQ(rt.comm, 3.5);
}

TEST(TimeModelCriticalPath, IsolatedNodeDoesNotGateTheRound) {
  TimeModelConfig config;
  config.bandwidth_dist = uniform_dist(1000.0, 1000.0);
  config.latency_dist = uniform_dist(0.25, 0.25);
  TimeModel tm(4, {}, config, 1);
  tm.record_send(2, 3, 500);  // nodes 0 and 1 are silent (isolated)
  const TimeModel::RoundTime rt = tm.finish_round(0.0);
  EXPECT_DOUBLE_EQ(rt.comm, 0.5 + 0.25);
}

TEST(TimeModelCriticalPath, ZeroByteRoundPaysTheBaseLatencyBarrier) {
  LinkModel link;
  link.latency_sec = 0.125;
  TimeModelConfig config;
  config.latency_dist = uniform_dist(5.0, 5.0);  // per-edge latency unused
  TimeModel tm(3, link, config, 1);
  const TimeModel::RoundTime rt = tm.finish_round(0.5);
  // No edge carried bytes: the sync barrier costs the *base* latency, like
  // the flat model's idle round.
  EXPECT_DOUBLE_EQ(rt.comm, 0.125);
  EXPECT_DOUBLE_EQ(rt.compute, 0.5);
}

TEST(TimeModelCriticalPath, StragglersGateTheComputePhase) {
  TimeModelConfig config;
  config.straggler_fraction = 0.5;
  config.straggler_slowdown = 4.0;
  TimeModel tm(16, {}, config, 21);
  ASSERT_GT(tm.straggler_count(), 0u);
  const TimeModel::RoundTime rt = tm.finish_round(0.1);
  EXPECT_DOUBLE_EQ(rt.compute, 0.4);  // slowest alive node: 0.1 * 4
}

TEST(TimeModelCriticalPath, RepeatSendsToOneNeighborAccumulate) {
  TimeModelConfig config;
  config.bandwidth_dist = uniform_dist(100.0, 100.0);
  config.latency_dist = uniform_dist(0.0, 0.0);
  TimeModel tm(2, {}, config, 1);
  tm.record_send(0, 1, 50);
  tm.record_send(0, 1, 150);
  const TimeModel::RoundTime rt = tm.finish_round(0.0);
  EXPECT_DOUBLE_EQ(rt.comm, 200.0 / 100.0);
  // The accumulator resets between rounds.
  EXPECT_DOUBLE_EQ(tm.finish_round(0.0).comm, 0.002);  // base latency floor
}

// --- crash/rejoin bookkeeping ----------------------------------------------

TEST(TimeModelCrash, WindowAndVictimChoice) {
  TimeModelConfig config;
  config.crash_nodes = 2;
  config.crash_at = 3;
  config.rejoin_at = 5;
  const TimeModel tm(6, {}, config, 17);
  std::size_t victims = 0;
  for (std::uint32_t i = 0; i < 6; ++i) {
    if (tm.node_crashes(i)) ++victims;
    // Every node is alive outside the window.
    EXPECT_TRUE(tm.node_alive(i, 0));
    EXPECT_TRUE(tm.node_alive(i, 2));
    EXPECT_EQ(tm.node_alive(i, 3), !tm.node_crashes(i));
    EXPECT_EQ(tm.node_alive(i, 4), !tm.node_crashes(i));
    EXPECT_TRUE(tm.node_alive(i, 5));  // rejoined
  }
  EXPECT_EQ(victims, 2u);
  // Same seed, same victims.
  const TimeModel again(6, {}, config, 17);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(tm.node_crashes(i), again.node_crashes(i));
  }
}

TEST(TimeModelCrash, RejoinZeroMeansForever) {
  TimeModelConfig config;
  config.crash_nodes = 1;
  config.crash_at = 2;
  const TimeModel tm(4, {}, config, 1);
  std::uint32_t victim = 4;
  for (std::uint32_t i = 0; i < 4; ++i) {
    if (tm.node_crashes(i)) victim = i;
  }
  ASSERT_LT(victim, 4u);
  EXPECT_TRUE(tm.node_alive(victim, 1));
  EXPECT_FALSE(tm.node_alive(victim, 2));
  EXPECT_FALSE(tm.node_alive(victim, 1000));
}

TEST(TimeModelCrash, CrashedNodeRoundsAccumulate) {
  TimeModelConfig config;
  config.crash_nodes = 2;
  config.crash_at = 1;
  config.rejoin_at = 3;
  TimeModel tm(5, {}, config, 8);
  for (int r = 0; r < 5; ++r) tm.finish_round(0.0);
  // Rounds 1 and 2 have 2 nodes down each.
  EXPECT_EQ(tm.crashed_node_rounds(), 4u);
}

TEST(TimeModelCrash, AllNodesCrashingIsRejected) {
  TimeModelConfig config;
  config.crash_nodes = 4;
  EXPECT_THROW(TimeModel(4, {}, config, 1), std::invalid_argument);
  EXPECT_THROW(TimeModel(3, {}, config, 1), std::invalid_argument);
  EXPECT_NO_THROW(TimeModel(5, {}, config, 1));
}

TEST(TimeModelCrash, MessagesOnCrashedEndpointsDrop) {
  TimeModelConfig config;
  config.crash_nodes = 1;
  config.crash_at = 0;
  const TimeModel tm(3, {}, config, 2);
  std::uint32_t victim = 3;
  for (std::uint32_t i = 0; i < 3; ++i) {
    if (tm.node_crashes(i)) victim = i;
  }
  ASSERT_LT(victim, 3u);
  const std::uint32_t other = victim == 0 ? 1 : 0;
  EXPECT_EQ(tm.drop_cause(other, victim, 0), DropCause::kCrash);
  EXPECT_EQ(tm.drop_cause(victim, other, 0), DropCause::kCrash);
  const std::uint32_t third = 3 - victim - other;
  EXPECT_EQ(tm.drop_cause(other, third, 0), DropCause::kNone);
}

// --- burst outages ----------------------------------------------------------

TEST(TimeModelBurst, WindowsOpenOnThePeriod) {
  TimeModelConfig config;
  config.burst_every = 5;
  config.burst_length = 2;
  const TimeModel tm(2, {}, config, 1);
  for (std::size_t r = 0; r < 5; ++r) EXPECT_FALSE(tm.burst_active(r)) << r;
  EXPECT_TRUE(tm.burst_active(5));
  EXPECT_TRUE(tm.burst_active(6));
  EXPECT_FALSE(tm.burst_active(7));
  EXPECT_FALSE(tm.burst_active(9));
  EXPECT_TRUE(tm.burst_active(10));
  EXPECT_TRUE(tm.burst_active(11));
}

TEST(TimeModelBurst, TotalOutageDropsEverythingInWindow) {
  TimeModelConfig config;
  config.burst_every = 3;
  config.burst_length = 1;
  const TimeModel tm(2, {}, config, 1);
  EXPECT_EQ(tm.drop_cause(0, 1, 2), DropCause::kNone);
  EXPECT_EQ(tm.drop_cause(0, 1, 3), DropCause::kBurst);
  EXPECT_EQ(tm.drop_cause(0, 1, 4), DropCause::kNone);
}

TEST(TimeModelBurst, PartialBurstIsDeterministicallyRandom) {
  TimeModelConfig config;
  config.burst_every = 1;
  config.burst_length = 1;
  config.burst_drop = 0.5;
  const TimeModel a(8, {}, config, 6);
  const TimeModel b(8, {}, config, 6);
  std::size_t dropped = 0, kept = 0;
  for (std::uint32_t s = 0; s < 8; ++s) {
    for (std::uint32_t r = 1; r < 40; ++r) {
      const DropCause cause = a.drop_cause(s, (s + 1) % 8, r);
      EXPECT_EQ(cause, b.drop_cause(s, (s + 1) % 8, r));
      (cause == DropCause::kBurst ? dropped : kept) += 1;
    }
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(kept, 0u);
}

// --- per-edge drop ----------------------------------------------------------

TEST(TimeModelEdgeDrop, PerEdgeProbabilitiesAreFixedPerEdge) {
  TimeModelConfig config;
  config.edge_drop = {EdgeDropDist::Kind::kUniform, 0.0, 0.9};
  const TimeModel tm(8, {}, config, 4);
  for (std::uint32_t u = 0; u < 8; ++u) {
    for (std::uint32_t v = u + 1; v < 8; ++v) {
      const double p = tm.edge_drop_probability(u, v);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 0.9);
      EXPECT_EQ(p, tm.edge_drop_probability(v, u));
    }
  }
}

TEST(TimeModelEdgeDrop, FixedProbabilityDropsDeterministically) {
  TimeModelConfig config;
  config.edge_drop = {EdgeDropDist::Kind::kFixed, 0.5, 0.0};
  const TimeModel a(4, {}, config, 13);
  const TimeModel b(4, {}, config, 13);
  std::size_t dropped = 0, kept = 0;
  for (std::uint32_t r = 0; r < 100; ++r) {
    const DropCause cause = a.drop_cause(0, 1, r);
    EXPECT_EQ(cause, b.drop_cause(0, 1, r));
    (cause == DropCause::kEdge ? dropped : kept) += 1;
  }
  EXPECT_GT(dropped, 20u);
  EXPECT_GT(kept, 20u);
}

TEST(TimeModelEdgeDrop, LegacyIidHashIsPreserved) {
  // The i.i.d. drop decision must reproduce the original Network hash so
  // seeded lossy-link runs keep their exact drop patterns.
  TimeModel tm(4, {}, {}, 0);
  tm.set_iid_drop(0.3, 99);
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t r = 0; r < 50; ++r) {
      const std::uint32_t to = (s + 1) % 4;
      const std::uint64_t h =
          core::mix64(99 ^ core::mix64(s) ^ core::mix64(std::uint64_t{to} << 20) ^
                      core::mix64(std::uint64_t{r} << 40));
      const bool expect_drop =
          static_cast<double>(h) / 18446744073709551616.0 < 0.3;
      EXPECT_EQ(tm.drop_cause(s, to, r) == DropCause::kIid, expect_drop);
    }
  }
}

TEST(TimeModelNetwork, DropCausesAreCounted) {
  TimeModelConfig config;
  config.burst_every = 2;
  config.burst_length = 1;
  net::Network network(2, TimeModel(2, {}, config, 1));
  auto send = [&](std::uint32_t round) {
    net::Message msg;
    msg.sender = 0;
    msg.round = round;
    msg.body = net::SharedBytes::zeros(16);
    network.send(1, msg);
  };
  send(1);  // delivered
  send(2);  // burst window
  send(3);  // delivered
  send(4);  // burst window
  EXPECT_EQ(network.messages_dropped(), 2u);
  EXPECT_EQ(network.time_model().dropped_burst(), 2u);
  EXPECT_EQ(network.time_model().dropped_iid(), 0u);
  EXPECT_EQ(network.drain(1).size(), 2u);
  // Dropped messages still count as sent bytes — the sender paid.
  EXPECT_EQ(network.traffic().total().messages_sent, 4u);
}

// --- scenario keys ----------------------------------------------------------

std::vector<config::ScenarioRun> expand(const std::string& text) {
  return config::expand_grid(config::parse_scenario_text(text));
}

std::string expand_error(const std::string& text) {
  try {
    expand(text);
  } catch (const config::ScenarioError& e) {
    return e.what();
  }
  return {};
}

void expect_error_contains(const std::string& text, const std::string& what) {
  const std::string message = expand_error(text);
  EXPECT_NE(message.find(what), std::string::npos)
      << "spec:\n" << text << "\ndiagnostic: " << message;
}

TEST(TimeModelScenarioKeys, ValuesMapIntoTheConfigWithUnitConversion) {
  const auto runs = expand(
      "bandwidth_dist = uniform:10:100\n"
      "latency_dist = lognormal:20:0.5\n"
      "straggler_fraction = 0.25\n"
      "straggler_slowdown = 4\n"
      "edge_drop = uniform:0.1:0.3\n"
      "crash_nodes = 2\n"
      "crash_at = 8\n"
      "rejoin_at = 24\n"
      "burst_every = 10\n"
      "burst_length = 2\n"
      "burst_drop = 0.9\n");
  ASSERT_EQ(runs.size(), 1u);
  const TimeModelConfig& time = runs.front().config.time;
  EXPECT_EQ(time.bandwidth_dist.kind, LinkDist::Kind::kUniform);
  EXPECT_DOUBLE_EQ(time.bandwidth_dist.a, 10e6 / 8.0);  // Mbit -> bytes/sec
  EXPECT_DOUBLE_EQ(time.bandwidth_dist.b, 100e6 / 8.0);
  EXPECT_EQ(time.latency_dist.kind, LinkDist::Kind::kLognormal);
  EXPECT_DOUBLE_EQ(time.latency_dist.a, 0.020);  // ms -> sec (median only)
  EXPECT_DOUBLE_EQ(time.latency_dist.b, 0.5);    // sigma is unitless
  EXPECT_DOUBLE_EQ(time.straggler_fraction, 0.25);
  EXPECT_DOUBLE_EQ(time.straggler_slowdown, 4.0);
  EXPECT_EQ(time.edge_drop.kind, EdgeDropDist::Kind::kUniform);
  EXPECT_DOUBLE_EQ(time.edge_drop.a, 0.1);
  EXPECT_DOUBLE_EQ(time.edge_drop.b, 0.3);
  EXPECT_EQ(time.crash_nodes, 2u);
  EXPECT_EQ(time.crash_at, 8u);
  EXPECT_EQ(time.rejoin_at, 24u);
  EXPECT_EQ(time.burst_every, 10u);
  EXPECT_EQ(time.burst_length, 2u);
  EXPECT_DOUBLE_EQ(time.burst_drop, 0.9);
  EXPECT_TRUE(time.extended());
}

TEST(TimeModelScenarioKeys, DefaultsAreTheFlatModel) {
  const auto runs = expand("");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs.front().config.time.extended());
}

TEST(TimeModelScenarioKeys, DistributionDiagnostics) {
  expect_error_contains("bandwidth_dist = pareto:1:2\n",
                        "bandwidth_dist: unknown distribution");
  expect_error_contains("bandwidth_dist = uniform:10\n",
                        "bandwidth_dist: needs two fields");
  expect_error_contains("bandwidth_dist = uniform:100:10\n",
                        "bandwidth_dist: uniform needs lo <= hi");
  expect_error_contains("bandwidth_dist = uniform:0:10\n",
                        "bandwidth_dist: uniform lo must be > 0");
  expect_error_contains("bandwidth_dist = lognormal:0:1\n",
                        "bandwidth_dist: lognormal median must be > 0");
  expect_error_contains("bandwidth_dist = uniform:abc:10\n",
                        "bandwidth_dist: lo must be a non-negative number");
  expect_error_contains("latency_dist = uniform:-1:10\n",
                        "latency_dist: lo must be a non-negative number");
  // Latency may reach zero.
  EXPECT_EQ(expand_error("latency_dist = uniform:0:10\n"), "");
}

TEST(TimeModelScenarioKeys, FaultDiagnostics) {
  expect_error_contains("edge_drop = on\n", "edge_drop: unknown drop spec");
  expect_error_contains("edge_drop = fixed:1\n",
                        "edge_drop: fixed:<p> p must be a probability");
  expect_error_contains("edge_drop = uniform:0.5:0.1\n",
                        "edge_drop: uniform needs lo <= hi");
  expect_error_contains("straggler_fraction = 1\n",
                        "straggler_fraction: must be in [0, 1)");
  expect_error_contains("straggler_slowdown = 0.5\n",
                        "straggler_slowdown: must be >= 1");
  expect_error_contains("burst_drop = 0\n", "burst_drop: must be in (0, 1]");
  expect_error_contains("burst_length = 0\n", "burst_length: must be >= 1");
  expect_error_contains("nodes = 4\ncrash_nodes = 4\ntopology = full\n",
                        "crash_nodes: must leave at least one node alive");
  expect_error_contains("crash_nodes = 1\ncrash_at = 10\nrejoin_at = 5\n",
                        "rejoin_at: must be 0 (never) or > crash_at");
  expect_error_contains("burst_every = 2\nburst_length = 5\n",
                        "burst_length: must be <= burst_every");
}

TEST(TimeModelScenarioKeys, CheckedInScenariosExpandWithExtendedModels) {
  for (const char* name : {"straggler_hetero", "flaky_links"}) {
    const auto runs = config::expand_grid(config::load_scenario_file(
        std::string(JWINS_SOURCE_DIR) + "/scenarios/" + name + ".scenario"));
    ASSERT_GE(runs.size(), 1u) << name;
    for (const config::ScenarioRun& run : runs) {
      EXPECT_TRUE(run.config.time.extended()) << name;
    }
  }
}

// --- experiment integration -------------------------------------------------

sim::ExperimentResult run_experiment(const TimeModelConfig& time,
                                     unsigned threads,
                                     std::size_t rounds = 6) {
  const std::size_t n = 8;
  const sim::Workload w = sim::make_femnist_like(n, 23);
  sim::ExperimentConfig cfg;
  cfg.rounds = rounds;
  cfg.local_steps = 1;
  cfg.sgd.learning_rate = 0.05f;
  cfg.eval_every = 2;
  cfg.eval_sample_limit = 64;
  cfg.threads = threads;
  cfg.seed = 23;
  cfg.time = time;
  std::mt19937 rng(23);
  sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                      std::make_unique<graph::StaticTopology>(
                          graph::random_regular(n, 4, rng)));
  const sim::ExperimentResult result = exp.run();
  EXPECT_EQ(testutil::check_report(result, cfg, n), "");
  return result;
}

TimeModelConfig hetero_fault_config() {
  TimeModelConfig time;
  time.bandwidth_dist = uniform_dist(1e5, 1e7);
  time.latency_dist = lognormal_dist(0.01, 0.5);
  time.straggler_fraction = 0.25;
  time.straggler_slowdown = 4.0;
  time.edge_drop = {EdgeDropDist::Kind::kUniform, 0.0, 0.3};
  time.crash_nodes = 2;
  time.crash_at = 2;
  time.rejoin_at = 4;
  time.burst_every = 3;
  time.burst_length = 1;
  time.burst_drop = 0.9;
  return time;
}

TEST(TimeModelExperiment, ExtendedRunPopulatesTheBreakdown) {
  const sim::ExperimentResult result =
      run_experiment(hetero_fault_config(), /*threads=*/2);
  EXPECT_GT(result.sim_time.comm_seconds, 0.0);
  EXPECT_GT(result.sim_time.compute_seconds, 0.0);
  EXPECT_NEAR(result.sim_time.compute_seconds + result.sim_time.comm_seconds,
              result.sim_seconds, 1e-12);
  // run_experiment checked the per-cause drop ledger.
  EXPECT_GT(result.sim_time.dropped_total, 0u);
  EXPECT_GT(result.sim_time.dropped_crash, 0u);
  // 2 nodes down for rounds [2, 4).
  EXPECT_EQ(result.sim_time.crashed_node_rounds, 4u);
  // The per-point series carries the cumulative split.
  ASSERT_FALSE(result.series.empty());
  const sim::MetricPoint& last = result.series.back();
  EXPECT_NEAR(last.sim_compute_seconds + last.sim_comm_seconds,
              last.sim_seconds, 1e-12);
}

TEST(TimeModelExperiment, StragglersSlowTheSimulatedClock) {
  TimeModelConfig stragglers;
  stragglers.straggler_fraction = 0.25;
  stragglers.straggler_slowdown = 8.0;
  const sim::ExperimentResult slow = run_experiment(stragglers, 1);
  const sim::ExperimentResult fast = run_experiment({}, 1);
  ASSERT_GT(slow.sim_time.stragglers, 0u);
  EXPECT_GT(slow.sim_seconds, fast.sim_seconds);
  // Accuracy metrics are untouched: the time model changes the clock, not
  // the learning dynamics.
  EXPECT_EQ(slow.final_accuracy, fast.final_accuracy);
  EXPECT_EQ(slow.final_loss, fast.final_loss);
}

TEST(TimeModelExperiment, DefaultRunJsonHasNoSimTimeBlock) {
  // The flat model's sim_time block is all zero counters: no stragglers,
  // crashes or drops of any cause.
  const sim::ExperimentResult result = run_experiment({}, 2);
  const std::string json = testutil::deterministic_json(result, "default");
  EXPECT_NE(json.find("\"stragglers\": 0,\n    \"crashed_node_rounds\": "
                      "0,\n    \"messages_dropped\": {\"total\": 0, "
                      "\"iid\": 0, \"edge\": 0, \"burst\": 0, "
                      "\"crash\": 0}"),
            std::string::npos);
}

TEST(TimeModelExperiment, ExtendedJsonIsByteIdenticalAcrossThreadCounts) {
  // The determinism guard on heterogeneous/faulty runs: threads=1 and
  // threads=4 must emit identical JSON bytes, sim_time block included.
  const sim::ExperimentResult sequential =
      run_experiment(hetero_fault_config(), 1);
  const sim::ExperimentResult threaded =
      run_experiment(hetero_fault_config(), 4);
  const std::string a = testutil::deterministic_json(sequential, "hetero");
  EXPECT_EQ(a, testutil::deterministic_json(threaded, "hetero"));
  EXPECT_NE(a.find("\"sim_time\""), std::string::npos);
  EXPECT_NE(a.find("\"messages_dropped\""), std::string::npos);
}

TEST(TimeModelExperiment, TrainLossAveragesOnlyNodesThatTrained) {
  // Nodes crashed from round 0 never train; their zero-initialized loss
  // slots must not deflate the reported mean train loss.
  TimeModelConfig crash_from_start;
  crash_from_start.crash_nodes = 3;
  crash_from_start.crash_at = 0;
  const sim::ExperimentResult crashed = run_experiment(crash_from_start, 1);
  const sim::ExperimentResult healthy = run_experiment({}, 1);
  ASSERT_FALSE(crashed.series.empty());
  ASSERT_FALSE(healthy.series.empty());
  // 3 of 8 nodes silently contributing 0.0f would cut the mean by ~37%;
  // averaging over the 5 alive nodes keeps it in the healthy run's range.
  EXPECT_GT(crashed.series.front().train_loss,
            healthy.series.front().train_loss * 0.7);
}

TEST(TimeModelExperiment, ScenarioPresetRunsThroughTheRunner) {
  config::RawScenario raw = config::load_scenario_file(
      std::string(JWINS_SOURCE_DIR) + "/scenarios/flaky_links.scenario");
  config::set_value(raw, "rounds", "4");
  config::set_value(raw, "eval_every", "2");
  config::set_value(raw, "eval_sample_limit", "16");
  config::set_value(raw, "crash_at", "1");
  config::set_value(raw, "rejoin_at", "3");
  config::set_value(raw, "algorithm", "jwins");
  config::set_value(raw, "threads", "2");
  const auto runs = config::expand_grid(raw);
  ASSERT_EQ(runs.size(), 1u);
  const sim::ExperimentResult result = config::execute(runs.front());
  EXPECT_GT(result.sim_time.dropped_total, 0u);
  EXPECT_EQ(result.sim_time.crashed_node_rounds, 4u);  // 2 nodes x rounds [1,3)
}

TEST(TimeModelExperiment, EdgeAttributesEnumerableOverTheTopology) {
  // graph::Graph::edges() + the TimeModel attribute getters: every edge of
  // a topology has well-defined, symmetric draws.
  std::mt19937 rng(3);
  const graph::Graph g = graph::random_regular(8, 4, rng);
  TimeModelConfig config;
  config.bandwidth_dist = uniform_dist(1e5, 1e7);
  const TimeModel tm(8, {}, config, 3);
  const auto edges = g.edges();
  EXPECT_EQ(edges.size(), g.edge_count());
  for (const auto& [u, v] : edges) {
    EXPECT_LT(u, v);
    const double bw = tm.edge_bandwidth(static_cast<std::uint32_t>(u),
                                        static_cast<std::uint32_t>(v));
    EXPECT_GE(bw, 1e5);
    EXPECT_LE(bw, 1e7);
  }
}

TEST(TimeModelExperiment, DescribeSummarizesTheConfiguration) {
  EXPECT_EQ(TimeModel(4, {}, {}, 1).describe(), "flat link model");
  const TimeModel tm(8, {}, hetero_fault_config(), 23);
  const std::string text = tm.describe();
  EXPECT_NE(text.find("bandwidth"), std::string::npos);
  EXPECT_NE(text.find("crash"), std::string::npos);
  EXPECT_NE(text.find("burst"), std::string::npos);
}

}  // namespace
}  // namespace jwins
