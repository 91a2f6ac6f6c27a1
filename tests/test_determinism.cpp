// Determinism regression suite: the engine's core reproducibility contract
// is that `threads = N` is bit-identical to `threads = 1` for every
// algorithm (counter-based per-(seed, node, round) RNG streams, static
// thread-pool chunking, canonical mailbox drain order, ordered metric
// reduction — see docs/DESIGN.md "Determinism & threading model"). Each
// algorithm runs the same seeded config sequentially, threaded, and
// threaded again, and every metric the engine reports must match exactly.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "graph/graph.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/workloads.hpp"
#include "test_util.hpp"

namespace jwins {
namespace {

struct Scenario {
  const char* name;
  sim::Algorithm algorithm;
  bool choco_qsgd = false;
  double drop_probability = 0.0;
};

sim::ExperimentResult run_scenario(const Scenario& s, unsigned threads,
                                   sim::EngineKind engine =
                                       sim::EngineKind::kSync) {
  const std::size_t n = 8;
  const sim::Workload w = sim::make_femnist_like(n, 23);
  sim::ExperimentConfig cfg;
  cfg.algorithm = s.algorithm;
  cfg.rounds = 6;
  cfg.local_steps = 2;
  cfg.sgd.learning_rate = 0.05f;
  cfg.eval_every = 2;
  cfg.eval_sample_limit = 64;
  cfg.threads = threads;
  cfg.seed = 23;
  cfg.engine = engine;
  if (s.drop_probability > 0.0) {
    cfg.time.edge_drop = {net::EdgeDropDist::Kind::kFixed, s.drop_probability,
                          0.0};
  }
  if (s.choco_qsgd) {
    cfg.choco.compressor = algo::ChocoNode::Compressor::kQsgd;
  }
  std::mt19937 topo_rng(23);
  sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                      std::make_unique<graph::StaticTopology>(
                          graph::random_regular(n, 4, topo_rng)));
  sim::ExperimentResult result = exp.run();
  EXPECT_EQ(testutil::check_report(result, cfg, n), "");
  return result;
}

void expect_bit_identical(const sim::ExperimentResult& a,
                          const sim::ExperimentResult& b, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.rounds_run, b.rounds_run);
  EXPECT_EQ(a.reached_target, b.reached_target);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    SCOPED_TRACE(i);
    const sim::MetricPoint& x = a.series[i];
    const sim::MetricPoint& y = b.series[i];
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.sim_seconds, y.sim_seconds);
    EXPECT_EQ(x.test_accuracy, y.test_accuracy);
    EXPECT_EQ(x.test_loss, y.test_loss);
    EXPECT_EQ(x.train_loss, y.train_loss);
    EXPECT_EQ(x.avg_bytes_per_node, y.avg_bytes_per_node);
    EXPECT_EQ(x.avg_metadata_bytes_per_node, y.avg_metadata_bytes_per_node);
  }
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.total_traffic.messages_sent, b.total_traffic.messages_sent);
  EXPECT_EQ(a.total_traffic.bytes_sent, b.total_traffic.bytes_sent);
  EXPECT_EQ(a.total_traffic.payload_bytes_sent, b.total_traffic.payload_bytes_sent);
  EXPECT_EQ(a.total_traffic.metadata_bytes_sent, b.total_traffic.metadata_bytes_sent);
  EXPECT_EQ(a.mean_alpha, b.mean_alpha);
}

class DeterminismAcrossThreads : public ::testing::TestWithParam<Scenario> {};

TEST_P(DeterminismAcrossThreads, ThreadedMatchesSequentialBitForBit) {
  const Scenario& s = GetParam();
  const auto sequential = run_scenario(s, 1);
  const auto threaded = run_scenario(s, 4);
  const auto threaded_again = run_scenario(s, 4);
  expect_bit_identical(sequential, threaded, "threads=1 vs threads=4");
  expect_bit_identical(threaded, threaded_again, "threads=4 vs threads=4");
}

TEST_P(DeterminismAcrossThreads, AsyncBarrierMatchesSyncByteForByte) {
  // The asynchronous engine's golden reduction (sim/event_engine.hpp):
  // under staleness_bound = 0 every metric — and the emitted result JSON
  // outside the engine's own "event_engine" counters, byte for byte — must
  // equal the synchronous reference.
  const Scenario& s = GetParam();
  const auto sync = run_scenario(s, 1, sim::EngineKind::kSync);
  const auto async = run_scenario(s, 1, sim::EngineKind::kAsync);
  expect_bit_identical(sync, async, "sync vs async barrier");
  EXPECT_EQ(testutil::strip_json_block(
                testutil::deterministic_json(sync, "determinism/reduction"),
                "event_engine"),
            testutil::strip_json_block(
                testutil::deterministic_json(async, "determinism/reduction"),
                "event_engine"));
}

TEST_P(DeterminismAcrossThreads, AsyncThreadedMatchesSequential) {
  // The event loop itself is single-threaded; evaluation still uses the
  // pool. threads=N must stay bit-identical to threads=1 under kAsync.
  const Scenario& s = GetParam();
  const auto sequential = run_scenario(s, 1, sim::EngineKind::kAsync);
  const auto threaded = run_scenario(s, 4, sim::EngineKind::kAsync);
  expect_bit_identical(sequential, threaded, "async threads=1 vs threads=4");
  EXPECT_EQ(testutil::deterministic_json(sequential, "determinism/async"),
            testutil::deterministic_json(threaded, "determinism/async"));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, DeterminismAcrossThreads,
    ::testing::Values(
        Scenario{"full_sharing", sim::Algorithm::kFullSharing},
        Scenario{"random_sampling", sim::Algorithm::kRandomSampling},
        Scenario{"jwins", sim::Algorithm::kJwins},
        Scenario{"choco_topk", sim::Algorithm::kChoco},
        Scenario{"choco_qsgd", sim::Algorithm::kChoco, /*choco_qsgd=*/true},
        Scenario{"power_gossip", sim::Algorithm::kPowerGossip},
        Scenario{"jwins_lossy_links", sim::Algorithm::kJwins,
                 /*choco_qsgd=*/false, /*drop_probability=*/0.15}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

// --- byzantine runs -------------------------------------------------------
//
// The determinism contract must survive the adversarial layer: corruption
// draws come from the same counter-based per-(seed, node, round) streams,
// and the robust aggregators are pure order statistics, so byzantine runs
// replay bit-identically across thread counts and on both engines.

struct ByzantineCase {
  const char* name;
  sim::Algorithm algorithm;
  algo::ByzantineMode mode;
  double scale;
  core::RobustAggKind defense;
};

sim::ExperimentResult run_byzantine(const ByzantineCase& s, unsigned threads,
                                    sim::EngineKind engine) {
  const std::size_t n = 8;
  const sim::Workload w = sim::make_femnist_like(n, 23);
  sim::ExperimentConfig cfg;
  cfg.algorithm = s.algorithm;
  cfg.rounds = 6;
  cfg.local_steps = 2;
  cfg.sgd.learning_rate = 0.05f;
  cfg.eval_every = 2;
  cfg.eval_sample_limit = 64;
  cfg.threads = threads;
  cfg.seed = 23;
  cfg.engine = engine;
  cfg.byzantine_nodes = 2;
  cfg.byzantine_mode = s.mode;
  cfg.byzantine_scale = s.scale;
  cfg.robust_agg.kind = s.defense;
  cfg.robust_agg.trim_fraction = 0.25;
  cfg.robust_agg.clip_norm = 0.5;
  std::mt19937 topo_rng(23);
  sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                      std::make_unique<graph::StaticTopology>(
                          graph::random_regular(n, 4, topo_rng)));
  sim::ExperimentResult result = exp.run();
  EXPECT_EQ(testutil::check_report(result, cfg, n), "");
  return result;
}

class ByzantineDeterminism
    : public ::testing::TestWithParam<ByzantineCase> {};

TEST_P(ByzantineDeterminism, ThreadedAndReplayMatchBitForBit) {
  const ByzantineCase& s = GetParam();
  const auto sequential = run_byzantine(s, 1, sim::EngineKind::kSync);
  const auto threaded = run_byzantine(s, 4, sim::EngineKind::kSync);
  const auto replay = run_byzantine(s, 4, sim::EngineKind::kSync);
  expect_bit_identical(sequential, threaded, "threads=1 vs threads=4");
  expect_bit_identical(threaded, replay, "threads=4 replay");
  EXPECT_EQ(sequential.byzantine.corrupted_messages,
            threaded.byzantine.corrupted_messages);
  EXPECT_EQ(sequential.byzantine.trimmed_entries,
            threaded.byzantine.trimmed_entries);
  EXPECT_EQ(sequential.byzantine.clipped_contributions,
            threaded.byzantine.clipped_contributions);
  EXPECT_EQ(testutil::deterministic_json(sequential, "determinism/byzantine"),
            testutil::deterministic_json(threaded, "determinism/byzantine"));
}

TEST_P(ByzantineDeterminism, EventEngineReplaysBitIdentically) {
  // Corruption happens inside share(), so the event engine sees exactly the
  // same wire bytes: barrier-mode async must reduce to the sync reference
  // under attack too, and replay bit-identically across thread counts.
  const ByzantineCase& s = GetParam();
  const auto sync = run_byzantine(s, 1, sim::EngineKind::kSync);
  const auto async_seq = run_byzantine(s, 1, sim::EngineKind::kAsync);
  const auto async_threaded = run_byzantine(s, 4, sim::EngineKind::kAsync);
  expect_bit_identical(sync, async_seq, "sync vs async barrier");
  expect_bit_identical(async_seq, async_threaded,
                       "async threads=1 vs threads=4");
  EXPECT_EQ(
      testutil::deterministic_json(async_seq, "determinism/byzantine"),
      testutil::deterministic_json(async_threaded, "determinism/byzantine"));
}

INSTANTIATE_TEST_SUITE_P(
    AttackAndDefenseMix, ByzantineDeterminism,
    ::testing::Values(
        ByzantineCase{"jwins_sign_flip_undefended", sim::Algorithm::kJwins,
                      algo::ByzantineMode::kSignFlip, 1.0,
                      core::RobustAggKind::kNone},
        ByzantineCase{"jwins_sign_flip_trimmed", sim::Algorithm::kJwins,
                      algo::ByzantineMode::kSignFlip, 1.0,
                      core::RobustAggKind::kTrimmedMean},
        ByzantineCase{"full_sharing_random_median",
                      sim::Algorithm::kFullSharing,
                      algo::ByzantineMode::kRandom, 1.0,
                      core::RobustAggKind::kMedian},
        ByzantineCase{"choco_scale_norm_clip", sim::Algorithm::kChoco,
                      algo::ByzantineMode::kScale, -10.0,
                      core::RobustAggKind::kNormClip},
        ByzantineCase{"power_gossip_sign_flip_norm_clip",
                      sim::Algorithm::kPowerGossip,
                      algo::ByzantineMode::kSignFlip, 1.0,
                      core::RobustAggKind::kNormClip}),
    [](const ::testing::TestParamInfo<ByzantineCase>& info) {
      return info.param.name;
    });

TEST(DeterminismAcrossSeeds, SeedChangesTheTrajectory) {
  // The per-node streams must actually depend on the experiment seed (the
  // old seed-offset engines ignored it for the cut-off draws, and
  // PowerGossip's shared-randomness base seed was a fixed constant).
  const std::size_t n = 8;
  const sim::Workload w = sim::make_femnist_like(n, 23);
  auto run_with_seed = [&](sim::Algorithm algorithm, std::uint64_t seed) {
    sim::ExperimentConfig cfg;
    cfg.algorithm = algorithm;
    cfg.rounds = 4;
    cfg.eval_every = 4;
    cfg.eval_sample_limit = 32;
    cfg.seed = seed;
    std::mt19937 topo_rng(23);
    sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                        std::make_unique<graph::StaticTopology>(
                            graph::random_regular(n, 4, topo_rng)));
    return exp.run();
  };
  const auto a = run_with_seed(sim::Algorithm::kJwins, 1);
  const auto b = run_with_seed(sim::Algorithm::kJwins, 2);
  EXPECT_NE(a.mean_alpha, b.mean_alpha);
  const auto pg_a = run_with_seed(sim::Algorithm::kPowerGossip, 1);
  const auto pg_b = run_with_seed(sim::Algorithm::kPowerGossip, 2);
  EXPECT_NE(pg_a.final_loss, pg_b.final_loss);
}

// --- JSON report emitter --------------------------------------------------

TEST(JsonReport, SchemaShapeCoversSeriesTrafficAndWall) {
  const auto result = run_scenario({"jwins", sim::Algorithm::kJwins}, 1);
  std::ostringstream os;
  sim::write_result_json(os, "determinism/jwins", result);
  const std::string json = os.str();

  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.substr(json.size() - 2), "}\n");
  for (const char* key :
       {"\"label\"", "\"rounds_run\"", "\"sim_seconds\"", "\"final_accuracy\"",
        "\"final_loss\"", "\"reached_target\"", "\"mean_alpha\"",
        "\"traffic\"", "\"messages_sent\"", "\"bytes_sent\"",
        "\"payload_bytes_sent\"", "\"metadata_bytes_sent\"",
        "\"wall_seconds\"", "\"train\"", "\"share\"", "\"aggregate\"",
        "\"evaluate\"", "\"total\"", "\"series\"", "\"round\"",
        "\"test_accuracy\"", "\"test_loss\"", "\"train_loss\"",
        "\"avg_bytes_per_node\"", "\"avg_metadata_bytes_per_node\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // One series object per metric point.
  std::size_t rounds_seen = 0;
  for (std::size_t pos = json.find("\"round\":"); pos != std::string::npos;
       pos = json.find("\"round\":", pos + 1)) {
    ++rounds_seen;
  }
  EXPECT_EQ(rounds_seen, result.series.size());
  // Host wall timings are the one nondeterministic block, and the JSON the
  // comparisons use strips all of it.
  EXPECT_EQ(testutil::deterministic_json(result, "determinism/jwins")
                .find("wall_seconds"),
            std::string::npos);
}

TEST(JsonReport, BitIdenticalAcrossThreadCounts) {
  // The CLI's JSON output is part of the determinism contract: modulo the
  // wall_seconds block, threads=1 and threads=N must emit identical bytes.
  const Scenario s{"jwins", sim::Algorithm::kJwins};
  const auto sequential = run_scenario(s, 1);
  const auto threaded = run_scenario(s, 4);
  EXPECT_EQ(testutil::deterministic_json(sequential, "determinism/jwins"),
            testutil::deterministic_json(threaded, "determinism/jwins"));
}

TEST(Determinism, WallTimingsArePopulated) {
  const auto result =
      run_scenario({"jwins", sim::Algorithm::kJwins}, /*threads=*/2);
  EXPECT_GT(result.wall.train_seconds, 0.0);
  EXPECT_GT(result.wall.share_seconds, 0.0);
  EXPECT_GT(result.wall.aggregate_seconds, 0.0);
  EXPECT_GT(result.wall.evaluate_seconds, 0.0);
  EXPECT_GE(result.wall.total_seconds,
            result.wall.train_seconds + result.wall.share_seconds +
                result.wall.aggregate_seconds + result.wall.evaluate_seconds);
}

}  // namespace
}  // namespace jwins
