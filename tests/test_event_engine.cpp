// Discrete-event asynchronous engine (sim/event_engine.hpp): queue
// invariants on hand-computed schedules, uplink-serialization math against
// the TimeModel's own numbers, B = 0 on loss-free links ending on the
// synchronous reference's final models under every heterogeneity and crash
// family and every algorithm, genuine
// bounded-staleness behavior (histogram, stale drops, budget divergence,
// message conservation), and the sub-round crash semantics both engines pin.
#include "sim/event_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>

#include "graph/graph.hpp"
#include "net/time_model.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/workloads.hpp"
#include "test_util.hpp"

namespace jwins::sim {
namespace {

using jwins::testutil::DummyDataset;
using jwins::testutil::QuadraticModel;
using tensor::Tensor;

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(3.0, 0, EventKind::kTrainDone, 0);
  q.push(1.0, 1, EventKind::kTrainDone, 0);
  q.push(2.0, 2, EventKind::kTrainDone, 0);
  EXPECT_EQ(q.pop().node, 1u);
  EXPECT_EQ(q.pop().node, 2u);
  EXPECT_EQ(q.pop().node, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TieBreaksByNodeRank) {
  EventQueue q;
  q.push(1.0, 3, EventKind::kTrainDone, 0);
  q.push(1.0, 1, EventKind::kTrainDone, 0);
  q.push(1.0, 2, EventKind::kTrainDone, 0);
  EXPECT_EQ(q.pop().node, 1u);
  EXPECT_EQ(q.pop().node, 2u);
  EXPECT_EQ(q.pop().node, 3u);
}

TEST(EventQueue, TieBreaksBySeqWithinNode) {
  EventQueue q;
  const auto s0 = q.push(1.0, 0, EventKind::kLocalStep, 0);
  const auto s1 = q.push(1.0, 0, EventKind::kTrainDone, 1);
  ASSERT_LT(s0, s1);
  EXPECT_EQ(q.pop().kind, EventKind::kLocalStep);  // earlier seq first
  EXPECT_EQ(q.pop().kind, EventKind::kTrainDone);
}

TEST(EventQueue, SeqUniqueAndMonotone) {
  EventQueue q;
  std::uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const auto s = q.push(static_cast<double>(i), 0, EventKind::kTrainDone, 0);
    if (i > 0) {
      EXPECT_GT(s, prev);
    }
    prev = s;
  }
  EXPECT_EQ(q.size(), 100u);
}

TEST(EventQueue, MaxDepthIsHighWaterMark) {
  EventQueue q;
  q.push(1.0, 0, EventKind::kTrainDone, 0);
  q.push(2.0, 0, EventKind::kTrainDone, 0);
  q.push(3.0, 0, EventKind::kTrainDone, 0);
  (void)q.pop();
  (void)q.pop();
  q.push(4.0, 0, EventKind::kTrainDone, 0);
  EXPECT_EQ(q.max_depth(), 3u);
  EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, PopEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  q.push(1.0, 0, EventKind::kTrainDone, 0);
  (void)q.pop();
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, PushInThePastThrows) {
  EventQueue q;
  q.push(5.0, 0, EventKind::kTrainDone, 0);
  (void)q.pop();
  EXPECT_THROW(q.push(4.9, 0, EventKind::kTrainDone, 0), std::logic_error);
  // Exactly the last pop time is legal (simultaneous follow-up events).
  EXPECT_NO_THROW(q.push(5.0, 0, EventKind::kTrainDone, 0));
}

TEST(EventQueue, PushNanThrows) {
  EventQueue q;
  EXPECT_THROW(
      q.push(std::numeric_limits<double>::quiet_NaN(), 0,
             EventKind::kTrainDone, 0),
      std::logic_error);
}

TEST(EventQueue, PopTimesNeverDecreaseUnderRandomLoad) {
  EventQueue q;
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> dist(0.0, 100.0);
  for (int i = 0; i < 200; ++i) {
    q.push(dist(rng), static_cast<std::uint32_t>(rng() % 8),
           EventKind::kTrainDone, 0);
  }
  double prev = -1.0;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
  EXPECT_EQ(q.last_pop_time(), prev);
}

TEST(EventQueue, LastPopTimeStartsAtMinusInfinity) {
  EventQueue q;
  EXPECT_EQ(q.last_pop_time(), -std::numeric_limits<double>::infinity());
  q.push(0.0, 0, EventKind::kTrainDone, 0);
  (void)q.pop();
  EXPECT_EQ(q.last_pop_time(), 0.0);
}

TEST(EventQueue, CarriesRoundAndMessagePayload) {
  EventQueue q;
  net::Message msg;
  msg.sender = 3;
  msg.round = 7;
  q.push(1.0, 2, EventKind::kMessageArrival, 7, std::move(msg));
  const Event e = q.pop();
  EXPECT_EQ(e.kind, EventKind::kMessageArrival);
  EXPECT_EQ(e.round, 7u);
  EXPECT_EQ(e.message.sender, 3u);
  EXPECT_EQ(e.message.round, 7u);
}

TEST(EventQueue, InterleavedPushesStaySorted) {
  EventQueue q;
  q.push(1.0, 0, EventKind::kTrainDone, 0);
  q.push(3.0, 0, EventKind::kTrainDone, 0);
  EXPECT_EQ(q.pop().time, 1.0);
  q.push(2.0, 1, EventKind::kTrainDone, 0);  // between the two, legal
  EXPECT_EQ(q.pop().time, 2.0);
  EXPECT_EQ(q.pop().time, 3.0);
}

TEST(EventKindName, AllDistinct) {
  EXPECT_STREQ(event_kind_name(EventKind::kTrainDone), "train-done");
  EXPECT_STREQ(event_kind_name(EventKind::kMessageArrival), "message-arrival");
  EXPECT_STREQ(event_kind_name(EventKind::kLocalStep), "local-step");
}

// ------------------------------------------------------- UplinkSerializer

net::TimeModel flat_model(std::size_t n) {
  return net::TimeModel(n, net::LinkModel{}, net::TimeModelConfig{}, 1);
}

TEST(UplinkSerializer, SingleMessageIsTransferPlusLatency) {
  const net::TimeModel tm = flat_model(4);
  UplinkSerializer up(4);
  const double off = up.enqueue(tm, 0, 1, 1000);
  EXPECT_DOUBLE_EQ(off, 1000.0 / tm.edge_bandwidth(0, 1) +
                            tm.edge_latency(0, 1));
}

TEST(UplinkSerializer, BackToBackMessagesSerialize) {
  const net::TimeModel tm = flat_model(4);
  UplinkSerializer up(4);
  const double t1 = 1000.0 / tm.edge_bandwidth(0, 1);
  const double t2 = 2000.0 / tm.edge_bandwidth(0, 2);
  EXPECT_DOUBLE_EQ(up.enqueue(tm, 0, 1, 1000), t1 + tm.edge_latency(0, 1));
  // The second transfer queues behind the first on node 0's uplink.
  EXPECT_DOUBLE_EQ(up.enqueue(tm, 0, 2, 2000),
                   t1 + t2 + tm.edge_latency(0, 2));
  EXPECT_DOUBLE_EQ(up.queued(0), t1 + t2);
}

TEST(UplinkSerializer, SendersAreIndependent) {
  const net::TimeModel tm = flat_model(4);
  UplinkSerializer up(4);
  (void)up.enqueue(tm, 0, 1, 8000);
  const double off = up.enqueue(tm, 1, 2, 1000);
  EXPECT_DOUBLE_EQ(off, 1000.0 / tm.edge_bandwidth(1, 2) +
                            tm.edge_latency(1, 2));
}

TEST(UplinkSerializer, ResetStartsAFreshRound) {
  const net::TimeModel tm = flat_model(4);
  UplinkSerializer up(4);
  (void)up.enqueue(tm, 0, 1, 5000);
  up.reset(0);
  EXPECT_DOUBLE_EQ(up.queued(0), 0.0);
  EXPECT_DOUBLE_EQ(up.enqueue(tm, 0, 1, 5000),
                   5000.0 / tm.edge_bandwidth(0, 1) + tm.edge_latency(0, 1));
}

TEST(UplinkSerializer, FlatModelOffsetsMatchLegacyFormula) {
  // Under the flat model every edge has the base bandwidth/latency, so the
  // offset of a sender's k-th message is sum(bytes)/bw + latency — the same
  // quantities the legacy comm_time(max_node_bytes) builds from.
  const net::LinkModel base;
  const net::TimeModel tm = flat_model(3);
  UplinkSerializer up(3);
  const double off1 = up.enqueue(tm, 0, 1, 1234);
  const double off2 = up.enqueue(tm, 0, 2, 1234);
  EXPECT_DOUBLE_EQ(off1, base.latency_sec +
                             1234.0 / base.bandwidth_bytes_per_sec);
  EXPECT_DOUBLE_EQ(off2, base.latency_sec +
                             2468.0 / base.bandwidth_bytes_per_sec);
}

TEST(UplinkSerializer, HeterogeneousEdgesUseTheirOwnParameters) {
  net::TimeModelConfig cfg;
  cfg.bandwidth_dist = {net::LinkDist::Kind::kUniform, 1e6, 10e6};
  cfg.latency_dist = {net::LinkDist::Kind::kUniform, 0.001, 0.050};
  const net::TimeModel tm(4, net::LinkModel{}, cfg, 9);
  UplinkSerializer up(4);
  const double t1 = 700.0 / tm.edge_bandwidth(2, 0);
  const double t2 = 900.0 / tm.edge_bandwidth(2, 3);
  EXPECT_DOUBLE_EQ(up.enqueue(tm, 2, 0, 700), t1 + tm.edge_latency(2, 0));
  EXPECT_DOUBLE_EQ(up.enqueue(tm, 2, 3, 900),
                   t1 + t2 + tm.edge_latency(2, 3));
}

// --------------------------------------------- mini-experiment scaffolding

constexpr std::size_t kDim = 16;

Tensor node_target(std::size_t rank) {
  Tensor t({kDim});
  for (std::size_t i = 0; i < kDim; ++i) {
    t[i] = std::sin(0.3f * static_cast<float>(i + 1) *
                    static_cast<float>(rank + 1)) *
           2.0f;
  }
  return t;
}

Tensor node_init(std::size_t rank) {
  std::mt19937 rng(1000 + static_cast<unsigned>(rank));
  return Tensor::normal({kDim}, 0.0f, 1.0f, rng);
}

const data::Dataset& dummy_dataset() {
  static DummyDataset dataset;
  return dataset;
}

ExperimentConfig mini_config(std::size_t rounds) {
  ExperimentConfig cfg;
  cfg.algorithm = Algorithm::kFullSharing;
  cfg.rounds = rounds;
  cfg.local_steps = 1;
  cfg.sgd.learning_rate = 0.05f;
  cfg.eval_every = rounds;
  cfg.eval_sample_limit = 4;
  cfg.seed = 3;
  return cfg;
}

std::unique_ptr<Experiment> make_mini(const ExperimentConfig& cfg,
                                      std::size_t n, std::size_t degree = 2,
                                      unsigned topo_seed = 7) {
  data::Partition partition(n, {0, 1, 2, 3});
  auto counter = std::make_shared<std::size_t>(0);
  nn::ModelFactory factory =
      [counter]() -> std::unique_ptr<nn::SupervisedModel> {
    const std::size_t r = (*counter)++;
    return std::make_unique<QuadraticModel>(node_target(r), node_init(r));
  };
  std::mt19937 rng(topo_seed);
  graph::Graph g =
      n >= 4 ? graph::random_regular(n, degree, rng) : graph::complete(n);
  return std::make_unique<Experiment>(
      cfg, factory, dummy_dataset(), partition, dummy_dataset(),
      std::make_unique<graph::StaticTopology>(g));
}

std::string json_of(const ExperimentResult& result) {
  return testutil::deterministic_json(result, "t");
}

// ------------------- lossless B = 0: the synchronous loop's final models

/// The femnist-like cell of the per-algorithm rows: 8 nodes on a seeded
/// 4-regular graph, built once and shared read-only by every row.
const Workload& femnist8() {
  static const Workload w = make_femnist_like(8, 23);
  return w;
}

std::unique_ptr<Experiment> make_femnist8(const ExperimentConfig& cfg) {
  const Workload& w = femnist8();
  std::mt19937 topo_rng(23);
  return std::make_unique<Experiment>(
      cfg, w.model_factory, *w.train, w.partition, *w.test,
      std::make_unique<graph::StaticTopology>(
          graph::random_regular(8, 4, topo_rng)));
}

/// One row of the relation: a config (its engine is set by the test) on
/// loss-free links, and the node count of the experiment it builds (the
/// mini quadratic cell, or femnist8() when `femnist` is set).
struct LosslessCase {
  const char* name;
  std::size_t nodes;
  ExperimentConfig (*config)();
  bool femnist = false;
};

void PrintTo(const LosslessCase& c, std::ostream* os) { *os << c.name; }

ExperimentConfig femnist_config(Algorithm algorithm) {
  ExperimentConfig cfg;
  cfg.algorithm = algorithm;
  cfg.rounds = 6;
  cfg.local_steps = 2;
  cfg.sgd.learning_rate = 0.05f;
  cfg.eval_every = 2;
  cfg.eval_sample_limit = 64;
  cfg.seed = 23;
  cfg.time.bandwidth_dist = {net::LinkDist::Kind::kLognormal, 12.5e6, 0.75};
  cfg.time.latency_dist = {net::LinkDist::Kind::kUniform, 0.002, 0.040};
  cfg.time.straggler_fraction = 0.3;
  cfg.time.straggler_slowdown = 4.0;
  return cfg;
}

const LosslessCase kLosslessCases[] = {
    {"flat", 4, [] { return mini_config(6); }},
    {"eval_schedule", 4,
     [] {
       ExperimentConfig cfg = mini_config(9);
       cfg.eval_every = 2;
       return cfg;
     }},
    {"heterogeneous_links", 6,
     [] {
       ExperimentConfig cfg = mini_config(6);
       cfg.time.bandwidth_dist = {net::LinkDist::Kind::kLognormal, 12.5e6,
                                  0.75};
       cfg.time.latency_dist = {net::LinkDist::Kind::kUniform, 0.002, 0.040};
       return cfg;
     }},
    {"stragglers", 6,
     [] {
       ExperimentConfig cfg = mini_config(6);
       cfg.time.straggler_fraction = 0.4;
       cfg.time.straggler_slowdown = 5.0;
       return cfg;
     }},
    {"crash_and_rejoin", 6,
     [] {
       ExperimentConfig cfg = mini_config(10);
       cfg.time.crash_nodes = 2;
       cfg.time.crash_at = 3;
       cfg.time.rejoin_at = 7;
       return cfg;
     }},
    {"permanent_crash", 4,
     [] {
       ExperimentConfig cfg = mini_config(8);
       cfg.time.crash_nodes = 1;
       cfg.time.crash_at = 2;
       cfg.time.rejoin_at = 0;  // never rejoins
       return cfg;
     }},
    // Every message of a burst round is lost, on both engines alike: the
    // gated nodes' quiescence override aggregates exactly what sync does.
    {"burst_outages", 4,
     [] {
       ExperimentConfig cfg = mini_config(9);
       cfg.time.burst_every = 3;
       cfg.time.burst_length = 1;
       cfg.time.burst_drop = 1.0;
       return cfg;
     }},
    {"links_stragglers_crash", 6,
     [] {
       ExperimentConfig cfg = mini_config(12);
       cfg.eval_every = 3;
       cfg.time.bandwidth_dist = {net::LinkDist::Kind::kUniform, 2e6, 20e6};
       cfg.time.latency_dist = {net::LinkDist::Kind::kUniform, 0.001, 0.030};
       cfg.time.straggler_fraction = 0.3;
       cfg.time.straggler_slowdown = 3.0;
       cfg.time.crash_nodes = 1;
       cfg.time.crash_at = 4;
       cfg.time.rejoin_at = 8;
       return cfg;
     }},
    {"target_stop", 4,
     [] {
       ExperimentConfig cfg = mini_config(60);
       cfg.eval_every = 1;
       cfg.target_accuracy = 0.5;  // reachable: accuracy = 1/(1+loss)
       return cfg;
     }},
    {"femnist_full_sharing", 8,
     [] { return femnist_config(Algorithm::kFullSharing); }, true},
    {"femnist_random_sampling", 8,
     [] { return femnist_config(Algorithm::kRandomSampling); }, true},
    {"femnist_jwins", 8, [] { return femnist_config(Algorithm::kJwins); },
     true},
    {"femnist_choco_topk", 8, [] { return femnist_config(Algorithm::kChoco); },
     true},
    {"femnist_choco_qsgd", 8,
     [] {
       ExperimentConfig cfg = femnist_config(Algorithm::kChoco);
       cfg.choco.compressor = algo::ChocoNode::Compressor::kQsgd;
       return cfg;
     },
     true},
    {"femnist_power_gossip", 8,
     [] { return femnist_config(Algorithm::kPowerGossip); }, true},
    // Corruption happens inside share(), so both engines carry the same
    // wire bytes, and trimmed mean sees the same contributions.
    {"femnist_jwins_attacked_trimmed", 8,
     [] {
       ExperimentConfig cfg = femnist_config(Algorithm::kJwins);
       cfg.byzantine_nodes = 2;
       cfg.byzantine_mode = algo::ByzantineMode::kSignFlip;
       cfg.robust_agg.kind = core::RobustAggKind::kTrimmedMean;
       cfg.robust_agg.trim_fraction = 0.25;
       return cfg;
     },
     true},
};

class LosslessBoundZero : public ::testing::TestWithParam<LosslessCase> {};

/// Under async_mode = barrier with staleness_bound = 0, a node aggregates
/// round r once every live neighbor's round-r message has arrived, so on
/// loss-free links it mixes exactly the contributions the synchronous round
/// does and every node ends on sync's final model bytes. The relation is
/// on models, not series: the event clock and the instants at which the
/// engine evaluates are its own. Lossy links are not rows: there the gate
/// waits for a lost message's sender's next round until quiescence
/// overrides it, which sync never does, so the models differ by design.
TEST_P(LosslessBoundZero, EndsOnSyncFinalModels) {
  const LosslessCase& c = GetParam();
  ExperimentConfig cfg = c.config();
  const auto make = [&](const ExperimentConfig& run_cfg) {
    return c.femnist ? make_femnist8(run_cfg) : make_mini(run_cfg, c.nodes);
  };
  cfg.engine = EngineKind::kSync;
  auto sync = make(cfg);
  const ExperimentResult rs = sync->run();
  EXPECT_EQ(testutil::check_report(rs, cfg, c.nodes), "");
  cfg.engine = EngineKind::kAsync;
  ASSERT_EQ(cfg.async_mode, AsyncMode::kBarrier);
  ASSERT_EQ(cfg.staleness_bound, 0u);
  auto async = make(cfg);
  const ExperimentResult ra = async->run();
  EXPECT_EQ(testutil::check_report(ra, cfg, c.nodes), "");
  EXPECT_EQ(ra.event_engine.messages_stale_dropped, 0u);
  for (std::size_t i = 0; i < c.nodes; ++i) {
    EXPECT_EQ(sync->node(i).flat_params(), async->node(i).flat_params())
        << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, LosslessBoundZero,
                         ::testing::ValuesIn(kLosslessCases),
                         [](const ::testing::TestParamInfo<LosslessCase>& info) {
                           return std::string(info.param.name);
                         });

// ------------------------------------------- barrier mode at B = 0

TEST(EventEngineBarrier, StatsAndConservation) {
  ExperimentConfig cfg = mini_config(5);
  cfg.engine = EngineKind::kAsync;
  auto exp = make_mini(cfg, 4);
  const ExperimentResult r = exp->run();
  const EventEngineStats& ee = r.event_engine;
  EXPECT_TRUE(ee.enabled);
  // 4 nodes x 5 rounds x (1 TrainDone + 1 LocalStep) + one arrival per
  // delivered message.
  EXPECT_EQ(ee.events_processed, 40u + ee.messages_delivered);
  EXPECT_GT(ee.max_queue_depth, 0u);
  EXPECT_EQ(ee.messages_stale_dropped, 0u);
  EXPECT_EQ(ee.staleness_overrides, 0u);
  // Conservation, nothing in flight, and the one-bucket histogram holding
  // every delivery: the gate applied every message.
  EXPECT_EQ(testutil::check_report(r, cfg, 4), "");
  EXPECT_EQ(ee.staleness_histogram,
            std::vector<std::uint64_t>{ee.messages_delivered});
  EXPECT_EQ(ee.local_steps_min(), 5u);
  EXPECT_EQ(ee.local_steps_max(), 5u);
}

TEST(EventEngineBarrier, ValidationRejectsStalenessUnderSync) {
  ExperimentConfig cfg = mini_config(4);
  cfg.staleness_bound = 2;  // engine still kSync
  const auto errors = cfg.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("staleness_bound"), std::string::npos);
  cfg.engine = EngineKind::kAsync;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(EventEngineBarrier, EngineNames) {
  EXPECT_STREQ(engine_name(EngineKind::kSync), "sync");
  EXPECT_STREQ(engine_name(EngineKind::kAsync), "async");
}

// ------------------------------------------- bounded-staleness asynchrony

ExperimentConfig bounded_config(std::size_t rounds, std::size_t bound) {
  ExperimentConfig cfg = mini_config(rounds);
  cfg.engine = EngineKind::kAsync;
  cfg.staleness_bound = bound;
  return cfg;
}

TEST(EventEngineBounded, CompletesAllRoundsWithoutBudget) {
  auto exp = make_mini(bounded_config(10, 2), 4);
  const ExperimentResult r = exp->run();
  EXPECT_EQ(r.rounds_run, 10u);
  const EventEngineStats& ee = r.event_engine;
  EXPECT_EQ(ee.local_steps_min(), 10u);
  EXPECT_EQ(ee.local_steps_max(), 10u);
  EXPECT_EQ(ee.messages_in_flight, 0u);
}

TEST(EventEngineBounded, ConservationWithoutFaults) {
  const ExperimentConfig cfg = bounded_config(8, 1);
  auto exp = make_mini(cfg, 6, 4);
  const ExperimentResult r = exp->run();
  EXPECT_EQ(testutil::check_report(r, cfg, 6), "");
  // Nothing dropped and nothing in flight: every send was delivered.
  EXPECT_EQ(r.sim_time.dropped_total, 0u);
  EXPECT_EQ(r.total_traffic.messages_sent, r.event_engine.messages_delivered);
}

TEST(EventEngineBounded, ConservationWithDrops) {
  ExperimentConfig cfg = bounded_config(10, 2);
  cfg.time.edge_drop = {net::EdgeDropDist::Kind::kFixed, 0.3, 0.0};
  cfg.time.burst_every = 3;
  cfg.time.burst_drop = 0.5;
  auto exp = make_mini(cfg, 6, 4);
  const ExperimentResult r = exp->run();
  EXPECT_GT(r.sim_time.dropped_total, 0u);
  EXPECT_EQ(testutil::check_report(r, cfg, 6), "");
}

TEST(EventEngineBounded, HistogramCountsAppliedMessages) {
  const ExperimentConfig cfg = bounded_config(10, 3);
  auto exp = make_mini(cfg, 4);
  const ExperimentResult r = exp->run();
  const EventEngineStats& ee = r.event_engine;
  // Staleness 0..B buckets, and applied messages a subset of delivered ones
  // (the rest were either stale-dropped or still buffered as "early" when
  // the run ended).
  EXPECT_EQ(testutil::check_report(r, cfg, 4), "");
  EXPECT_GT(std::accumulate(ee.staleness_histogram.begin(),
                            ee.staleness_histogram.end(), std::uint64_t{0}),
            0u);
}

TEST(EventEngineBounded, StragglersDesynchronizeLocalClocks) {
  ExperimentConfig cfg = bounded_config(30, 3);
  cfg.time.straggler_fraction = 0.4;
  cfg.time.straggler_slowdown = 4.0;
  cfg.stop_at_sim_time = 0.5;
  auto exp = make_mini(cfg, 6, 4);
  const ExperimentResult r = exp->run();
  const EventEngineStats& ee = r.event_engine;
  // The paper-motivating signal: under a time budget fast nodes complete
  // genuinely more local rounds than the 4x stragglers.
  EXPECT_LT(ee.local_steps_min(), ee.local_steps_max());
  EXPECT_EQ(r.rounds_run, ee.local_steps_min());
  EXPECT_LE(r.sim_seconds, 0.5);
}

TEST(EventEngineBounded, BudgetStopsTheRun) {
  ExperimentConfig cfg = bounded_config(100, 2);
  cfg.stop_at_sim_time = 0.3;
  auto exp = make_mini(cfg, 4);
  const ExperimentResult r = exp->run();
  EXPECT_LT(r.rounds_run, 100u);
  EXPECT_LE(r.sim_seconds, 0.3);
  EXPECT_GT(r.sim_seconds, 0.0);
}

TEST(EventEngineBounded, ReplayIsBitIdentical) {
  ExperimentConfig cfg = bounded_config(12, 2);
  cfg.time.latency_dist = {net::LinkDist::Kind::kUniform, 0.002, 0.040};
  cfg.time.straggler_fraction = 0.3;
  cfg.time.straggler_slowdown = 3.0;
  auto a = make_mini(cfg, 6, 4);
  auto b = make_mini(cfg, 6, 4);
  const ExperimentResult ra = a->run();
  const ExperimentResult rb = b->run();
  EXPECT_EQ(json_of(ra), json_of(rb));
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(a->node(i).flat_params(), b->node(i).flat_params());
  }
}

TEST(EventEngineBounded, ThreadCountDoesNotChangeResults) {
  ExperimentConfig cfg = bounded_config(10, 2);
  cfg.time.latency_dist = {net::LinkDist::Kind::kUniform, 0.002, 0.040};
  cfg.eval_every = 2;
  auto seq = make_mini(cfg, 4);
  cfg.threads = 4;
  auto par = make_mini(cfg, 4);
  const ExperimentResult rs = seq->run();
  const ExperimentResult rp = par->run();
  EXPECT_EQ(json_of(rs), json_of(rp));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seq->node(i).flat_params(), par->node(i).flat_params());
  }
}

TEST(EventEngineBounded, CrashedNodeIdlesAndRejoins) {
  ExperimentConfig cfg = bounded_config(12, 1);
  cfg.time.crash_nodes = 1;
  cfg.time.crash_at = 2;
  cfg.time.rejoin_at = 8;
  auto exp = make_mini(cfg, 4);
  const ExperimentResult r = exp->run();
  // Idle crash rounds still advance the victim's local clock, so every node
  // reaches the rounds cap and the run terminates without deadlock.
  EXPECT_EQ(r.rounds_run, 12u);
  EXPECT_GT(r.sim_time.dropped_crash, 0u);  // messages to the victim died
  // Messages buffered across the crash window expire past the bound.
  EXPECT_GT(r.event_engine.messages_stale_dropped, 0u);
}

TEST(EventEngineBounded, PermanentCrashDoesNotDeadlock) {
  ExperimentConfig cfg = bounded_config(10, 1);
  cfg.time.crash_nodes = 1;
  cfg.time.crash_at = 3;
  cfg.time.rejoin_at = 0;  // down forever
  auto exp = make_mini(cfg, 4);
  const ExperimentResult r = exp->run();
  EXPECT_EQ(r.rounds_run, 10u);
  EXPECT_EQ(r.event_engine.messages_in_flight, 0u);
}

TEST(EventEngineBounded, HighLatencyWaitsForMessagesInFlight) {
  ExperimentConfig cfg = bounded_config(20, 1);
  cfg.compute_seconds_per_round = 0.005;
  cfg.time.latency_dist = {net::LinkDist::Kind::kUniform, 0.020, 0.080};
  auto exp = make_mini(cfg, 4);
  const ExperimentResult r = exp->run();
  EXPECT_EQ(testutil::check_report(r, cfg, 4), "");
  EXPECT_EQ(r.total_traffic.messages_sent, r.event_engine.messages_delivered);
  // Links many compute-rounds long, so a neighbor's message is often still
  // in flight after the neighbor has finished its last round. The gate
  // waits for it instead of exempting the finished neighbor, so no message
  // lands past its receiver's window.
  EXPECT_EQ(r.event_engine.messages_stale_dropped, 0u);
  // Every other delivery is applied, except final-round messages that land
  // after their receiver's own last step: B = 1 lets that step go ahead on
  // the round before. At most one per (receiver, neighbor): 4 nodes x 2.
  const std::vector<std::uint64_t>& ages = r.event_engine.staleness_histogram;
  const std::uint64_t applied =
      std::accumulate(ages.begin(), ages.end(), std::uint64_t{0});
  EXPECT_LE(applied, r.event_engine.messages_delivered);
  EXPECT_LE(r.event_engine.messages_delivered - applied, 8u);
}

TEST(EventEngineBounded, ExtendedJsonBlockPresent) {
  auto exp = make_mini(bounded_config(6, 2), 4);
  const ExperimentResult r = exp->run();
  const std::string json = json_of(r);
  EXPECT_NE(json.find("\"event_engine\""), std::string::npos);
  EXPECT_NE(json.find("\"staleness_histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"local_steps\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\": \"async\""), std::string::npos);
}

TEST(EventEngineBounded, EvaluationScheduleMatchesSyncRounds) {
  ExperimentConfig cfg = bounded_config(12, 2);
  cfg.eval_every = 3;
  auto exp = make_mini(cfg, 4);
  const ExperimentResult r = exp->run();
  // Sync evaluates after rounds t = 0, 3, 6, 9 (reported as t+1) plus the
  // final round; the bounded engine emits the same global schedule.
  ASSERT_EQ(r.series.size(), 5u);
  EXPECT_EQ(r.series[0].round, 1u);
  EXPECT_EQ(r.series[1].round, 4u);
  EXPECT_EQ(r.series[2].round, 7u);
  EXPECT_EQ(r.series[3].round, 10u);
  EXPECT_EQ(r.series[4].round, 12u);
  for (std::size_t i = 1; i < r.series.size(); ++i) {
    EXPECT_GE(r.series[i].sim_seconds, r.series[i - 1].sim_seconds);
  }
}

TEST(EventEngineBounded, TargetAccuracyStopsEarly) {
  ExperimentConfig cfg = bounded_config(60, 2);
  cfg.eval_every = 1;
  cfg.target_accuracy = 0.5;
  // A common optimum for every node: consensus and the local objectives
  // agree, so accuracy climbs monotonically toward 1 and must cross 0.5.
  data::Partition partition(4, {0, 1, 2, 3});
  auto counter = std::make_shared<std::size_t>(0);
  nn::ModelFactory factory =
      [counter]() -> std::unique_ptr<nn::SupervisedModel> {
    return std::make_unique<QuadraticModel>(node_target(0),
                                            node_init((*counter)++));
  };
  std::mt19937 rng(7);
  Experiment exp(cfg, factory, dummy_dataset(), partition, dummy_dataset(),
                 std::make_unique<graph::StaticTopology>(
                     graph::random_regular(4, 2, rng)));
  const ExperimentResult r = exp.run();
  EXPECT_TRUE(r.reached_target);
  EXPECT_LT(r.rounds_run, 60u);
}

TEST(EventEngineBounded, JwinsTracksAlpha) {
  ExperimentConfig cfg = bounded_config(8, 1);
  cfg.algorithm = Algorithm::kJwins;
  auto exp = make_mini(cfg, 4);
  const ExperimentResult r = exp->run();
  EXPECT_GT(r.mean_alpha, 0.0);
  EXPECT_LE(r.mean_alpha, 1.0);
}

// ------------------------------------------ free & weighted async modes

ExperimentConfig mode_config(std::size_t rounds, AsyncMode mode) {
  ExperimentConfig cfg = mini_config(rounds);
  cfg.engine = EngineKind::kAsync;
  cfg.async_mode = mode;
  return cfg;
}

/// Heterogeneity that makes the gate-free modes interesting: slow links and
/// a straggling minority, so arrivals genuinely straddle round boundaries.
void add_heterogeneity(ExperimentConfig& cfg) {
  cfg.time.latency_dist = {net::LinkDist::Kind::kUniform, 0.002, 0.040};
  cfg.time.straggler_fraction = 0.3;
  cfg.time.straggler_slowdown = 4.0;
}

TEST(AsyncModes, ModeNames) {
  EXPECT_STREQ(async_mode_name(AsyncMode::kBarrier), "barrier");
  EXPECT_STREQ(async_mode_name(AsyncMode::kFree), "free");
  EXPECT_STREQ(async_mode_name(AsyncMode::kWeighted), "weighted");
}

TEST(AsyncModes, ValidationRequiresAsyncEngine) {
  ExperimentConfig cfg = mini_config(4);
  cfg.async_mode = AsyncMode::kFree;  // engine still kSync
  const auto errors = cfg.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("async_mode"), std::string::npos);
  cfg.engine = EngineKind::kAsync;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(AsyncModes, ValidationRejectsStalenessBoundWithFree) {
  ExperimentConfig cfg = mini_config(4);
  cfg.engine = EngineKind::kAsync;
  cfg.async_mode = AsyncMode::kFree;
  cfg.staleness_bound = 2;  // free mode has no gate to bound
  const auto errors = cfg.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("staleness_bound"), std::string::npos);
}

TEST(AsyncModes, ValidationRejectsBadDecay) {
  ExperimentConfig cfg = mini_config(4);
  cfg.engine = EngineKind::kAsync;
  cfg.async_mode = AsyncMode::kWeighted;
  for (const double bad : {0.0, -0.5, 1.5,
                           std::numeric_limits<double>::quiet_NaN()}) {
    cfg.staleness_decay = bad;
    const auto errors = cfg.validate();
    ASSERT_FALSE(errors.empty()) << "decay " << bad;
    EXPECT_NE(errors.front().find("staleness_decay"), std::string::npos);
  }
  cfg.staleness_decay = 1.0;  // inclusive upper edge: no decay
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(AsyncFree, TerminatesAndConserves) {
  ExperimentConfig cfg = mode_config(10, AsyncMode::kFree);
  add_heterogeneity(cfg);
  auto exp = make_mini(cfg, 6, 4);
  const ExperimentResult r = exp->run();
  EXPECT_EQ(r.rounds_run, 10u);
  const EventEngineStats& ee = r.event_engine;
  EXPECT_EQ(ee.mode, AsyncMode::kFree);
  // No gate, so nothing is ever dropped for age or force-unblocked, and
  // the conservation ledger balances.
  EXPECT_EQ(testutil::check_report(r, cfg, 6), "");
}

TEST(AsyncFree, EffectiveNeighborAccountingIsConsistent) {
  ExperimentConfig cfg = mode_config(12, AsyncMode::kFree);
  add_heterogeneity(cfg);
  auto exp = make_mini(cfg, 6, 4);
  const ExperimentResult r = exp->run();
  const EventEngineStats& ee = r.event_engine;
  // Every applied contribution is counted once in the age histogram, once
  // in the effective-neighbor histogram's weighted sum, and once in
  // contributions_applied — three views of the same ledger — and applied
  // <= delivered, as late arrivals can outlive the final local step.
  EXPECT_EQ(testutil::check_report(r, cfg, 6), "");
  // One effective-neighbor sample per alive aggregation (= one per local
  // step here: no crash windows in this config).
  EXPECT_EQ(std::accumulate(ee.effective_neighbors.begin(),
                            ee.effective_neighbors.end(), std::uint64_t{0}),
            std::accumulate(ee.local_steps.begin(), ee.local_steps.end(),
                            std::uint64_t{0}));
  EXPECT_GT(ee.contributions_applied, 0u);
  // Mean age is the ledger ratio.
  EXPECT_DOUBLE_EQ(ee.mean_contribution_age(),
                   static_cast<double>(ee.contribution_age_sum) /
                       static_cast<double>(ee.contributions_applied));
}

TEST(AsyncFree, ReplayIsBitIdentical) {
  ExperimentConfig cfg = mode_config(10, AsyncMode::kFree);
  add_heterogeneity(cfg);
  cfg.eval_every = 2;
  auto a = make_mini(cfg, 6, 4);
  auto b = make_mini(cfg, 6, 4);
  const ExperimentResult ra = a->run();
  const ExperimentResult rb = b->run();
  EXPECT_EQ(json_of(ra), json_of(rb));
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(a->node(i).flat_params(), b->node(i).flat_params());
  }
}

TEST(AsyncFree, ThreadCountDoesNotChangeResults) {
  ExperimentConfig cfg = mode_config(8, AsyncMode::kFree);
  add_heterogeneity(cfg);
  cfg.eval_every = 2;
  auto seq = make_mini(cfg, 4);
  cfg.threads = 4;
  auto par = make_mini(cfg, 4);
  const ExperimentResult rs = seq->run();
  const ExperimentResult rp = par->run();
  EXPECT_EQ(json_of(rs), json_of(rp));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seq->node(i).flat_params(), par->node(i).flat_params());
  }
}

TEST(AsyncFree, JsonCarriesPerModeBlock) {
  ExperimentConfig cfg = mode_config(6, AsyncMode::kFree);
  add_heterogeneity(cfg);
  auto exp = make_mini(cfg, 4);
  const std::string json = json_of(exp->run());
  EXPECT_NE(json.find("\"async_mode\": \"free\""), std::string::npos);
  EXPECT_NE(json.find("\"effective_neighbors\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_contribution_age\""), std::string::npos);
  EXPECT_NE(json.find("\"edge_records_high_water\""), std::string::npos);
}

TEST(AsyncWeighted, DecayOneMatchesFreeBitForBit) {
  // lambda = 1 multiplies every contribution by exactly 1.0 — the weighted
  // aggregation path must reduce to free mode on the model bytes.
  ExperimentConfig cfg = mode_config(10, AsyncMode::kFree);
  add_heterogeneity(cfg);
  auto free_exp = make_mini(cfg, 6, 4);
  const ExperimentResult rf = free_exp->run();
  cfg.async_mode = AsyncMode::kWeighted;
  cfg.staleness_decay = 1.0;
  auto weighted_exp = make_mini(cfg, 6, 4);
  const ExperimentResult rw = weighted_exp->run();
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(free_exp->node(i).flat_params(),
              weighted_exp->node(i).flat_params())
        << "node " << i;
  }
  EXPECT_EQ(rf.final_accuracy, rw.final_accuracy);
  EXPECT_EQ(rf.final_loss, rw.final_loss);
  EXPECT_EQ(rf.event_engine.contributions_applied,
            rw.event_engine.contributions_applied);
  EXPECT_EQ(rw.event_engine.mode, AsyncMode::kWeighted);
}

TEST(AsyncWeighted, DecayChangesTheModelWhenContributionsAge) {
  // Slow links + stragglers guarantee aged contributions; lambda < 1 then
  // must actually move the aggregate.
  ExperimentConfig cfg = mode_config(12, AsyncMode::kFree);
  add_heterogeneity(cfg);
  cfg.compute_seconds_per_round = 0.005;  // links several rounds long
  auto free_exp = make_mini(cfg, 6, 4);
  const ExperimentResult rf = free_exp->run();
  ASSERT_GT(rf.event_engine.contribution_age_sum, 0u)
      << "config produced no aged contributions; the decay comparison "
         "would be vacuous";
  cfg.async_mode = AsyncMode::kWeighted;
  cfg.staleness_decay = 0.5;
  auto weighted_exp = make_mini(cfg, 6, 4);
  (void)weighted_exp->run();
  bool any_differs = false;
  for (std::size_t i = 0; i < 6; ++i) {
    any_differs = any_differs || free_exp->node(i).flat_params() !=
                                     weighted_exp->node(i).flat_params();
  }
  EXPECT_TRUE(any_differs);
}

TEST(AsyncWeighted, ReplayIsBitIdentical) {
  ExperimentConfig cfg = mode_config(10, AsyncMode::kWeighted);
  cfg.staleness_decay = 0.6;
  add_heterogeneity(cfg);
  auto a = make_mini(cfg, 6, 4);
  auto b = make_mini(cfg, 6, 4);
  const ExperimentResult ra = a->run();
  const ExperimentResult rb = b->run();
  EXPECT_EQ(json_of(ra), json_of(rb));
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(a->node(i).flat_params(), b->node(i).flat_params());
  }
}

TEST(AsyncWeighted, DecayedRunsArePinned) {
  // lambda = 0.5 under aged contributions, pinned to literal constants:
  // final_loss bits and a digest of every node's final model bytes. Any
  // change to how decay enters the aggregation weights shows up here.
  struct Cell {
    const char* name;
    Algorithm algorithm;
    algo::ChocoNode::Compressor compressor;
    core::RobustAggKind robust;
    std::uint64_t loss_bits;
    std::uint64_t digest;
  };
  using Kind = core::RobustAggKind;
  using Comp = algo::ChocoNode::Compressor;
  const Cell cells[] = {
      {"jwins", Algorithm::kJwins, Comp::kTopK, Kind::kNone,
       0x40246766d5555555ull, 0x39875bd90ec8aa8full},
      {"full_sharing", Algorithm::kFullSharing, Comp::kTopK, Kind::kNone,
       0x40266bfa75555555ull, 0x2ac78bf99f1e0575ull},
      {"random_sampling", Algorithm::kRandomSampling, Comp::kTopK, Kind::kNone,
       0x4023a574baaaaaabull, 0xb10a3e2a175667adull},
      {"choco_topk", Algorithm::kChoco, Comp::kTopK, Kind::kNone,
       0x402e22a04aaaaaabull, 0x6ec0c453901f13dbull},
      {"choco_qsgd", Algorithm::kChoco, Comp::kQsgd, Kind::kNone,
       0x402df7a665555555ull, 0x86593a9223ee3622ull},
      {"full_sharing_trimmed_mean", Algorithm::kFullSharing, Comp::kTopK,
       Kind::kTrimmedMean, 0x4027b1f480000000ull, 0x8cb2eaf068b46166ull},
  };
  for (const Cell& cell : cells) {
    ExperimentConfig cfg = mode_config(12, AsyncMode::kWeighted);
    add_heterogeneity(cfg);
    cfg.compute_seconds_per_round = 0.005;  // links several rounds long
    cfg.staleness_decay = 0.5;
    cfg.algorithm = cell.algorithm;
    cfg.choco.compressor = cell.compressor;
    cfg.robust_agg.kind = cell.robust;
    cfg.robust_agg.trim_fraction = 0.25;
    auto exp = make_mini(cfg, 6, 4);
    const ExperimentResult r = exp->run();
    ASSERT_GT(r.event_engine.contribution_age_sum, 0u) << cell.name;
    std::uint64_t loss_bits = 0;
    std::memcpy(&loss_bits, &r.final_loss, sizeof(loss_bits));
    EXPECT_EQ(loss_bits, cell.loss_bits)
        << cell.name << ": 0x" << std::hex << loss_bits;
    const std::uint64_t digest = testutil::model_digest(*exp, 6);
    EXPECT_EQ(digest, cell.digest) << cell.name << ": 0x" << std::hex << digest;
  }
}

TEST(AsyncWeighted, AllAlgorithmsTerminateUnderDecay) {
  for (const Algorithm algo :
       {Algorithm::kFullSharing, Algorithm::kRandomSampling, Algorithm::kJwins,
        Algorithm::kChoco, Algorithm::kPowerGossip}) {
    ExperimentConfig cfg = mode_config(6, AsyncMode::kWeighted);
    cfg.algorithm = algo;
    cfg.staleness_decay = 0.7;
    add_heterogeneity(cfg);
    auto exp = make_mini(cfg, 4);
    const ExperimentResult r = exp->run();
    EXPECT_EQ(r.rounds_run, 6u) << algorithm_name(algo);
    EXPECT_TRUE(std::isfinite(r.final_loss)) << algorithm_name(algo);
  }
}

// ------------------------- async accounting fixes (this engine revision)

TEST(AsyncAccounting, PhaseSplitSumsToSimTimeMidFlight) {
  // The mid-flight fix: evaluation points sampled between round boundaries
  // used to report a 0/undefined compute/comm split. Now the split is
  // attributed at event granularity, so every MetricPoint satisfies
  // compute + comm == sim_seconds exactly, and all three are monotone.
  ExperimentConfig cfg = bounded_config(16, 2);
  add_heterogeneity(cfg);
  cfg.eval_every = 2;
  auto exp = make_mini(cfg, 6, 4);
  const ExperimentResult r = exp->run();
  ASSERT_GT(r.series.size(), 2u);
  // The exact split, per point and for the run summary.
  EXPECT_EQ(testutil::check_report(r, cfg, 6), "");
  double prev_total = 0.0, prev_compute = 0.0, prev_comm = 0.0;
  for (const MetricPoint& p : r.series) {
    EXPECT_GE(p.sim_seconds, prev_total);
    EXPECT_GE(p.sim_compute_seconds, prev_compute);
    EXPECT_GE(p.sim_comm_seconds, prev_comm);
    prev_total = p.sim_seconds;
    prev_compute = p.sim_compute_seconds;
    prev_comm = p.sim_comm_seconds;
  }
  // Both phases genuinely occur in a straggler + latency run.
  EXPECT_GT(r.series.back().sim_compute_seconds, 0.0);
  EXPECT_GT(r.series.back().sim_comm_seconds, 0.0);
}

TEST(AsyncAccounting, FreeModeSplitAlsoSums) {
  ExperimentConfig cfg = mode_config(10, AsyncMode::kFree);
  add_heterogeneity(cfg);
  cfg.eval_every = 2;
  auto exp = make_mini(cfg, 4);
  const ExperimentResult r = exp->run();
  EXPECT_EQ(testutil::check_report(r, cfg, 4), "");
  EXPECT_GT(r.sim_seconds, 0.0);
}

TEST(AsyncAccounting, EdgeRecordsRetireAndStayBounded) {
  // The leak fix: a long stop_at_sim_time run must not accumulate edge
  // records — each retires when its transfer is delivered, dropped, or cut,
  // so the live count ends at zero and the high-water mark stays near the
  // in-flight ceiling instead of the total message count.
  ExperimentConfig cfg = mode_config(400, AsyncMode::kFree);
  add_heterogeneity(cfg);
  cfg.eval_every = 100;
  cfg.stop_at_sim_time = 0.6;
  auto exp = make_mini(cfg, 6, 4);
  const ExperimentResult r = exp->run();
  const net::TimeModel& tm = exp->network().time_model();
  EXPECT_TRUE(tm.retire_records());
  EXPECT_EQ(tm.edge_record_count(), 0u);
  EXPECT_GT(tm.edge_records_high_water(), 0u);
  // Bounded: far below the total send count a leak would accumulate.
  EXPECT_GT(r.total_traffic.messages_sent, 100u);
  EXPECT_LT(tm.edge_records_high_water(),
            r.total_traffic.messages_sent / 2);
  // The stat is surfaced in the result block too.
  EXPECT_EQ(r.event_engine.edge_records_high_water,
            tm.edge_records_high_water());
}

// ------------------------------ sub-round crash semantics (both engines)

/// The seeded crash-victim choice, reconstructed exactly as the Experiment
/// builds it.
std::uint32_t crash_victim(const ExperimentConfig& cfg, std::size_t n) {
  const net::TimeModel tm(n, cfg.link, cfg.time, cfg.seed);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (tm.node_crashes(i)) return i;
  }
  ADD_FAILURE() << "no crash victim drawn";
  return 0;
}

TEST(CrashSemantics, NodeAliveIsRoundGranular) {
  ExperimentConfig cfg = mini_config(10);
  cfg.time.crash_nodes = 1;
  cfg.time.crash_at = 3;
  cfg.time.rejoin_at = 7;
  const net::TimeModel tm(4, cfg.link, cfg.time, cfg.seed);
  const std::uint32_t v = crash_victim(cfg, 4);
  EXPECT_TRUE(tm.node_alive(v, 2));   // last full round before the crash
  EXPECT_FALSE(tm.node_alive(v, 3));  // down for the whole round, not part
  EXPECT_FALSE(tm.node_alive(v, 6));
  EXPECT_TRUE(tm.node_alive(v, 7));   // back for the whole rejoin round
}

TEST(CrashSemantics, DropCauseFlipsExactlyAtTheBoundary) {
  ExperimentConfig cfg = mini_config(10);
  cfg.time.crash_nodes = 1;
  cfg.time.crash_at = 3;
  cfg.time.rejoin_at = 7;
  const net::TimeModel tm(4, cfg.link, cfg.time, cfg.seed);
  const std::uint32_t v = crash_victim(cfg, 4);
  const std::uint32_t other = v == 0 ? 1 : 0;
  EXPECT_EQ(tm.drop_cause(other, v, 2), net::DropCause::kNone);
  EXPECT_EQ(tm.drop_cause(other, v, 3), net::DropCause::kCrash);
  EXPECT_EQ(tm.drop_cause(v, other, 6), net::DropCause::kCrash);
  EXPECT_EQ(tm.drop_cause(other, v, 7), net::DropCause::kNone);
}

TEST(CrashSemantics, SyncModelBytesFreezeForWholeRounds) {
  // Round granularity pinned end-to-end: the victim's parameters after
  // crash_at + k rounds equal its parameters at crash_at for any k inside
  // the window — there is no partial-round participation.
  ExperimentConfig cfg = mini_config(3);
  cfg.time.crash_nodes = 1;
  cfg.time.crash_at = 3;
  cfg.time.rejoin_at = 0;
  const std::uint32_t v = crash_victim(cfg, 4);
  auto at_crash = make_mini(cfg, 4);
  (void)at_crash->run();  // runs rounds 0..2, stops right at the window
  cfg.rounds = 6;
  cfg.eval_every = 6;
  auto inside = make_mini(cfg, 4);
  (void)inside->run();  // rounds 3..5 happen with the victim down
  EXPECT_EQ(at_crash->node(v).flat_params(), inside->node(v).flat_params());
}

TEST(CrashSemantics, SyncVictimSendsNothingWhileDown) {
  ExperimentConfig cfg = mini_config(6);
  cfg.time.crash_nodes = 1;
  cfg.time.crash_at = 2;
  cfg.time.rejoin_at = 4;
  auto exp = make_mini(cfg, 4);
  const ExperimentResult r = exp->run();
  ExperimentConfig clean = mini_config(6);
  auto base = make_mini(clean, 4);
  const ExperimentResult rb = base->run();
  // The victim skips its share phase for 2 rounds (degree-2 topology: 2
  // messages per round), so exactly 4 messages fewer are sent.
  EXPECT_EQ(r.total_traffic.messages_sent + 4,
            rb.total_traffic.messages_sent);
}

TEST(CrashSemantics, BoundZeroVictimFreezesTheSameBytes) {
  // Messages to and from the victim die on both engines alike, and the
  // gate exempts a neighbor that is down for the round: at B = 0 the
  // victim ends on sync's bytes.
  ExperimentConfig cfg = mini_config(6);
  cfg.time.crash_nodes = 1;
  cfg.time.crash_at = 2;
  cfg.time.rejoin_at = 5;
  const std::uint32_t v = crash_victim(cfg, 4);
  auto sync = make_mini(cfg, 4);
  (void)sync->run();
  cfg.engine = EngineKind::kAsync;
  auto async = make_mini(cfg, 4);
  (void)async->run();
  EXPECT_EQ(sync->node(v).flat_params(), async->node(v).flat_params());
}

TEST(CrashSemantics, BoundedVictimBytesFreezeDuringWindow) {
  // The bounded engine refines crash granularity to the victim's LOCAL
  // rounds, but the freeze itself is identical: no training, no sharing,
  // no aggregation while down.
  ExperimentConfig cfg = bounded_config(3, 1);
  cfg.time.crash_nodes = 1;
  cfg.time.crash_at = 3;
  cfg.time.rejoin_at = 0;
  const std::uint32_t v = crash_victim(cfg, 4);
  auto at_crash = make_mini(cfg, 4);
  (void)at_crash->run();
  cfg.rounds = 6;
  cfg.eval_every = 6;
  auto inside = make_mini(cfg, 4);
  (void)inside->run();
  EXPECT_EQ(at_crash->node(v).flat_params(), inside->node(v).flat_params());
}

}  // namespace
}  // namespace jwins::sim
