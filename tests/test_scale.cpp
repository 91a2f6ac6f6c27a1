// The 100k–1M-node scale suite: locks in the three contracts the scaling
// work rides on.
//
//  1. Sampled evaluation (`eval_sample`) — the seeded subset draw is a pure
//     function of (seed, metric round, n, k); metrics reduce over the
//     sampled population (sampled count in the denominator, never n); the
//     whole thing is byte-identical across thread counts, under topology
//     churn, and collapses to the full reduce when k >= n.
//  2. Compact node state (`node_state = compact`) — the COW NodeStateStore
//     plus counter-mode samplers reproduce the full engine byte for byte,
//     a lane worker is bound to a node by pointing its parameter views at
//     the node's slot (and evaluation never writes through such a view),
//     and the per-node steady-state heap cost stays under a pinned ceiling
//     (the memory-diet regression guard, via test_arena.cpp's allocator
//     hook).
//  3. Sharded sweeps (`--shard i/N` / `--resume`) — every grid cell lands
//     in exactly one shard, a resume over the shards' output writes a
//     grid.json byte-identical to an unsharded one, and resume regenerates
//     only what is missing or was computed under another spec, byte-exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "config/runner.hpp"
#include "config/scenario.hpp"
#include "config/sweep.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "graph/graph.hpp"
#include "sim/experiment.hpp"
#include "sim/node_state.hpp"
#include "sim/report.hpp"
#include "sim/workloads.hpp"
#include "test_util.hpp"

namespace jwins::sim {

/// White-box access to a compact Experiment's lane workers, state store and
/// metric round.
struct ExperimentTestPeer {
  static algo::DlNode& worker(Experiment& e, unsigned lane) {
    return *e.workers_.at(lane);
  }
  static void bind_worker(Experiment& e, algo::DlNode& w, std::size_t i) {
    e.bind_worker(w, i);
  }
  static const NodeStateStore& store(const Experiment& e) { return *e.store_; }
  static MetricPoint evaluate(Experiment& e, std::size_t round) {
    return e.evaluate(round, 0.0);
  }
};

}  // namespace jwins::sim

namespace jwins {
namespace {

namespace fs = std::filesystem;

std::string json_of(const sim::ExperimentResult& result) {
  return testutil::deterministic_json(result, "scale/test");
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

/// Result JSONs match except the host-timing block, which measures this
/// process and is excluded from every determinism contract.
std::string strip_wall_seconds(const std::string& json) {
  return testutil::strip_json_block(json, "wall_seconds");
}

/// A fresh per-test scratch directory under the gtest temp root.
fs::path test_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("jwins_scale_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- 1. Population accounting: the off-by-population guard -----------------
// The bug this pins against: summing train losses over the eval_sample
// subset but dividing by n. mean_loss_over is the single mean both engines
// report, so the rule is tested at its source first.

TEST(MeanLossAccounting, DividesBySampledPopulationNotN) {
  const std::vector<float> losses{1.0f, 2.0f, 3.0f, 4.0f};
  const auto all_alive = [](std::size_t) { return true; };

  // Empty population = every index.
  EXPECT_DOUBLE_EQ(
      sim::Experiment::mean_loss_over(losses, {}, all_alive), 2.5);

  // A 2-node population averages over 2, not 4. (2 + 4) / 2, never / 4.
  const std::vector<std::uint32_t> pop{1, 3};
  EXPECT_DOUBLE_EQ(sim::Experiment::mean_loss_over(losses, pop, all_alive),
                   3.0);
}

TEST(MeanLossAccounting, DeadNodesLeaveNumeratorAndDenominator) {
  const std::vector<float> losses{1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<std::uint32_t> pop{1, 3};
  const auto only_one = [](std::size_t i) { return i == 1; };
  // Node 3 is down: the mean is loss[1] / 1, not (loss[1] + 0) / 2.
  EXPECT_DOUBLE_EQ(sim::Experiment::mean_loss_over(losses, pop, only_one),
                   2.0);
  // Whole population down -> defined as 0, not NaN.
  const auto none = [](std::size_t) { return false; };
  EXPECT_DOUBLE_EQ(sim::Experiment::mean_loss_over(losses, pop, none), 0.0);
}

sim::ExperimentResult run_quadratic(std::size_t eval_sample) {
  // Every node holds the IDENTICAL quadratic objective, so per-node train
  // losses are exactly equal. The reported mean over k identical values
  // equals the mean over n of them bit-for-bit (n and k both powers of two,
  // so neither mean rounds) — unless the sampled sum is divided by n, in
  // which case the sampled run reports exactly k/n of the truth. That is
  // the off-by-population bug this test exists to catch.
  const std::size_t n = 4;
  static const testutil::DummyDataset dataset;
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kRandomSampling;
  cfg.rounds = 2;
  cfg.local_steps = 1;
  cfg.eval_every = 1;
  cfg.eval_sample = eval_sample;
  cfg.sgd.learning_rate = 0.1f;
  cfg.threads = 2;
  cfg.seed = 11;
  const auto factory = [] {
    tensor::Tensor target({4}), init({4});
    for (std::size_t i = 0; i < 4; ++i) {
      target[i] = 1.0f;
      init[i] = -0.5f;
    }
    return std::make_unique<testutil::QuadraticModel>(std::move(target),
                                                      std::move(init));
  };
  sim::Experiment exp(cfg, factory, dataset,
                      data::cyclic_partition(dataset.size(), n, 2), dataset,
                      std::make_unique<graph::StaticTopology>(
                          graph::ring(n)));
  return exp.run();
}

TEST(MeanLossAccounting, SampledTrainLossEqualsFullOnUniformLosses) {
  const sim::ExperimentResult full = run_quadratic(0);
  const sim::ExperimentResult sampled = run_quadratic(2);
  ASSERT_EQ(full.series.size(), sampled.series.size());
  for (std::size_t p = 0; p < full.series.size(); ++p) {
    EXPECT_DOUBLE_EQ(full.series[p].train_loss, sampled.series[p].train_loss)
        << "series point " << p
        << " (a k/n-scaled value here means the sampled sum was divided by n)";
  }
}

TEST(AlphaAccounting, SampledMeanAlphaUsesSampledCount) {
  // JWINS' mean_alpha averages per-node sharing fractions. Sampled over
  // k = n/4 nodes it must stay in the same range as the full average —
  // dividing the k-node sum by n would shrink it by ~4x.
  const std::size_t n = 8;
  const sim::Workload w = sim::make_femnist_like(n, 23);
  auto run = [&](std::size_t eval_sample) {
    sim::ExperimentConfig cfg;
    cfg.algorithm = sim::Algorithm::kJwins;
    cfg.rounds = 4;
    cfg.local_steps = 1;
    cfg.eval_every = 2;
    cfg.eval_sample_limit = 32;
    cfg.eval_sample = eval_sample;
    cfg.threads = 2;
    cfg.seed = 23;
    std::mt19937 topo_rng(23);
    sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                        std::make_unique<graph::StaticTopology>(
                            graph::random_regular(n, 4, topo_rng)));
    return exp.run();
  };
  const double full_alpha = run(0).mean_alpha;
  const double sampled_alpha = run(2).mean_alpha;
  ASSERT_GT(full_alpha, 0.05);
  // Same population-mean scale: far above the k/n-shrunken bug value.
  EXPECT_GT(sampled_alpha, 0.5 * full_alpha);
  EXPECT_LT(sampled_alpha, 2.0 * full_alpha);
}

// --- 1b. The seeded subset draw --------------------------------------------

TEST(EvalSample, SubsetDrawIsPureSortedUniqueAndInRange) {
  const auto a = sim::Experiment::eval_sample_indices(7, 3, 1000, 50);
  const auto b = sim::Experiment::eval_sample_indices(7, 3, 1000, 50);
  EXPECT_EQ(a, b);  // pure function of its arguments
  ASSERT_EQ(a.size(), 50u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(std::set<std::uint32_t>(a.begin(), a.end()).size(), a.size());
  for (const std::uint32_t i : a) EXPECT_LT(i, 1000u);

  // Different rounds redraw; different seeds redraw.
  EXPECT_NE(a, sim::Experiment::eval_sample_indices(7, 4, 1000, 50));
  EXPECT_NE(a, sim::Experiment::eval_sample_indices(8, 3, 1000, 50));

  // k >= n degenerates to every node, in order.
  std::vector<std::uint32_t> iota(16);
  std::iota(iota.begin(), iota.end(), 0u);
  EXPECT_EQ(sim::Experiment::eval_sample_indices(7, 0, 16, 16), iota);
  EXPECT_EQ(sim::Experiment::eval_sample_indices(7, 0, 16, 99), iota);
}

sim::ExperimentResult run_femnist(unsigned threads, std::size_t eval_sample,
                                  std::size_t churn_every) {
  const std::size_t n = 8;
  const sim::Workload w = sim::make_femnist_like(n, 23);
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kRandomSampling;
  cfg.rounds = 5;
  cfg.local_steps = 1;
  cfg.eval_every = 2;
  cfg.eval_sample_limit = 32;
  cfg.eval_sample = eval_sample;
  cfg.threads = threads;
  cfg.seed = 23;
  std::unique_ptr<graph::TopologyProvider> topo;
  if (churn_every > 0) {
    topo = std::make_unique<graph::DynamicRegularTopology>(n, 4, 23, churn_every);
  } else {
    std::mt19937 topo_rng(23);
    topo = std::make_unique<graph::StaticTopology>(
        graph::random_regular(n, 4, topo_rng));
  }
  sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                      std::move(topo));
  return exp.run();
}

TEST(EvalSample, ByteIdenticalAcrossThreadCounts) {
  const std::string one = json_of(run_femnist(1, 3, 0));
  EXPECT_EQ(one, json_of(run_femnist(4, 3, 0)));
}

TEST(EvalSample, DrawSurvivesTopologyChurn) {
  // Under churn_every = 1 the graph is redrawn every round; the subset draw
  // takes no topology input, so the run stays thread-count invariant.
  const std::string one = json_of(run_femnist(1, 3, 1));
  EXPECT_EQ(one, json_of(run_femnist(4, 3, 1)));
}

TEST(EvalSample, KAtLeastNIsByteIdenticalToFullReduce) {
  const std::string full = json_of(run_femnist(2, 0, 0));
  EXPECT_EQ(full, json_of(run_femnist(2, 8, 0)));   // k == n
  EXPECT_EQ(full, json_of(run_femnist(2, 99, 0)));  // k > n
}

TEST(EvalSample, RejectsEvalNodeLimitCombination) {
  sim::ExperimentConfig cfg;
  cfg.eval_sample = 4;
  cfg.eval_node_limit = 2;
  const auto errors = cfg.validate(16);
  EXPECT_FALSE(errors.empty());
}

// --- 2. Compact node state --------------------------------------------------

TEST(NodeStateStore, CopyOnWriteSemantics) {
  const std::vector<float> base{1.0f, 2.0f, 3.0f};
  sim::NodeStateStore store(100, base);
  EXPECT_EQ(store.size(), 100u);
  EXPECT_EQ(store.params(), 3u);
  EXPECT_EQ(store.materialized_count(), 0u);

  // Every node reads the one shared base until it writes.
  for (const std::size_t i : {std::size_t{0}, std::size_t{50}}) {
    EXPECT_FALSE(store.materialized(i));
    const auto v = store.view(i);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[1], 2.0f);
  }
  EXPECT_EQ(store.view(0).data(), store.view(99).data());  // same storage

  // First slot() materializes base-initialized private storage.
  auto slot = store.slot(7);
  ASSERT_EQ(slot.size(), 3u);
  EXPECT_EQ(slot[2], 3.0f);  // copied from base
  slot[2] = 42.0f;
  EXPECT_TRUE(store.materialized(7));
  EXPECT_EQ(store.materialized_count(), 1u);
  EXPECT_EQ(store.view(7)[2], 42.0f);
  EXPECT_EQ(store.view(8)[2], 3.0f);  // neighbors unaffected

  // store() overwrites wholesale.
  const std::vector<float> fresh{9.0f, 9.0f, 9.0f};
  store.store(7, fresh);
  EXPECT_EQ(store.view(7)[0], 9.0f);
  store.store(8, fresh);  // materializes on demand
  EXPECT_EQ(store.materialized_count(), 2u);

  EXPECT_GT(store.memory_bytes(), 0u);
}

TEST(NodeStateStore, SteadyStatePerNodeBytesAreSlotPlusIndex) {
  const std::size_t nodes = 10000, params = 58;
  sim::NodeStateStore store(nodes, std::vector<float>(params, 1.0f));
  for (std::size_t i = 0; i < nodes; ++i) {
    store.store(i, std::vector<float>(params, 2.0f));
  }
  // params floats + the 4-byte slot index, plus the slack of one partially
  // filled slab chunk (fully amortized at 1M nodes, up to ~50% at 10k —
  // the 1.5x headroom). A per-node DlNode object would cost 10-20x this.
  const std::size_t per_node = store.memory_bytes() / nodes;
  EXPECT_LE(per_node, (params * sizeof(float) + 4) * 3 / 2);
}

TEST(CounterSampler, StreamIsSeekableAndRebindable) {
  data::SyntheticImages::Config cfg;
  cfg.classes = 2;
  cfg.channels = 1;
  cfg.image_size = 2;
  cfg.samples = 64;
  cfg.seed = 3;
  cfg.sample_seed = 4;
  const data::SyntheticImages dataset(cfg);
  const std::vector<std::size_t> shard_a{0, 1, 2, 3};
  const std::vector<std::size_t> shard_b{10, 11};

  auto labels_of = [](data::Sampler& s, int draws) {
    std::vector<std::int32_t> out;
    for (int d = 0; d < draws; ++d) {
      for (const std::int32_t l : s.next().labels) out.push_back(l);
    }
    return out;
  };

  data::Sampler a(dataset, shard_a, 2, 77, data::Sampler::Mode::kCounter);
  const auto first = labels_of(a, 4);
  a.seek(0);
  EXPECT_EQ(labels_of(a, 4), first);  // replay from the start

  // A fresh sampler on the same (shard, seed) is the same stream; seek
  // drops it mid-stream.
  data::Sampler b(dataset, shard_a, 2, 77, data::Sampler::Mode::kCounter);
  b.seek(2);
  const auto tail = labels_of(b, 2);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                         first.begin() + static_cast<std::ptrdiff_t>(
                                             first.size() - tail.size())));

  // rebind() retargets shard + stream, matching a fresh sampler exactly.
  data::Sampler fresh_b(dataset, shard_b, 2, 99, data::Sampler::Mode::kCounter);
  const auto fresh_draws = labels_of(fresh_b, 3);
  a.rebind(std::vector<std::size_t>(shard_b.begin(), shard_b.end()), 99, 0);
  EXPECT_EQ(labels_of(a, 3), fresh_draws);

  // The shuffle mode's stream is stateful: no seek, no rebind.
  data::Sampler shuffled(dataset, shard_a, 2, 77);
  EXPECT_THROW(shuffled.seek(0), std::logic_error);
  EXPECT_THROW(shuffled.rebind(shard_b, 1, 0), std::logic_error);
}

constexpr std::size_t kScaleRounds = 4;

sim::ExperimentResult run_scale_workload(
    sim::NodeState node_state, unsigned threads, std::size_t nodes = 32,
    void (*tweak)(sim::ExperimentConfig&) = nullptr) {
  const sim::Workload w = sim::make_scale_like(nodes, 7);
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kRandomSampling;
  cfg.rounds = kScaleRounds;
  cfg.local_steps = 1;
  cfg.eval_every = 2;
  cfg.eval_sample_limit = 32;
  cfg.eval_sample = 8;
  cfg.node_state = node_state;
  cfg.batch_sampler = sim::BatchSampler::kCounter;
  cfg.threads = threads;
  cfg.seed = 7;
  if (tweak != nullptr) tweak(cfg);
  sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                      std::make_unique<graph::StaticTopology>(
                          graph::ring(nodes)));
  return exp.run();
}

/// One row of the compact-vs-full table: the knobs it sets on top of
/// run_scale_workload's base config, each aimed at one part of the shared
/// round loop (node passes, lr decay, crash gate, budget, target stop).
struct CompactCase {
  const char* name;
  void (*tweak)(sim::ExperimentConfig&);
  bool stops_early;  ///< the budget or the target ends the run before rounds
};

const CompactCase kCompactCases[] = {
    {"random-sampling", nullptr, false},
    {"full-sharing",
     [](sim::ExperimentConfig& c) {
       c.algorithm = sim::Algorithm::kFullSharing;
     },
     false},
    {"lr-decay",
     [](sim::ExperimentConfig& c) {
       c.lr_decay_every = 2;
       c.lr_decay_factor = 0.5;
     },
     false},
    {"crash-rejoin",
     [](sim::ExperimentConfig& c) {
       c.time.crash_nodes = 2;
       c.time.crash_at = 1;
       c.time.rejoin_at = 3;
     },
     false},
    // Round 2 ends at ~0.104 simulated seconds: the budget cuts it.
    {"sim-time-budget",
     [](sim::ExperimentConfig& c) { c.stop_at_sim_time = 0.1; },
     true},
    // First met at the round-3 evaluation (accuracy ~0.445).
    {"target-accuracy",
     [](sim::ExperimentConfig& c) { c.target_accuracy = 0.44; },
     true},
};

TEST(CompactState, ByteIdenticalToFullEngineAtAnyThreadCount) {
  for (const CompactCase& c : kCompactCases) {
    SCOPED_TRACE(c.name);
    const sim::ExperimentResult full =
        run_scale_workload(sim::NodeState::kFull, 1, 32, c.tweak);
    EXPECT_EQ(full.rounds_run < kScaleRounds, c.stops_early);
    const std::string reference = json_of(full);
    EXPECT_EQ(reference, json_of(run_scale_workload(sim::NodeState::kFull, 4,
                                                    32, c.tweak)));
    for (const unsigned threads : {1u, 4u}) {
      EXPECT_EQ(reference, json_of(run_scale_workload(sim::NodeState::kCompact,
                                                      threads, 32, c.tweak)))
          << "compact, threads=" << threads;
    }
  }
}

TEST(CompactState, ValidateEnforcesRestrictions) {
  sim::ExperimentConfig cfg;
  cfg.node_state = sim::NodeState::kCompact;
  cfg.batch_sampler = sim::BatchSampler::kShuffle;  // compact needs counter
  EXPECT_FALSE(cfg.validate(16).empty());

  cfg.batch_sampler = sim::BatchSampler::kCounter;
  cfg.algorithm = sim::Algorithm::kJwins;  // stateful node: rejected
  EXPECT_FALSE(cfg.validate(16).empty());

  cfg.algorithm = sim::Algorithm::kRandomSampling;
  EXPECT_TRUE(cfg.validate(16).empty());
}

/// A compact scale experiment over a ring, ready to run.
std::unique_ptr<sim::Experiment> make_compact(const sim::Workload& w,
                                              std::size_t nodes,
                                              std::size_t rounds) {
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kRandomSampling;
  cfg.rounds = rounds;
  cfg.eval_sample = 8;
  cfg.eval_sample_limit = 32;
  cfg.node_state = sim::NodeState::kCompact;
  cfg.batch_sampler = sim::BatchSampler::kCounter;
  cfg.threads = 1;
  cfg.seed = 7;
  return std::make_unique<sim::Experiment>(
      cfg, w.model_factory, *w.train, w.partition, *w.test,
      std::make_unique<graph::StaticTopology>(graph::ring(nodes)));
}

TEST(CompactState, BindPointsTheWorkerAtTheNodeSlot) {
  using Peer = sim::ExperimentTestPeer;
  const std::size_t nodes = 40;
  const sim::Workload w = sim::make_scale_like(nodes, 7);
  auto exp = make_compact(w, nodes, 2);
  const sim::NodeStateStore& store = Peer::store(*exp);
  algo::DlNode& worker = Peer::worker(*exp, 0);

  // The first bind materializes the slot, base-initialized, and the worker
  // trains on it in place.
  const std::vector<float> base(store.view(3).begin(), store.view(3).end());
  Peer::bind_worker(*exp, worker, 3);
  EXPECT_EQ(store.materialized_count(), 1u);
  EXPECT_EQ(worker.model().flat_params().data(), store.view(3).data());
  EXPECT_TRUE(std::ranges::equal(store.view(3), base));
  worker.local_train();
  EXPECT_FALSE(std::ranges::equal(store.view(3), base));
  EXPECT_TRUE(std::ranges::equal(store.view(4), base));  // still shared

  // After a run every node owns a slot; rebinding only re-points the views.
  (void)exp->run();
  ASSERT_EQ(store.materialized_count(), nodes);
  for (const std::size_t i : {std::size_t{0}, std::size_t{17}, nodes - 1}) {
    const std::vector<float> before(store.view(i).begin(),
                                    store.view(i).end());
    Peer::bind_worker(*exp, worker, i);
    EXPECT_EQ(worker.model().flat_params().data(), store.view(i).data())
        << "node " << i;
    EXPECT_TRUE(std::ranges::equal(store.view(i), before)) << "node " << i;
  }
  EXPECT_EQ(store.materialized_count(), nodes);
}

/// Every node's current parameters, copied out of the store.
std::vector<std::vector<float>> snapshot(const sim::NodeStateStore& store) {
  std::vector<std::vector<float>> out;
  for (std::size_t i = 0; i < store.size(); ++i) {
    out.emplace_back(store.view(i).begin(), store.view(i).end());
  }
  return out;
}

TEST(CompactState, MetricRoundLeavesEverySlotUntouched) {
  using Peer = sim::ExperimentTestPeer;
  const std::size_t nodes = 40;
  const sim::Workload w = sim::make_scale_like(nodes, 7);

  // Before any round: evaluation reads the shared base and materializes
  // nothing.
  auto fresh = make_compact(w, nodes, 2);
  (void)Peer::evaluate(*fresh, 1);
  EXPECT_EQ(Peer::store(*fresh).materialized_count(), 0u);

  auto exp = make_compact(w, nodes, 2);
  (void)exp->run();
  const sim::NodeStateStore& store = Peer::store(*exp);
  const std::size_t materialized = store.materialized_count();
  const auto before = snapshot(store);
  algo::DlNode& worker = Peer::worker(*exp, 0);

  // The worker is left bound to some node's slot; evaluation must load each
  // sampled node into the worker's own buffer, not write through the view.
  // Which node the worker was bound to must not change the metrics either.
  const std::vector<std::uint32_t> sample =
      sim::Experiment::eval_sample_indices(7, 3, nodes, 8);
  Peer::bind_worker(*exp, worker, sample.back());
  const sim::MetricPoint a = Peer::evaluate(*exp, 3);
  Peer::bind_worker(*exp, worker, nodes - 1 - sample.front());
  const sim::MetricPoint b = Peer::evaluate(*exp, 3);
  EXPECT_EQ(a.test_loss, b.test_loss);
  EXPECT_EQ(a.test_accuracy, b.test_accuracy);
  EXPECT_EQ(store.materialized_count(), materialized);
  const auto after = snapshot(store);
  for (std::size_t i = 0; i < nodes; ++i) {
    EXPECT_EQ(std::memcmp(before[i].data(), after[i].data(),
                          before[i].size() * sizeof(float)),
              0)
        << "node " << i << "'s slot changed during evaluation";
  }
}

// The memory-diet regression guard: per-node steady-state heap cost of a
// compact 10k-node experiment stays under a pinned ceiling. The full layout
// (one DlNode with model + optimizer + sampler per node) costs several KiB
// per node and trips this immediately.
TEST(ScaleMemory, CompactPerNodeHeapBytesUnderCeiling) {
  if (testutil::live_heap_bytes() < 0) {
    GTEST_SKIP() << "allocator hook compiled out (sanitized build)";
  }
  const std::size_t nodes = 10000;
  const sim::Workload w = sim::make_scale_like(nodes, 7);
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kRandomSampling;
  cfg.rounds = 1;
  cfg.local_steps = 1;
  cfg.eval_every = 1;
  cfg.eval_sample = 64;
  cfg.eval_sample_limit = 32;
  cfg.node_state = sim::NodeState::kCompact;
  cfg.batch_sampler = sim::BatchSampler::kCounter;
  cfg.threads = 2;
  cfg.seed = 7;

  const std::int64_t before = testutil::live_heap_bytes();
  sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                      std::make_unique<graph::StaticTopology>(
                          graph::ring(nodes)));
  (void)exp.run();
  // Steady state, experiment still alive: every node has trained, shared,
  // and materialized its delta slot.
  const std::int64_t held = testutil::live_heap_bytes() - before;
  ASSERT_GT(held, 0);
  const std::int64_t per_node = held / static_cast<std::int64_t>(nodes);
  EXPECT_LE(per_node, 2048)
      << "compact node state costs " << per_node
      << " bytes/node — the memory diet regressed (full-layout cost is "
         "several KiB/node)";
}

// --- 3. Sharded sweeps -------------------------------------------------------

TEST(Sweep, ShardSpecParsing) {
  const config::ShardSpec s = config::parse_shard("2/5");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_THROW(config::parse_shard("5/5"), config::ScenarioError);
  EXPECT_THROW(config::parse_shard("a/5"), config::ScenarioError);
  EXPECT_THROW(config::parse_shard("1/0"), config::ScenarioError);
  EXPECT_THROW(config::parse_shard("3"), config::ScenarioError);
  EXPECT_THROW(config::parse_shard("/3"), config::ScenarioError);
  EXPECT_THROW(config::parse_shard("3/"), config::ScenarioError);
  EXPECT_THROW(config::parse_shard("1/-2"), config::ScenarioError);
}

TEST(Sweep, EveryRunLandsInExactlyOneShard) {
  for (const std::size_t count : {1u, 2u, 3u, 7u}) {
    for (std::size_t run = 0; run < 25; ++run) {
      std::size_t owners = 0;
      for (std::size_t i = 0; i < count; ++i) {
        if (config::shard_owns({i, count}, run)) ++owners;
      }
      EXPECT_EQ(owners, 1u) << "run " << run << " of " << count << " shards";
    }
  }
}

/// The suite's sweep grid: 2 algorithms x 2 seeds over the scale workload,
/// small enough to execute in milliseconds. `overrides` are applied like
/// `jwins_run --set`.
std::vector<config::ScenarioRun> sweep_grid(
    const std::vector<std::pair<std::string, std::string>>& overrides = {}) {
  config::RawScenario raw = config::parse_scenario_text(
      "name = scale_suite\n"
      "workload = scale\n"
      "algorithm = random-sampling, full-sharing\n"
      "seed = 1, 2\n"
      "nodes = 8\n"
      "topology = ring\n"
      "rounds = 2\n"
      "eval_every = 1\n"
      "eval_sample_limit = 16\n"
      "threads = 2\n");
  for (const auto& [key, value] : overrides) {
    config::set_value(raw, key, value);
  }
  return config::expand_grid(raw);
}

/// Runs `runs` into out_dir with the given shard and resume settings,
/// logging progress to `console` when given.
config::SweepOutcome sweep(const std::vector<config::ScenarioRun>& runs,
                           const fs::path& out_dir,
                           config::ShardSpec shard = {}, bool resume = false,
                           std::ostream* console = nullptr) {
  config::SweepOptions options;
  options.out_dir = out_dir.string();
  options.shard = shard;
  options.resume = resume;
  options.console = console;
  return config::run_sweep(runs, "scale_suite", options);
}

/// True when a resume's progress log shows `run` kept rather than executed.
bool kept_in(const std::string& log, const config::ScenarioRun& run) {
  return log.find("[resume: kept " + config::run_file_base(run) + ".json]") !=
         std::string::npos;
}

/// The file names in `dir`, sorted.
std::vector<std::string> names_in(const fs::path& dir) {
  std::vector<std::string> names;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(Sweep, ShardedRunsResumeByteIdenticalToUnshardedGrid) {
  const auto runs = sweep_grid();
  ASSERT_EQ(runs.size(), 4u);
  const fs::path dir = test_dir("shard_resume");

  const config::SweepOutcome ref = sweep(runs, dir / "ref");
  EXPECT_EQ(ref.executed, 4u);
  EXPECT_EQ(ref.skipped, 0u);

  std::size_t executed_total = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const config::SweepOutcome out = sweep(runs, dir / "shards", {i, 3});
    executed_total += out.executed;
    EXPECT_EQ(out.executed + out.skipped, runs.size());
    EXPECT_TRUE(out.grid_path.empty());
  }
  EXPECT_EQ(executed_total, runs.size());  // disjoint cover

  // The shards wrote their runs' JSON and CSV and nothing else.
  const fs::path shard_dir = dir / "shards" / "scale_suite";
  std::vector<std::string> expected;
  for (const config::ScenarioRun& run : runs) {
    expected.push_back(config::run_file_base(run) + ".csv");
    expected.push_back(config::run_file_base(run) + ".json");
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(names_in(shard_dir), expected);

  // Resume over the union assembles the index without executing anything.
  const config::SweepOutcome assembled =
      sweep(runs, dir / "shards", {}, /*resume=*/true);
  EXPECT_EQ(assembled.executed, 0u);
  EXPECT_EQ(assembled.resumed, runs.size());
  EXPECT_EQ(read_file(assembled.grid_path),
            read_file(dir / "ref" / "scale_suite" / "grid.json"));

  // The per-run artifacts agree too (minus the host-timing block).
  for (const config::ScenarioRun& run : runs) {
    const std::string base = config::run_file_base(run);
    EXPECT_EQ(strip_wall_seconds(
                  read_file(dir / "ref" / "scale_suite" / (base + ".json"))),
              strip_wall_seconds(read_file(shard_dir / (base + ".json"))))
        << base;
  }
}

TEST(Sweep, ResumeOverIncompleteShardsExecutesOnlyTheMissingCells) {
  const auto runs = sweep_grid();
  const fs::path dir = test_dir("shard_incomplete");
  sweep(runs, dir / "ref");
  sweep(runs, dir / "shards", {0, 2});  // run shard 0 of 2, never shard 1

  // Resume executes exactly shard 1's cells (odd indices) and keeps shard 0's.
  std::ostringstream log;
  const config::SweepOutcome out =
      sweep(runs, dir / "shards", {}, /*resume=*/true, &log);
  EXPECT_EQ(out.executed, 2u);
  EXPECT_EQ(out.resumed, 2u);
  for (const config::ScenarioRun& run : runs) {
    EXPECT_EQ(kept_in(log.str(), run), config::shard_owns({0, 2}, run.index))
        << run.label;
  }
  EXPECT_EQ(read_file(out.grid_path),
            read_file(dir / "ref" / "scale_suite" / "grid.json"));
}

TEST(Sweep, ResumeReRunsCellsWhoseSpecChanged) {
  const auto runs = sweep_grid();
  const auto longer = sweep_grid({{"rounds", "3"}});
  const auto one_lane = sweep_grid({{"threads", "1"}});
  ASSERT_EQ(longer.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    // Same index and label, different spec: a different file name.
    EXPECT_NE(config::run_file_base(longer[i]),
              config::run_file_base(runs[i]));
    // The thread count never changes a result, so it is not in the spec.
    EXPECT_EQ(config::run_file_base(one_lane[i]),
              config::run_file_base(runs[i]));
  }
  EXPECT_TRUE(std::regex_match(
      config::run_file_base(runs[0]),
      std::regex("run000_algorithm-random-sampling_seed-1_[0-9a-f]{8}")))
      << config::run_file_base(runs[0]);

  const fs::path dir = test_dir("spec_change");
  ASSERT_EQ(sweep(runs, dir).executed, runs.size());

  // A changed rounds count re-executes every cell; none is kept.
  const config::SweepOutcome rerun = sweep(longer, dir, {}, /*resume=*/true);
  EXPECT_EQ(rerun.executed, runs.size());
  EXPECT_EQ(rerun.resumed, 0u);
  const std::string grid = read_file(rerun.grid_path);
  EXPECT_EQ(grid.find("\"rounds_run\": 2"), std::string::npos) << grid;
  std::size_t three = 0;
  for (std::size_t at = grid.find("\"rounds_run\": 3");
       at != std::string::npos; at = grid.find("\"rounds_run\": 3", at + 1)) {
    ++three;
  }
  EXPECT_EQ(three, runs.size());

  // Changing only the thread count keeps every run.
  const config::SweepOutcome kept = sweep(
      sweep_grid({{"rounds", "3"}, {"threads", "1"}}), dir, {},
      /*resume=*/true);
  EXPECT_EQ(kept.executed, 0u);
  EXPECT_EQ(kept.resumed, runs.size());
  EXPECT_EQ(read_file(kept.grid_path), grid);

  // Shards built under two specs: a resume under the base spec re-executes
  // exactly the cells of the shard that ran under the other one.
  sweep(runs, dir / "ref");
  sweep(longer, dir / "mixed", {0, 2});
  sweep(runs, dir / "mixed", {1, 2});
  std::ostringstream log;
  const config::SweepOutcome mixed =
      sweep(runs, dir / "mixed", {}, /*resume=*/true, &log);
  EXPECT_EQ(mixed.executed, 2u);
  EXPECT_EQ(mixed.resumed, 2u);
  for (const config::ScenarioRun& run : runs) {
    EXPECT_EQ(kept_in(log.str(), run), config::shard_owns({1, 2}, run.index))
        << run.label;
  }
  EXPECT_EQ(read_file(mixed.grid_path),
            read_file(dir / "ref" / "scale_suite" / "grid.json"));
}

TEST(Sweep, ResumeRegeneratesOnlyMissingRuns) {
  const auto runs = sweep_grid();
  const fs::path dir = test_dir("resume");
  config::SweepOptions options;
  options.out_dir = dir.string();
  const config::SweepOutcome first =
      config::run_sweep(runs, "scale_suite", options);
  ASSERT_EQ(first.executed, runs.size());
  const fs::path grid_path = dir / "scale_suite" / "grid.json";
  const std::string grid_before = read_file(grid_path);

  // Sabotage: plant a sentinel in run 0's CSV (resume must not touch
  // completed runs' files) and delete run 2's JSON (must be re-executed).
  const std::string kept_base = config::run_file_base(runs[0]);
  const std::string gone_base = config::run_file_base(runs[2]);
  write_file(dir / "scale_suite" / (kept_base + ".csv"), "sentinel\n");
  const std::string gone_json_before =
      read_file(dir / "scale_suite" / (gone_base + ".json"));
  fs::remove(dir / "scale_suite" / (gone_base + ".json"));

  options.resume = true;
  const config::SweepOutcome second =
      config::run_sweep(runs, "scale_suite", options);
  EXPECT_EQ(second.executed, 1u);
  EXPECT_EQ(second.resumed, runs.size() - 1);

  // Only the deleted run was regenerated — bytes identical to the original
  // (minus host timing); untouched runs were left alone (the sentinel
  // survives); the grid index is byte-identical to the first pass.
  EXPECT_EQ(strip_wall_seconds(
                read_file(dir / "scale_suite" / (gone_base + ".json"))),
            strip_wall_seconds(gone_json_before));
  EXPECT_EQ(read_file(dir / "scale_suite" / (kept_base + ".csv")),
            "sentinel\n");
  EXPECT_EQ(read_file(grid_path), grid_before);
}

TEST(Sweep, ProbeParsesWrittenResultsAndRejectsGarbage) {
  const fs::path dir = test_dir("probe");
  config::SweepOptions options;
  options.out_dir = dir.string();
  const auto runs = sweep_grid();
  config::run_sweep(runs, "scale_suite", options);
  const fs::path json =
      dir / "scale_suite" / (config::run_file_base(runs[0]) + ".json");
  const auto probe = config::probe_completed_run(json.string());
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->rounds_run, 2u);
  EXPECT_TRUE(std::isfinite(probe->final_loss));

  EXPECT_FALSE(config::probe_completed_run((dir / "absent.json").string()));
  write_file(dir / "garbage.json", "{\"not\": \"a result\"}\n");
  EXPECT_FALSE(config::probe_completed_run((dir / "garbage.json").string()));

  // A write cut short after the summary lines lacks the closing brace.
  const std::string text = read_file(json);
  const std::size_t loss_end = text.find('\n', text.find("\"final_loss\""));
  write_file(dir / "truncated.json", text.substr(0, loss_end + 1));
  EXPECT_FALSE(config::probe_completed_run((dir / "truncated.json").string()));
  // A document without the schema line is some other shape.
  write_file(dir / "schemaless.json",
             std::regex_replace(text, std::regex("\n  \"schema\": [^\n]*"),
                                ""));
  EXPECT_FALSE(
      config::probe_completed_run((dir / "schemaless.json").string()));
  // A diverged run's loss is written as null and reads back as NaN.
  write_file(dir / "diverged.json",
             std::regex_replace(text,
                                std::regex("\"final_loss\": [^,]*,"),
                                "\"final_loss\": null,"));
  const auto diverged =
      config::probe_completed_run((dir / "diverged.json").string());
  ASSERT_TRUE(diverged.has_value());
  EXPECT_TRUE(std::isnan(diverged->final_loss));
  EXPECT_EQ(diverged->final_accuracy, probe->final_accuracy);
}

// --- Scale presets parse, validate, and carry the memory-diet knobs --------

TEST(ScalePresets, ParseValidateAndConfigure) {
  for (const auto& [file, nodes] :
       {std::pair<const char*, std::size_t>{"scale_100k.scenario", 100000},
        {"scale_1m.scenario", 1000000}}) {
    const std::string path =
        std::string(JWINS_SOURCE_DIR) + "/scenarios/" + file;
    const auto runs = config::expand_grid(config::load_scenario_file(path));
    ASSERT_EQ(runs.size(), 1u) << file;
    const config::ScenarioRun& run = runs.front();
    EXPECT_EQ(run.nodes, nodes) << file;
    EXPECT_EQ(run.workload, "scale") << file;
    EXPECT_EQ(run.config.node_state, sim::NodeState::kCompact) << file;
    EXPECT_EQ(run.config.batch_sampler, sim::BatchSampler::kCounter) << file;
    EXPECT_EQ(run.config.eval_sample, 256u) << file;
  }
}

}  // namespace
}  // namespace jwins
