// Scenario engine tests: parser round-trips, every diagnostic path, sweep
// expansion count/order, runner wiring, the golden-file check that every
// paper-figure preset reproduces the hand-wired bench it replaced bit for
// bit, the shrunk preset cells whose results must show each preset's
// signature behaviour on top of every result invariant, and the docs
// contracts (every key the parser accepts, and every checked-in preset, is
// documented in docs/EXPERIMENTS.md).
#include "config/runner.hpp"
#include "config/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <random>
#include <set>
#include <sstream>

#include "graph/graph.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/workloads.hpp"
#include "test_util.hpp"

namespace jwins::config {
namespace {

std::vector<ScenarioRun> expand(const std::string& text) {
  return expand_grid(parse_scenario_text(text));
}

/// Runs text through parse+expand and returns the diagnostic ("" = valid).
std::string expand_error(const std::string& text) {
  try {
    expand(text);
  } catch (const ScenarioError& e) {
    return e.what();
  }
  return {};
}

void expect_error_contains(const std::string& text, const std::string& what) {
  const std::string message = expand_error(text);
  EXPECT_NE(message.find(what), std::string::npos)
      << "spec:\n" << text << "\ndiagnostic: " << message;
}

TEST(ScenarioParse, DefaultsMatchTheDocumentedTable) {
  const auto runs = expand("");
  ASSERT_EQ(runs.size(), 1u);
  const ScenarioRun& run = runs.front();
  EXPECT_EQ(run.label, "run");
  EXPECT_EQ(run.workload, "cifar");
  EXPECT_EQ(run.nodes, 16u);
  EXPECT_DOUBLE_EQ(run.scale, 1.0);
  EXPECT_EQ(run.topology, "regular");
  EXPECT_EQ(run.topology_degree, 0u);
  EXPECT_EQ(run.churn_every, 0u);
  EXPECT_TRUE(run.auto_learning_rate);
  EXPECT_TRUE(run.auto_local_steps);
  EXPECT_EQ(run.config.algorithm, sim::Algorithm::kJwins);
  EXPECT_EQ(run.config.rounds, 100u);
  EXPECT_EQ(run.config.eval_every, 10u);
  EXPECT_EQ(run.config.eval_sample_limit, 512u);
  EXPECT_EQ(run.config.eval_node_limit, 0u);
  EXPECT_EQ(run.config.threads, 0u);  // scenario default: all hardware threads
  EXPECT_EQ(run.config.seed, 1u);
  EXPECT_LT(run.config.target_accuracy, 0.0);  // off
  EXPECT_DOUBLE_EQ(run.config.link.bandwidth_bytes_per_sec, 12.5e6);
  EXPECT_DOUBLE_EQ(run.config.link.latency_sec, 2e-3);
}

TEST(ScenarioParse, RoundTripsValuesCommentsAndWhitespace) {
  const auto runs = expand(
      "# full-line comment\n"
      "  workload = femnist   ; trailing comment\n"
      "\n"
      "nodes=8\n"
      "algorithm\t=\tchoco\n"
      "rounds = 7\n"
      "seed = 99\n"
      "learning_rate = 0.125\n"
      "local_steps = 3\n"
      "choco_compressor = qsgd\n"
      "jwins_cutoff = two-point:0.05:0.1\n"
      "bandwidth_mbit = 10\n"
      "latency_ms = 20\n"
      "threads = 2\n");
  ASSERT_EQ(runs.size(), 1u);
  const ScenarioRun& run = runs.front();
  EXPECT_EQ(run.workload, "femnist");
  EXPECT_EQ(run.nodes, 8u);
  EXPECT_EQ(run.config.algorithm, sim::Algorithm::kChoco);
  EXPECT_EQ(run.config.rounds, 7u);
  EXPECT_EQ(run.config.seed, 99u);
  EXPECT_FALSE(run.auto_learning_rate);
  EXPECT_FLOAT_EQ(run.config.sgd.learning_rate, 0.125f);
  EXPECT_FALSE(run.auto_local_steps);
  EXPECT_EQ(run.config.local_steps, 3u);
  EXPECT_EQ(run.config.choco.compressor, algo::ChocoNode::Compressor::kQsgd);
  // two-point:0.05:0.1 -> E[alpha] = 0.1 + 0.9 * 0.05
  EXPECT_NEAR(run.config.jwins.cutoff.expected_alpha(), 0.145, 1e-12);
  EXPECT_DOUBLE_EQ(run.config.link.bandwidth_bytes_per_sec, 10e6 / 8.0);
  EXPECT_DOUBLE_EQ(run.config.link.latency_sec, 0.020);
  EXPECT_EQ(run.config.threads, 2u);
}

TEST(ScenarioParse, AsyncModeAndDecayKeys) {
  const auto runs = expand(
      "engine = async\nasync_mode = weighted\nstaleness_decay = 0.6\n");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs.front().config.engine, sim::EngineKind::kAsync);
  EXPECT_EQ(runs.front().config.async_mode, sim::AsyncMode::kWeighted);
  EXPECT_DOUBLE_EQ(runs.front().config.staleness_decay, 0.6);
  const auto defaults = expand("");
  EXPECT_EQ(defaults.front().config.async_mode, sim::AsyncMode::kBarrier);
  EXPECT_EQ(expand("engine = async\nasync_mode = free\n")
                .front()
                .config.async_mode,
            sim::AsyncMode::kFree);
  expect_error_contains("async_mode = sometimes\n", "async_mode");
  expect_error_contains("staleness_decay = 0\n", "staleness_decay");
  expect_error_contains("staleness_decay = 1.5\n", "staleness_decay");
}

TEST(ScenarioParse, ByzantineAndRobustAggKeys) {
  const auto runs = expand(
      "byzantine_nodes = 2\nbyzantine_mode = scale:-3.5\n"
      "robust_agg = trimmed_mean:0.25\n");
  ASSERT_EQ(runs.size(), 1u);
  const sim::ExperimentConfig& cfg = runs.front().config;
  EXPECT_EQ(cfg.byzantine_nodes, 2u);
  EXPECT_EQ(cfg.byzantine_mode, algo::ByzantineMode::kScale);
  EXPECT_DOUBLE_EQ(cfg.byzantine_scale, -3.5);
  EXPECT_EQ(cfg.robust_agg.kind, core::RobustAggKind::kTrimmedMean);
  EXPECT_DOUBLE_EQ(cfg.robust_agg.trim_fraction, 0.25);
  EXPECT_EQ(expand("byzantine_mode = random\n").front().config.byzantine_mode,
            algo::ByzantineMode::kRandom);
  EXPECT_EQ(
      expand("byzantine_mode = sign_flip\n").front().config.byzantine_mode,
      algo::ByzantineMode::kSignFlip);
  EXPECT_EQ(expand("robust_agg = median\n").front().config.robust_agg.kind,
            core::RobustAggKind::kMedian);
  const core::RobustAggConfig clip =
      expand("robust_agg = norm_clip:2.5\n").front().config.robust_agg;
  EXPECT_EQ(clip.kind, core::RobustAggKind::kNormClip);
  EXPECT_DOUBLE_EQ(clip.clip_norm, 2.5);
  const sim::ExperimentConfig defaults = expand("").front().config;
  EXPECT_EQ(defaults.byzantine_nodes, 0u);
  EXPECT_EQ(defaults.byzantine_mode, algo::ByzantineMode::kSignFlip);
  EXPECT_EQ(defaults.robust_agg.kind, core::RobustAggKind::kNone);
}

TEST(ScenarioParse, NameKeyAndFileStemNaming) {
  RawScenario raw = parse_scenario_text("name = my_exp\nrounds = 3\n", "stem");
  EXPECT_EQ(raw.name, "my_exp");
  raw = parse_scenario_text("rounds = 3\n", "stem");
  EXPECT_EQ(raw.name, "stem");
}

TEST(ScenarioParse, SetValueOverridesAndAppends) {
  RawScenario raw = parse_scenario_text("rounds = 3\n");
  set_value(raw, "rounds", "9");
  set_value(raw, "workload", "celeba");
  const auto runs = expand_grid(raw);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs.front().config.rounds, 9u);
  EXPECT_EQ(runs.front().workload, "celeba");
  // A --set override may itself introduce a sweep.
  set_value(raw, "seed", "1, 2");
  EXPECT_EQ(expand_grid(raw).size(), 2u);
}

// --- diagnostics: every error path answers with "<key>: <why>" ------------

TEST(ScenarioDiagnostics, UnknownKey) {
  expect_error_contains("bogus = 1\n", "bogus: unknown key");
}

TEST(ScenarioDiagnostics, BadEnums) {
  expect_error_contains("algorithm = sgd\n", "algorithm: unknown value");
  expect_error_contains("workload = imagenet\n", "workload: unknown value");
  expect_error_contains("topology = star\n", "topology: unknown value");
  expect_error_contains("jwins_wavelet = sym9\n", "jwins_wavelet: unknown value");
  expect_error_contains("choco_compressor = topj\n",
                        "choco_compressor: unknown value");
  expect_error_contains("index_encoding = gzip\n",
                        "index_encoding: unknown value");
  expect_error_contains("value_encoding = lz4\n",
                        "value_encoding: unknown value");
}

TEST(ScenarioDiagnostics, MalformedNumbers) {
  expect_error_contains("nodes = abc\n", "nodes: \"abc\" is not an unsigned");
  expect_error_contains("rounds = -3\n", "rounds: \"-3\" is not an unsigned");
  expect_error_contains("rounds = 5x\n", "rounds: \"5x\" is not an unsigned");
  expect_error_contains("scale = tiny\n", "scale: \"tiny\" is not a finite");
  expect_error_contains("jwins_use_wavelet = yep\n",
                        "jwins_use_wavelet: \"yep\" is not a bool");
}

TEST(ScenarioDiagnostics, OutOfRangeValues) {
  expect_error_contains("nodes = 1\n", "nodes: must be >= 2");
  expect_error_contains("rounds = 0\n", "rounds: must be >= 1");
  expect_error_contains("eval_every = 0\n", "eval_every: must be >= 1");
  expect_error_contains("eval_sample_limit = 0\n",
                        "eval_sample_limit: must be >= 1");
  expect_error_contains("lr_decay_factor = 0\n",
                        "lr_decay_factor: must be in (0, 1]");
  expect_error_contains("target_accuracy = 1.5\n",
                        "target_accuracy: must be in (0, 1]");
  expect_error_contains("message_drop_probability = 1\n",
                        "message_drop_probability: must be in [0, 1)");
  expect_error_contains("momentum = 1\n", "momentum: must be in [0, 1)");
  expect_error_contains("learning_rate = 0\n", "learning_rate: must be in");
  expect_error_contains("choco_fraction = 1.2\n",
                        "choco_fraction: must be in (0, 1]");
  expect_error_contains("random_sampling_fraction = 0\n",
                        "random_sampling_fraction: must be in (0, 1]");
}

TEST(ScenarioDiagnostics, CutoffSpecGrammar) {
  expect_error_contains("jwins_cutoff = pareto\n",
                        "jwins_cutoff: unknown cutoff");
  expect_error_contains("jwins_cutoff = two-point:0.5\n", "two fields");
  expect_error_contains("jwins_cutoff = fixed:1.5\n", "(0, 1]");
  expect_error_contains("jwins_cutoff = fixed:0\n", "(0, 1]");
}

TEST(ScenarioDiagnostics, ByzantineAndRobustAggGrammar) {
  expect_error_contains("byzantine_nodes = -1\n",
                        "byzantine_nodes: \"-1\" is not an unsigned");
  expect_error_contains("byzantine_mode = gaussian\n",
                        "byzantine_mode: unknown attack mode");
  expect_error_contains("byzantine_mode = scale:\n",
                        "byzantine_mode: scale:<k> multiplier must be a "
                        "finite number");
  expect_error_contains("byzantine_mode = scale:big\n",
                        "byzantine_mode: scale:<k> multiplier");
  expect_error_contains("byzantine_mode = scale:inf\n",
                        "byzantine_mode: scale:<k> multiplier");
  expect_error_contains("robust_agg = krum\n",
                        "robust_agg: unknown robust rule");
  expect_error_contains("robust_agg = trimmed_mean:0.5\n", "[0, 0.5)");
  expect_error_contains("robust_agg = trimmed_mean:-0.1\n", "[0, 0.5)");
  expect_error_contains("robust_agg = trimmed_mean:lots\n", "[0, 0.5)");
  expect_error_contains("robust_agg = norm_clip:0\n",
                        "robust_agg: norm_clip:<c> clip norm must be > 0");
  expect_error_contains("robust_agg = norm_clip:-1\n",
                        "norm_clip:<c> clip norm must be > 0");
}

TEST(ScenarioDiagnostics, ByzantineCrossFieldRules) {
  expect_error_contains("nodes = 8\nbyzantine_nodes = 8\n",
                        "byzantine_nodes: must leave at least one honest");
  expect_error_contains("nodes = 8\nbyzantine_nodes = 12\n",
                        "byzantine_nodes: must leave at least one honest");
  expect_error_contains(
      "algorithm = power-gossip\nrobust_agg = median\n",
      "robust_agg: trimmed_mean/median are undefined for power-gossip");
  expect_error_contains(
      "algorithm = power-gossip\nrobust_agg = trimmed_mean:0.2\n",
      "use none or norm_clip");
  // norm_clip and none stay valid on power-gossip.
  EXPECT_EQ(
      expand_error("algorithm = power-gossip\nrobust_agg = norm_clip:1\n"),
      "");
}

TEST(ScenarioDiagnostics, SyntaxErrors) {
  expect_error_contains("[sim]\n", "line 1: sections are not supported");
  expect_error_contains("rounds 5\n", "line 1: expected `key = value`");
  expect_error_contains("= 5\n", "line 1: empty key");
  expect_error_contains("rounds = 5\nrounds = 6\n", "duplicate key \"rounds\"");
  expect_error_contains("algorithm = jwins,,choco\n", "empty value");
  expect_error_contains("name = a, b\n", "name: is not sweepable");
}

TEST(ScenarioDiagnostics, CrossFieldTopologyRules) {
  // 7 is prime: no rows x cols factorization with both >= 2.
  expect_error_contains("topology = torus\nnodes = 7\n",
                        "nodes: torus requires a composite");
  expect_error_contains("topology = ring\ntopology_degree = 3\n",
                        "topology_degree: ring requires an even degree");
  expect_error_contains("topology = full\nchurn_every = 1\n",
                        "churn_every: churn");
  // nodes=5, auto degree 3 -> nodes*degree odd.
  expect_error_contains("nodes = 5\n", "topology: random regular requires");
}

TEST(ScenarioDiagnostics, MissingFile) {
  EXPECT_THROW(load_scenario_file("/nonexistent/x.scenario"), ScenarioError);
}

// --- sweep expansion ------------------------------------------------------

TEST(ScenarioSweep, CountAndOdometerOrder) {
  const auto runs = expand(
      "algorithm = jwins, choco\n"
      "seed = 1, 2, 3\n");
  ASSERT_EQ(runs.size(), 6u);
  // File order with the last-listed key fastest: algorithm is the slow
  // axis, seed the fast one.
  const char* expected[] = {
      "algorithm=jwins,seed=1", "algorithm=jwins,seed=2",
      "algorithm=jwins,seed=3", "algorithm=choco,seed=1",
      "algorithm=choco,seed=2", "algorithm=choco,seed=3"};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].index, i);
    EXPECT_EQ(runs[i].label, expected[i]);
  }
  EXPECT_EQ(runs[0].config.algorithm, sim::Algorithm::kJwins);
  EXPECT_EQ(runs[0].config.seed, 1u);
  EXPECT_EQ(runs[5].config.algorithm, sim::Algorithm::kChoco);
  EXPECT_EQ(runs[5].config.seed, 3u);
}

TEST(ScenarioSweep, NonSweptKeysApplyToEveryCell) {
  const auto runs = expand(
      "rounds = 12\n"
      "workload = celeba, femnist\n");
  ASSERT_EQ(runs.size(), 2u);
  for (const ScenarioRun& run : runs) EXPECT_EQ(run.config.rounds, 12u);
  EXPECT_EQ(runs[0].workload, "celeba");
  EXPECT_EQ(runs[1].workload, "femnist");
}

TEST(ScenarioSweep, GridCapIsEnforced) {
  std::string seeds = "seed = 0";
  for (int i = 1; i < 70; ++i) seeds += ", " + std::to_string(i);
  const std::string text = seeds + "\nrounds = 1, 2\nnodes = 4, 8, 12, 16\n" +
                           "eval_every = 1, 2, 3, 4, 5, 6, 7, 8\n";
  expect_error_contains(text, "grid expands past the 4096-run cap");
}

// --- key registry & docs contract -----------------------------------------

TEST(ScenarioKeys, RegistryIsNonEmptyAndUnique) {
  const auto& keys = scenario_keys();
  ASSERT_GE(keys.size(), 30u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_STRNE(keys[i].key, keys[j].key);
    }
    EXPECT_GT(std::string(keys[i].description).size(), 0u) << keys[i].key;
    EXPECT_GT(std::string(keys[i].default_value).size(), 0u) << keys[i].key;
  }
}

TEST(ScenarioKeys, EveryKeyIsDocumentedInExperimentsMd) {
  const std::string path = std::string(JWINS_SOURCE_DIR) +
                           "/docs/EXPERIMENTS.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string docs = buffer.str();
  for (const KeyInfo& key : scenario_keys()) {
    // Incremental append (not operator+ chains) sidesteps GCC 12's
    // -Wrestrict false positive on string concatenation (GCC PR 105651).
    std::string needle = "`";
    needle += key.key;
    needle += "`";
    EXPECT_NE(docs.find(needle), std::string::npos)
        << "docs/EXPERIMENTS.md does not document scenario key `" << key.key
        << "`";
  }
}

TEST(ScenarioKeys, AllCheckedInScenarioPresetsExpand) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(JWINS_SOURCE_DIR) / "scenarios";
  ASSERT_TRUE(fs::exists(dir));
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".scenario") continue;
    EXPECT_NO_THROW({
      const auto runs = expand_grid(load_scenario_file(entry.path().string()));
      EXPECT_GE(runs.size(), 1u) << entry.path();
    }) << entry.path();
  }
}

// Every checked-in preset has a row in docs/EXPERIMENTS.md's figure map, and
// every preset the map names exists.
TEST(ScenarioKeys, FigureMapListsExactlyTheCheckedInPresets) {
  namespace fs = std::filesystem;
  const fs::path root(JWINS_SOURCE_DIR);
  std::ifstream in(root / "docs" / "EXPERIMENTS.md");
  ASSERT_TRUE(in.is_open());
  std::set<std::string> mapped;
  bool in_map = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) {
      in_map = line == "## Figure ↔ scenario map";
      continue;
    }
    if (!in_map || line.rfind("| `scenarios/", 0) != 0) continue;
    const std::size_t begin = 3;  // past "| `"
    mapped.insert(line.substr(begin, line.find('`', begin) - begin));
  }
  ASSERT_FALSE(mapped.empty()) << "no figure map rows found";

  std::set<std::string> presets;
  for (const auto& entry : fs::directory_iterator(root / "scenarios")) {
    if (entry.path().extension() != ".scenario") continue;
    presets.insert("scenarios/" + entry.path().filename().string());
  }
  for (const std::string& preset : presets) {
    EXPECT_EQ(mapped.count(preset), 1u)
        << preset << " has no row in docs/EXPERIMENTS.md's figure map";
  }
  for (const std::string& path : mapped) {
    EXPECT_TRUE(fs::exists(root / path))
        << "docs/EXPERIMENTS.md's figure map names missing preset " << path;
  }
}

// --- runner wiring --------------------------------------------------------

TEST(ScenarioRunner, AutoKnobsResolveToWorkloadSuggestions) {
  const ScenarioRun run = expand("workload = shakespeare\nnodes = 4\n").front();
  const sim::Workload workload = make_run_workload(run);
  const sim::ExperimentConfig config = resolve_config(run, workload);
  EXPECT_FLOAT_EQ(config.sgd.learning_rate, workload.suggested_lr);
  EXPECT_EQ(config.local_steps, workload.suggested_local_steps);
  EXPECT_GE(config.threads, 1u);  // 0 = auto resolved
}

TEST(ScenarioRunner, ExplicitKnobsWin) {
  const ScenarioRun run =
      expand("workload = shakespeare\nnodes = 4\nlearning_rate = 0.5\n"
             "local_steps = 7\nthreads = 3\n")
          .front();
  const sim::ExperimentConfig config =
      resolve_config(run, make_run_workload(run));
  EXPECT_FLOAT_EQ(config.sgd.learning_rate, 0.5f);
  EXPECT_EQ(config.local_steps, 7u);
  EXPECT_EQ(config.threads, 3u);
}

TEST(ScenarioRunner, TopologyShapes) {
  auto degree_of = [](graph::TopologyProvider& topo, std::size_t n) {
    const graph::Graph& g = topo.round_graph(0);
    EXPECT_EQ(g.size(), n);
    EXPECT_TRUE(g.connected());
    return g.degree(0);
  };
  const auto ring = expand("topology = ring\nnodes = 8\n").front();
  EXPECT_EQ(degree_of(*make_run_topology(ring), 8), 2u);

  const auto torus = expand("topology = torus\nnodes = 12\n").front();
  EXPECT_EQ(degree_of(*make_run_topology(torus), 12), 4u);

  const auto full = expand("topology = full\nnodes = 6\n").front();
  EXPECT_EQ(degree_of(*make_run_topology(full), 6), 5u);

  const auto regular =
      expand("topology = regular\nnodes = 8\ntopology_degree = 4\n").front();
  const auto topo = make_run_topology(regular);
  EXPECT_TRUE(topo->round_graph(0).is_regular(4));
}

TEST(ScenarioRunner, ChurnScheduleRewiresOnThePeriod) {
  const auto run =
      expand("nodes = 8\nchurn_every = 2\ntopology_degree = 4\n").front();
  const auto topo = make_run_topology(run);
  auto edges = [](const graph::Graph& g) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t u = 0; u < g.size(); ++u) {
      for (std::size_t v : g.neighbors(u)) {
        if (u < v) out.emplace_back(u, v);
      }
    }
    return out;
  };
  const auto e0 = edges(topo->round_graph(0));
  const auto e1 = edges(topo->round_graph(1));
  const auto e2 = edges(topo->round_graph(2));
  EXPECT_EQ(e0, e1);  // same epoch
  EXPECT_NE(e0, e2);  // rewired after the period
}

// --- ExperimentConfig::validate -------------------------------------------

TEST(ExperimentConfigValidate, DefaultConfigIsValid) {
  // Named variable rather than a temporary: GCC 12 -O2 raises a
  // -Wmaybe-uninitialized false positive on the temporary's string member.
  const sim::ExperimentConfig config;
  EXPECT_TRUE(config.validate().empty());
}

TEST(ExperimentConfigValidate, ReportsEveryViolation) {
  sim::ExperimentConfig config;
  config.eval_every = 0;
  config.lr_decay_factor = -0.5;
  config.target_accuracy = 1.5;
  config.sgd.learning_rate = 0.0f;
  const auto errors = config.validate();
  ASSERT_EQ(errors.size(), 4u);
  auto has = [&](const std::string& needle) {
    for (const std::string& e : errors) {
      if (e.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("eval_every:"));
  EXPECT_TRUE(has("lr_decay_factor:"));
  EXPECT_TRUE(has("target_accuracy:"));
  EXPECT_TRUE(has("learning_rate:"));
}

TEST(ExperimentConfigValidate, ExperimentConstructorRejectsInvalidConfig) {
  const sim::Workload w = sim::make_celeba_like(4, 3);
  sim::ExperimentConfig config;
  config.eval_every = 0;
  std::mt19937 rng(3);
  EXPECT_THROW(sim::Experiment(config, w.model_factory, *w.train, w.partition,
                               *w.test,
                               std::make_unique<graph::StaticTopology>(
                                   graph::random_regular(4, 3, rng))),
               std::invalid_argument);
}

// --- the golden-file check ------------------------------------------------

// Each checked-in paper-figure preset, scaled down, must reproduce the EXACT
// result of the hand-wired bench it replaced: same workload seed, same
// topology construction, same config. This is the contract that let the
// benches delete their hand wiring. Every hand-wired function below is the
// deleted bench's config code, verbatim apart from the scaled-down sizes.

constexpr std::size_t kGoldenNodes = 8;
constexpr std::size_t kGoldenRounds = 6;

/// The benches' static_regular(nodes, degree_for_nodes(nodes), seed).
sim::ExperimentResult run_hand_wired(const sim::ExperimentConfig& cfg,
                                     const sim::Workload& w, std::size_t nodes,
                                     std::size_t seed) {
  std::mt19937 rng(static_cast<unsigned>(seed));
  sim::Experiment experiment(
      cfg, w.model_factory, *w.train, w.partition, *w.test,
      std::make_unique<graph::StaticTopology>(
          graph::random_regular(nodes, auto_degree(nodes), rng)));
  return experiment.run();
}

// bench_fig5_convergence (pre-preset), the random-sampling stage on celeba.
sim::ExperimentResult fig5_bench() {
  const std::size_t nodes = kGoldenNodes;
  const std::size_t rounds = kGoldenRounds;
  const std::size_t seed = 1;
  const sim::Workload w =
      sim::make_workload("celeba", nodes, static_cast<std::uint32_t>(seed));
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kRandomSampling;
  cfg.rounds = rounds;
  cfg.local_steps = w.suggested_local_steps;
  cfg.sgd.learning_rate = w.suggested_lr;
  cfg.eval_every = 2;
  cfg.eval_sample_limit = 64;
  cfg.eval_node_limit = 4;
  cfg.threads = 1;
  cfg.seed = seed;
  cfg.random_sampling_fraction = 0.37;
  return run_hand_wired(cfg, w, nodes, seed);
}

// bench_fig6_choco: one budget's JWINS or CHoCo run.
struct Fig6Budget {
  double alpha_low, p_full;  // JWINS two-point distribution
  double choco_fraction, choco_gamma;
};
constexpr Fig6Budget kFig6Budget20{0.10, 0.10, 0.20, 0.6};
constexpr Fig6Budget kFig6Budget10{0.05, 0.05, 0.10, 0.1};

sim::ExperimentResult fig6_bench(sim::Algorithm algorithm,
                                 const Fig6Budget& b) {
  const std::size_t nodes = kGoldenNodes;
  const std::size_t rounds = kGoldenRounds;
  const std::size_t seed = 1;
  const unsigned threads = 1;
  const sim::Workload w =
      sim::make_cifar_like(nodes, static_cast<std::uint32_t>(seed));
  sim::ExperimentConfig cfg;
  cfg.algorithm = algorithm;
  cfg.rounds = rounds;
  cfg.local_steps = 2;
  cfg.sgd.learning_rate = 0.05f;
  cfg.eval_every = 5;
  cfg.eval_sample_limit = 192;
  cfg.eval_node_limit = std::min<std::size_t>(nodes, 8);
  cfg.threads = threads;
  cfg.seed = seed;
  if (algorithm == sim::Algorithm::kJwins) {
    cfg.jwins.cutoff =
        core::RandomizedCutoff::two_point(b.alpha_low, b.p_full);
  } else {
    cfg.choco.fraction = b.choco_fraction;
    cfg.choco.gamma = b.choco_gamma;
  }
  return run_hand_wired(cfg, w, nodes, seed);
}

// bench_fig8_ablation: one variant at one budget and seed.
struct Fig8Variant {
  bool wavelet, accumulation, random_cutoff;
};

sim::ExperimentResult fig8_bench(const Fig8Variant& v, bool budgeted,
                                 std::size_t run_seed) {
  const std::size_t nodes = kGoldenNodes;
  const std::size_t rounds = kGoldenRounds;
  const unsigned threads = 1;
  const double alpha_low = 0.10, p_full = 0.10;  // the 20% budget
  const sim::Workload w =
      sim::make_cifar_like(nodes, static_cast<std::uint32_t>(run_seed));
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kJwins;
  cfg.rounds = rounds;
  cfg.local_steps = 2;
  cfg.sgd.learning_rate = w.suggested_lr;
  cfg.eval_every = 10;
  cfg.eval_sample_limit = 192;
  cfg.eval_node_limit = std::min<std::size_t>(nodes, 8);
  cfg.threads = threads;
  cfg.seed = run_seed;
  cfg.jwins.ranker.use_wavelet = v.wavelet;
  cfg.jwins.ranker.use_accumulation = v.accumulation;
  core::RandomizedCutoff base =
      budgeted ? core::RandomizedCutoff::two_point(alpha_low, p_full)
               : core::RandomizedCutoff::paper_default();
  cfg.jwins.cutoff = v.random_cutoff
                         ? base
                         : core::RandomizedCutoff::fixed(base.expected_alpha());
  return run_hand_wired(cfg, w, nodes, run_seed);
}

// bench_fig9_metadata: one index encoding.
sim::ExperimentResult fig9_bench(core::IndexEncoding encoding) {
  const std::size_t nodes = kGoldenNodes;
  const std::size_t rounds = kGoldenRounds;
  const std::size_t seed = 1;
  const unsigned threads = 1;
  const sim::Workload w =
      sim::make_cifar_like(nodes, static_cast<std::uint32_t>(seed));
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kJwins;
  cfg.rounds = rounds;
  cfg.local_steps = 2;
  cfg.sgd.learning_rate = 0.05f;
  cfg.eval_every = rounds;
  cfg.eval_sample_limit = 64;
  cfg.eval_node_limit = 2;
  cfg.threads = threads;
  cfg.seed = seed;
  cfg.jwins.index_encoding = encoding;
  cfg.jwins.value_encoding = core::ValueEncoding::kRaw;
  return run_hand_wired(cfg, w, nodes, seed);
}

// bench_ablation_baselines (pre-preset): its run(algorithm, rounds) lambda.
sim::ExperimentResult baselines_bench(sim::Algorithm algorithm) {
  const std::size_t nodes = kGoldenNodes;
  const std::size_t algo_rounds = kGoldenRounds;
  const std::size_t seed = 1;
  const unsigned threads = 1;
  const sim::Workload w =
      sim::make_cifar_like(nodes, static_cast<std::uint32_t>(seed));
  sim::ExperimentConfig cfg;
  cfg.algorithm = algorithm;
  cfg.rounds = algo_rounds;
  cfg.local_steps = 2;
  cfg.sgd.learning_rate = w.suggested_lr;
  cfg.eval_every = 10;
  cfg.eval_sample_limit = 192;
  cfg.eval_node_limit = std::min<std::size_t>(nodes, 8);
  cfg.threads = threads;
  cfg.seed = seed;
  cfg.choco.gamma = 0.6;
  cfg.choco.fraction = 0.2;
  cfg.power_gossip.gamma = 1.0;
  cfg.jwins.cutoff = core::RandomizedCutoff::two_point(0.10, 0.10);
  return run_hand_wired(cfg, w, nodes, seed);
}

struct GoldenRow {
  const char* name;
  const char* preset;  ///< scenarios/<preset>.scenario
  std::vector<std::pair<const char*, const char*>> overrides;  ///< --set
  const char* label;   ///< the grid cell to run (ScenarioRun::label)
  std::function<sim::ExperimentResult()> hand_wired;
};

// gtest prints the row name for `# GetParam() =` instead of raw bytes.
void PrintTo(const GoldenRow& row, std::ostream* os) { *os << row.name; }

void expect_bit_identical(const sim::ExperimentResult& got,
                          const sim::ExperimentResult& want) {
  ASSERT_EQ(got.series.size(), want.series.size());
  for (std::size_t i = 0; i < want.series.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got.series[i].round, want.series[i].round);
    EXPECT_EQ(got.series[i].sim_seconds, want.series[i].sim_seconds);
    EXPECT_EQ(got.series[i].test_accuracy, want.series[i].test_accuracy);
    EXPECT_EQ(got.series[i].test_loss, want.series[i].test_loss);
    EXPECT_EQ(got.series[i].train_loss, want.series[i].train_loss);
    EXPECT_EQ(got.series[i].avg_bytes_per_node,
              want.series[i].avg_bytes_per_node);
    EXPECT_EQ(got.series[i].avg_metadata_bytes_per_node,
              want.series[i].avg_metadata_bytes_per_node);
  }
  EXPECT_EQ(got.total_traffic.messages_sent, want.total_traffic.messages_sent);
  EXPECT_EQ(got.total_traffic.bytes_sent, want.total_traffic.bytes_sent);
  EXPECT_EQ(got.total_traffic.payload_bytes_sent,
            want.total_traffic.payload_bytes_sent);
  EXPECT_EQ(got.total_traffic.metadata_bytes_sent,
            want.total_traffic.metadata_bytes_sent);
  EXPECT_EQ(got.rounds_run, want.rounds_run);
  EXPECT_EQ(got.final_accuracy, want.final_accuracy);
  EXPECT_EQ(got.final_loss, want.final_loss);
  EXPECT_EQ(got.mean_alpha, want.mean_alpha);
  EXPECT_EQ(got.sim_seconds, want.sim_seconds);
}

RawScenario load_preset(const std::string& preset) {
  return load_scenario_file(std::string(JWINS_SOURCE_DIR) + "/scenarios/" +
                            preset + ".scenario");
}

class ScenarioGolden : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(ScenarioGolden, PresetMatchesBench) {
  const GoldenRow& row = GetParam();
  // Scenario path: the checked-in preset, scaled down via overrides (what
  // `jwins_run scenarios/<preset>.scenario --set ...` does).
  RawScenario raw = load_preset(row.preset);
  set_value(raw, "nodes", std::to_string(kGoldenNodes));
  set_value(raw, "rounds", std::to_string(kGoldenRounds));
  set_value(raw, "threads", "1");
  for (const auto& [key, value] : row.overrides) set_value(raw, key, value);
  const auto runs = expand_grid(raw);
  const auto cell =
      std::find_if(runs.begin(), runs.end(),
                   [&](const ScenarioRun& r) { return r.label == row.label; });
  ASSERT_NE(cell, runs.end()) << row.preset << " has no cell " << row.label;
  const sim::ExperimentResult result = execute(*cell);
  EXPECT_EQ(testutil::check_report(result, cell->config, cell->nodes), "");
  expect_bit_identical(result, row.hand_wired());
}

const Fig8Variant kNoWavelet{false, true, true};
const Fig8Variant kNoAccumulation{true, false, true};
const Fig8Variant kNoRandomCutoff{true, true, false};

INSTANTIATE_TEST_SUITE_P(
    Figures, ScenarioGolden,
    ::testing::Values(
        GoldenRow{"fig5_random_sampling",
                  "fig5_convergence",
                  {{"workload", "celeba"},
                   {"eval_every", "2"},
                   {"eval_sample_limit", "64"},
                   {"eval_node_limit", "4"}},
                  "algorithm=random-sampling",
                  fig5_bench},
        GoldenRow{"fig6_20_jwins", "fig6_choco_20", {}, "algorithm=jwins",
                  [] { return fig6_bench(sim::Algorithm::kJwins, kFig6Budget20); }},
        GoldenRow{"fig6_20_choco", "fig6_choco_20", {}, "algorithm=choco",
                  [] { return fig6_bench(sim::Algorithm::kChoco, kFig6Budget20); }},
        GoldenRow{"fig6_10_jwins", "fig6_choco_10", {}, "algorithm=jwins",
                  [] { return fig6_bench(sim::Algorithm::kJwins, kFig6Budget10); }},
        GoldenRow{"fig6_10_choco", "fig6_choco_10", {}, "algorithm=choco",
                  [] { return fig6_bench(sim::Algorithm::kChoco, kFig6Budget10); }},
        GoldenRow{"fig8_no_wavelet", "fig8_ablation", {},
                  "jwins_cutoff=paper,jwins_use_wavelet=false,"
                  "jwins_use_accumulation=true,seed=2",
                  [] { return fig8_bench(kNoWavelet, false, 2); }},
        GoldenRow{"fig8_no_accumulation", "fig8_ablation", {},
                  "jwins_cutoff=two-point:0.10:0.10,jwins_use_wavelet=true,"
                  "jwins_use_accumulation=false,seed=3",
                  [] { return fig8_bench(kNoAccumulation, true, 3); }},
        GoldenRow{"fig8_fixed_paper", "fig8_ablation", {},
                  "jwins_cutoff=fixed:0.34285714285714286,"
                  "jwins_use_wavelet=true,jwins_use_accumulation=true,seed=1",
                  [] { return fig8_bench(kNoRandomCutoff, false, 1); }},
        GoldenRow{"fig8_fixed_20", "fig8_ablation", {},
                  "jwins_cutoff=fixed:0.19,jwins_use_wavelet=true,"
                  "jwins_use_accumulation=true,seed=1",
                  [] { return fig8_bench(kNoRandomCutoff, true, 1); }},
        GoldenRow{"fig9_raw", "fig9_metadata", {}, "index_encoding=raw",
                  [] { return fig9_bench(core::IndexEncoding::kRaw); }},
        GoldenRow{"fig9_elias_gamma", "fig9_metadata", {},
                  "index_encoding=elias-gamma",
                  [] { return fig9_bench(core::IndexEncoding::kEliasGamma); }},
        GoldenRow{"baselines_power_gossip", "baselines_powergossip", {},
                  "algorithm=power-gossip",
                  [] { return baselines_bench(sim::Algorithm::kPowerGossip); }}),
    [](const ::testing::TestParamInfo<GoldenRow>& info) {
      return std::string(info.param.name);
    });

// --- the shrunk preset cells ---------------------------------------------
//
// The event-engine, simulated-time and byzantine presets, shrunk with the
// same --set values the CLI uses for a quick run. Every cell must hold every
// result invariant (sim::check_result), emit its gated JSON block, and show
// the behaviour its preset exists for: a local-step spread under a budget,
// drops and crashes on flaky links, every robust rule engaging.

/// The text of the result-JSON block `"<name>": {...}` ("" when absent).
std::string json_block(const std::string& json, const std::string& name) {
  const std::size_t at = json.find("\n  \"" + name + "\": {");
  if (at == std::string::npos) return {};
  return json.substr(at, json.find("\n  }", at) - at);
}

void expect_keys(const std::string& block,
                 std::initializer_list<const char*> keys) {
  for (const char* key : keys) {
    // Appended piecewise: GCC 12's -Wrestrict misfires on "\"" + key.
    std::string quoted = "\"";
    quoted += key;
    quoted += "\": ";
    EXPECT_NE(block.find(quoted), std::string::npos) << "missing key " << key;
  }
}

void expect_sim_time(const sim::ExperimentResult& r, const std::string& json) {
  const std::string block = json_block(json, "sim_time");
  expect_keys(block, {"compute_seconds", "comm_seconds", "stragglers",
                      "crashed_node_rounds", "messages_dropped", "series"});
  // One {round, compute_seconds, comm_seconds} point per metric point.
  std::size_t points = 0;
  std::istringstream lines(block);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("{\"round\": ") == std::string::npos) continue;
    ++points;
    EXPECT_NE(line.find(", \"compute_seconds\": "), std::string::npos);
    EXPECT_NE(line.find(", \"comm_seconds\": "), std::string::npos);
  }
  EXPECT_EQ(points, r.series.size());
  EXPECT_GT(r.sim_time.compute_seconds, 0.0);
  EXPECT_GT(r.sim_time.comm_seconds, 0.0);
}

void expect_event_engine(const sim::ExperimentResult& r,
                         const std::string& json) {
  const std::string block = json_block(json, "event_engine");
  expect_keys(block, {"async_mode", "events_processed", "max_queue_depth",
                      "messages_delivered", "messages_in_flight",
                      "messages_stale_dropped", "staleness_overrides",
                      "staleness_histogram", "edge_records_high_water",
                      "local_steps"});
  EXPECT_NE(block.find("\"local_steps\": {\"min\": "), std::string::npos);
  expect_keys(block, {"max", "mean"});
  EXPECT_GT(r.event_engine.events_processed, 0u);
}

/// free/weighted: the per-mode block, and edge records retired from a peak.
void expect_gate_free(sim::AsyncMode mode, const sim::ExperimentResult& r,
                      const std::string& json) {
  expect_event_engine(r, json);
  expect_keys(json_block(json, "event_engine"),
              {"effective_neighbors", "mean_contribution_age"});
  EXPECT_EQ(r.event_engine.mode, mode);
  EXPECT_GT(r.event_engine.edge_records_high_water, 0u);
}

void expect_attacked(const ScenarioRun& run, const sim::ExperimentResult& r,
                     const std::string& json) {
  expect_keys(json_block(json, "byzantine"),
              {"mode", "robust_agg", "attackers", "corrupted_messages",
               "trimmed_entries", "clipped_contributions"});
  EXPECT_EQ(run.config.byzantine_mode, algo::ByzantineMode::kSignFlip);
  EXPECT_GT(r.byzantine.corrupted_messages, 0u);
}

using CellExpectation = std::function<void(
    const ScenarioRun&, const sim::ExperimentResult&, const std::string&)>;

struct PresetRow {
  const char* name;
  const char* preset;  ///< scenarios/<preset>.scenario
  std::vector<std::pair<const char*, const char*>> overrides;  ///< --set
  std::size_t runs;  ///< grid cells of the shrunk preset
  CellExpectation expect;
};

void PrintTo(const PresetRow& row, std::ostream* os) { *os << row.name; }

class PresetInvariants : public ::testing::TestWithParam<PresetRow> {};

TEST_P(PresetInvariants, ShrunkCellsHoldTheirExpectations) {
  const PresetRow& row = GetParam();
  RawScenario raw = load_preset(row.preset);
  for (const auto& [key, value] : row.overrides) set_value(raw, key, value);
  const std::vector<ScenarioRun> runs = expand_grid(raw);
  ASSERT_EQ(runs.size(), row.runs);
  for (const ScenarioRun& run : runs) {
    SCOPED_TRACE(run.label);
    const sim::ExperimentResult result = execute(run);
    EXPECT_EQ(testutil::check_report(result, run.config, run.nodes), "");
    std::ostringstream json;
    sim::write_result_json(json, run.label, result);
    row.expect(run, result, json.str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, PresetInvariants,
    ::testing::Values(
        PresetRow{"straggler_hetero",
                  "straggler_hetero",
                  {{"rounds", "4"}, {"eval_every", "2"},
                   {"eval_sample_limit", "16"}},
                  2,
                  [](const ScenarioRun&, const sim::ExperimentResult& r,
                     const std::string& json) { expect_sim_time(r, json); }},
        PresetRow{"flaky_links_drop_and_crash",
                  "flaky_links",
                  {{"rounds", "6"}, {"eval_every", "2"},
                   {"eval_sample_limit", "16"}, {"crash_at", "1"},
                   {"rejoin_at", "4"}},
                  2,
                  [](const ScenarioRun&, const sim::ExperimentResult& r,
                     const std::string& json) {
                    expect_sim_time(r, json);
                    EXPECT_GT(r.sim_time.dropped_total, 0u);
                    EXPECT_GT(r.sim_time.crashed_node_rounds, 0u);
                  }},
        PresetRow{"async_gossip",
                  "async_gossip",
                  {{"rounds", "8"}, {"eval_every", "4"},
                   {"eval_sample_limit", "16"}},
                  2,
                  [](const ScenarioRun&, const sim::ExperimentResult& r,
                     const std::string& json) { expect_event_engine(r, json); }},
        PresetRow{"async_stale_local_step_spread",
                  "async_stale",
                  {{"rounds", "16"}, {"eval_every", "8"},
                   {"eval_sample_limit", "16"}, {"stop_at_sim_time", "2"}},
                  1,
                  [](const ScenarioRun&, const sim::ExperimentResult& r,
                     const std::string& json) {
                    expect_event_engine(r, json);
                    const sim::EventEngineStats& ee = r.event_engine;
                    EXPECT_LT(ee.local_steps_min(), ee.local_steps_max());
                    EXPECT_GT(std::accumulate(ee.staleness_histogram.begin(),
                                              ee.staleness_histogram.end(),
                                              std::uint64_t{0}),
                              0u);
                  }},
        PresetRow{"async_free",
                  "async_free",
                  {{"rounds", "8"}, {"eval_every", "4"},
                   {"eval_sample_limit", "16"}, {"stop_at_sim_time", "1"}},
                  2,
                  [](const ScenarioRun&, const sim::ExperimentResult& r,
                     const std::string& json) {
                    expect_gate_free(sim::AsyncMode::kFree, r, json);
                  }},
        PresetRow{"async_weighted",
                  "async_weighted",
                  {{"rounds", "8"}, {"eval_every", "4"},
                   {"eval_sample_limit", "16"}, {"stop_at_sim_time", "1"}},
                  2,
                  [](const ScenarioRun&, const sim::ExperimentResult& r,
                     const std::string& json) {
                    expect_gate_free(sim::AsyncMode::kWeighted, r, json);
                  }},
        // 2 algorithms x byzantine_nodes in {0, 1, 2}; the benign arms keep
        // the legacy report shape (check_result's byzantine.extended rule).
        PresetRow{"byzantine_signflip",
                  "byzantine_signflip",
                  {{"rounds", "6"}, {"eval_every", "3"},
                   {"eval_sample_limit", "16"}},
                  6,
                  [](const ScenarioRun& run, const sim::ExperimentResult& r,
                     const std::string& json) {
                    EXPECT_EQ(run.config.robust_agg.kind,
                              core::RobustAggKind::kNone);
                    if (run.config.byzantine_nodes == 0) {
                      EXPECT_EQ(json_block(json, "byzantine"), "");
                    } else {
                      expect_attacked(run, r, json);
                    }
                  }},
        // 2 algorithms x robust_agg over none / trimmed_mean / median /
        // norm_clip against 2 sign-flip attackers: all four rules engage.
        PresetRow{"byzantine_robust_all_rules_engage",
                  "byzantine_robust",
                  {{"rounds", "6"}, {"eval_every", "3"},
                   {"eval_sample_limit", "16"}},
                  8,
                  [](const ScenarioRun& run, const sim::ExperimentResult& r,
                     const std::string& json) {
                    expect_attacked(run, r, json);
                    EXPECT_EQ(r.byzantine.attackers.size(), 2u);
                    switch (run.config.robust_agg.kind) {
                      case core::RobustAggKind::kNone:
                        break;  // zero counters: a check_result identity
                      case core::RobustAggKind::kTrimmedMean:
                      case core::RobustAggKind::kMedian:
                        EXPECT_GT(r.byzantine.trimmed_entries, 0u);
                        break;
                      case core::RobustAggKind::kNormClip:
                        EXPECT_GT(r.byzantine.clipped_contributions, 0u);
                        break;
                    }
                  }},
        // One ring round sends exactly two messages per node. The CLI runs
        // this preset at its full 100k nodes; here the ring is smaller so
        // the sanitizer builds stay quick, yet large enough that the compact
        // store's slab spans several chunks (the scale model's 58 floats
        // per node fill a 256 Ki-float chunk every 4519 nodes).
        PresetRow{"scale_100k_ring_round",
                  "scale_100k",
                  {{"rounds", "1"}, {"nodes", "10000"}},
                  1,
                  [](const ScenarioRun& run, const sim::ExperimentResult& r,
                     const std::string&) {
                    EXPECT_EQ(r.total_traffic.messages_sent, 2 * run.nodes);
                    EXPECT_TRUE(std::isfinite(r.final_loss));
                    EXPECT_GT(r.final_loss, 0.0);
                  }}),
    [](const ::testing::TestParamInfo<PresetRow>& info) {
      return std::string(info.param.name);
    });

// The "without random cut-off" arms pin alpha to the base distribution's
// expected value; the preset spells it as a decimal literal, which must
// parse to exactly what the bench computed.
TEST(ScenarioPresets, Fig8FixedCutoffsAreTheExactExpectedAlphas) {
  std::vector<double> fixed_alphas;
  for (const ScenarioRun& run : expand_grid(load_preset("fig8_ablation"))) {
    const auto& alphas = run.config.jwins.cutoff.alphas();
    if (alphas.size() == 1 &&
        std::find(fixed_alphas.begin(), fixed_alphas.end(), alphas[0]) ==
            fixed_alphas.end()) {
      fixed_alphas.push_back(alphas[0]);
    }
  }
  ASSERT_EQ(fixed_alphas.size(), 2u);
  EXPECT_EQ(fixed_alphas[0],
            core::RandomizedCutoff::paper_default().expected_alpha());
  EXPECT_EQ(fixed_alphas[1],
            core::RandomizedCutoff::two_point(0.10, 0.10).expected_alpha());
}

}  // namespace
}  // namespace jwins::config
