// Result invariants (sim/check.hpp): real runs of both engines, in every
// aggregation mode, with and without faults and attacks, hold every
// identity; and editing one field of a valid result trips exactly the
// identity that field belongs to, with a diagnostic that names it.
#include "sim/check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <utility>

#include "config/scenario.hpp"
#include "config/sweep.hpp"
#include "graph/graph.hpp"
#include "test_util.hpp"

namespace jwins::sim {
namespace {

using testutil::QuadraticModel;
using tensor::Tensor;

constexpr std::size_t kNodes = 6;
constexpr std::size_t kDim = 16;

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.algorithm = Algorithm::kFullSharing;
  cfg.rounds = 8;
  cfg.local_steps = 1;
  cfg.sgd.learning_rate = 0.05f;
  cfg.eval_every = 2;
  cfg.eval_sample_limit = 4;
  cfg.seed = 5;
  return cfg;
}

/// Slow links and a straggling minority: arrivals straddle round
/// boundaries, so the event loop has stale, late and aged messages.
void add_heterogeneity(ExperimentConfig& cfg) {
  cfg.time.latency_dist = {net::LinkDist::Kind::kUniform, 0.002, 0.040};
  cfg.time.straggler_fraction = 0.3;
  cfg.time.straggler_slowdown = 4.0;
}

void add_faults(ExperimentConfig& cfg) {
  cfg.time.edge_drop = {net::EdgeDropDist::Kind::kFixed, 0.2, 0.0};
  cfg.time.burst_every = 3;
  cfg.time.burst_drop = 0.5;
  cfg.time.crash_nodes = 1;
  cfg.time.crash_at = 2;
  cfg.time.rejoin_at = 5;
}

void add_attack(ExperimentConfig& cfg) {
  cfg.byzantine_nodes = 2;
  cfg.byzantine_mode = algo::ByzantineMode::kSignFlip;
  cfg.robust_agg.kind = core::RobustAggKind::kTrimmedMean;
  cfg.robust_agg.trim_fraction = 0.25;
}

ExperimentResult run(const ExperimentConfig& cfg) {
  data::Partition partition(kNodes, {0, 1, 2, 3});
  auto counter = std::make_shared<std::size_t>(0);
  nn::ModelFactory factory =
      [counter]() -> std::unique_ptr<nn::SupervisedModel> {
    const std::size_t r = (*counter)++;
    Tensor target({kDim});
    for (std::size_t i = 0; i < kDim; ++i) {
      target[i] = std::sin(0.3f * static_cast<float>((i + 1) * (r + 1)));
    }
    std::mt19937 init_rng(500 + static_cast<unsigned>(r));
    return std::make_unique<QuadraticModel>(
        target, Tensor::normal({kDim}, 0.0f, 1.0f, init_rng));
  };
  static testutil::DummyDataset dataset;
  std::mt19937 rng(7);
  Experiment exp(cfg, factory, dataset, partition, dataset,
                 std::make_unique<graph::StaticTopology>(
                     graph::random_regular(kNodes, 4, rng)));
  return exp.run();
}

struct Case {
  const char* name;
  std::function<void(ExperimentConfig&)> tweak;
};

const Case kRealRuns[] = {
    {"sync", [](ExperimentConfig&) {}},
    {"sync_faults", add_faults},
    {"sync_attack",
     [](ExperimentConfig& c) {
       add_attack(c);
       c.algorithm = Algorithm::kJwins;
     }},
    {"sync_budget",
     [](ExperimentConfig& c) {
       add_heterogeneity(c);
       c.stop_at_sim_time = 0.2;
     }},
    {"sync_target", [](ExperimentConfig& c) { c.target_accuracy = 0.1; }},
    {"barrier_faults",
     [](ExperimentConfig& c) {
       c.engine = EngineKind::kAsync;
       add_heterogeneity(c);
       add_faults(c);
     }},
    {"barrier_attack",
     [](ExperimentConfig& c) {
       c.engine = EngineKind::kAsync;
       add_attack(c);
       c.robust_agg.kind = core::RobustAggKind::kMedian;
     }},
    {"bounded_budget",
     [](ExperimentConfig& c) {
       c.engine = EngineKind::kAsync;
       c.staleness_bound = 2;
       add_heterogeneity(c);
       c.stop_at_sim_time = 0.2;
     }},
    {"bounded_faults",
     [](ExperimentConfig& c) {
       c.engine = EngineKind::kAsync;
       c.staleness_bound = 1;
       c.algorithm = Algorithm::kJwins;
       add_heterogeneity(c);
       add_faults(c);
     }},
    {"free_faults",
     [](ExperimentConfig& c) {
       c.engine = EngineKind::kAsync;
       c.async_mode = AsyncMode::kFree;
       add_heterogeneity(c);
       add_faults(c);
     }},
    {"free_target",
     [](ExperimentConfig& c) {
       c.engine = EngineKind::kAsync;
       c.async_mode = AsyncMode::kFree;
       c.target_accuracy = 0.1;
     }},
    {"weighted_attack",
     [](ExperimentConfig& c) {
       c.engine = EngineKind::kAsync;
       c.async_mode = AsyncMode::kWeighted;
       add_heterogeneity(c);
       add_attack(c);
       c.algorithm = Algorithm::kChoco;
       c.byzantine_mode = algo::ByzantineMode::kScale;
       c.byzantine_scale = -4.0;
       c.robust_agg.kind = core::RobustAggKind::kNormClip;
       c.robust_agg.clip_norm = 0.5;
     }},
    {"weighted_budget",
     [](ExperimentConfig& c) {
       c.engine = EngineKind::kAsync;
       c.async_mode = AsyncMode::kWeighted;
       add_heterogeneity(c);
       c.stop_at_sim_time = 0.15;
     }},
};

TEST(CheckResult, RealRunsHoldEveryInvariant) {
  for (const Case& c : kRealRuns) {
    SCOPED_TRACE(c.name);
    ExperimentConfig cfg = base_config();
    c.tweak(cfg);
    ASSERT_TRUE(cfg.validate(kNodes).empty());
    EXPECT_EQ(testutil::check_report(run(cfg), cfg, kNodes), "");
  }
}

// --- one edited field, one diagnostic ---------------------------------------

/// The valid runs the edits start from, run once each.
struct Base {
  ExperimentConfig config;
  ExperimentResult result;
};

const Base& base(const std::string& name) {
  static const std::map<std::string, Base> bases = [] {
    std::map<std::string, Base> out;
    const auto add = [&](const char* key,
                         const std::function<void(ExperimentConfig&)>& tweak) {
      ExperimentConfig cfg = base_config();
      tweak(cfg);
      out[key] = Base{cfg, run(cfg)};
    };
    add("sync", [](ExperimentConfig& c) { add_faults(c); });
    add("attack", add_attack);
    add("barrier", [](ExperimentConfig& c) {
      c.engine = EngineKind::kAsync;
      c.time.edge_drop = {net::EdgeDropDist::Kind::kFixed, 0.2, 0.0};
    });
    add("bounded", [](ExperimentConfig& c) {
      c.engine = EngineKind::kAsync;
      c.staleness_bound = 1;
      add_heterogeneity(c);
      c.compute_seconds_per_round = 0.005;  // links several rounds long
    });
    add("free", [](ExperimentConfig& c) {
      c.engine = EngineKind::kAsync;
      c.async_mode = AsyncMode::kFree;
      add_heterogeneity(c);
      c.compute_seconds_per_round = 0.005;
    });
    // A target stop cuts the queue: its arrivals end in flight.
    add("free_target", [](ExperimentConfig& c) {
      c.engine = EngineKind::kAsync;
      c.async_mode = AsyncMode::kFree;
      c.target_accuracy = 0.1;
    });
    return out;
  }();
  return bases.at(name);
}

std::size_t argmin(const std::vector<std::uint64_t>& v) {
  return static_cast<std::size_t>(std::min_element(v.begin(), v.end()) -
                                  v.begin());
}

struct Edit {
  const char* base;
  const char* field;  ///< the edited field, which the diagnostic must name
  std::function<void(ExperimentResult&, const ExperimentConfig&)> apply;
};

const Edit kEdits[] = {
    // The engine flag and the mode mirrors.
    {"sync", "event_engine.enabled",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.event_engine.enabled = true;
     }},
    {"free", "event_engine.mode",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.event_engine.mode = AsyncMode::kWeighted;
     }},
    {"attack", "byzantine.mode",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.byzantine.mode = algo::ByzantineMode::kRandom;
     }},
    {"attack", "byzantine.robust_agg",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.byzantine.robust_agg = core::RobustAggKind::kMedian;
     }},
    // Rounds, target and series.
    {"sync", "rounds_run",
     [](ExperimentResult& r, const ExperimentConfig& c) {
       r.rounds_run = c.rounds + 1;
     }},
    {"sync", "rounds_run",
     [](ExperimentResult& r, const ExperimentConfig& c) {
       r.rounds_run = c.rounds - 1;
     }},
    {"sync", "reached_target",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.reached_target = true;
     }},
    {"sync", "series",
     [](ExperimentResult& r, const ExperimentConfig&) { r.series.clear(); }},
    {"sync", "series",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.series[1].round = r.series[0].round;
     }},
    {"sync", "final_accuracy",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.final_accuracy += 0.25;
     }},
    {"sync", "final_loss",
     [](ExperimentResult& r, const ExperimentConfig&) { r.final_loss += 1.0; }},
    // The exact phase split of the event loop.
    {"free", "comm_seconds",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.sim_time.comm_seconds += 1.0;
     }},
    {"bounded", "comm_seconds",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.series.front().sim_comm_seconds += 1.0;
     }},
    // Message ledgers.
    {"sync", "dropped_edge",
     [](ExperimentResult& r, const ExperimentConfig&) {
       ++r.sim_time.dropped_edge;
     }},
    {"sync", "messages_in_flight",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.event_engine.messages_in_flight = 1;
     }},
    {"barrier", "messages_sent",
     [](ExperimentResult& r, const ExperimentConfig&) {
       ++r.total_traffic.messages_sent;
     }},
    {"free_target", "messages_sent",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.total_traffic.messages_sent = 0;
     }},
    {"free_target", "traffic.messages_sent",
     [](ExperimentResult& r, const ExperimentConfig&) {
       ++r.total_traffic.messages_sent;
     }},
    {"barrier", "staleness_histogram",
     [](ExperimentResult& r, const ExperimentConfig&) {
       ++r.event_engine.staleness_histogram[0];
     }},
    {"bounded", "messages_stale_dropped",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.event_engine.messages_stale_dropped +=
           r.event_engine.messages_delivered;
     }},
    {"bounded", "staleness_histogram",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.event_engine.staleness_histogram.push_back(0);
     }},
    {"barrier", "contributions_applied",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.event_engine.contributions_applied = 1;
     }},
    {"free", "staleness_overrides",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.event_engine.staleness_overrides = 1;
     }},
    {"free", "staleness_histogram",
     [](ExperimentResult& r, const ExperimentConfig&) {
       --r.event_engine.staleness_histogram[0];
     }},
    {"free", "effective_neighbors",
     [](ExperimentResult& r, const ExperimentConfig&) {
       // One sample moves up a bucket: same sample count, k-weighted +1.
       std::vector<std::uint64_t>& h = r.event_engine.effective_neighbors;
       const std::size_t k = static_cast<std::size_t>(
           std::find_if(h.begin(), h.end(),
                        [](std::uint64_t c) { return c > 0; }) -
           h.begin());
       --h[k];
       if (k + 1 == h.size()) h.push_back(0);
       ++h[k + 1];
     }},
    {"free", "contribution_age_sum",
     [](ExperimentResult& r, const ExperimentConfig&) {
       ++r.event_engine.contribution_age_sum;
     }},
    {"free", "effective_neighbors",
     [](ExperimentResult& r, const ExperimentConfig&) {
       const std::vector<std::uint64_t>& steps = r.event_engine.local_steps;
       r.event_engine.effective_neighbors[0] +=
           std::accumulate(steps.begin(), steps.end(), std::uint64_t{1});
     }},
    // Local steps.
    {"barrier", "local_steps",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.event_engine.local_steps.push_back(0);
     }},
    {"barrier", "local_steps",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.event_engine.local_steps[0] = r.rounds_run + 1;
     }},
    {"bounded", "local_steps",
     [](ExperimentResult& r, const ExperimentConfig&) {
       std::vector<std::uint64_t>& steps = r.event_engine.local_steps;
       --steps[argmin(steps)];
     }},
    {"bounded", "local_steps",
     [](ExperimentResult& r, const ExperimentConfig& c) {
       r.event_engine.local_steps[0] = c.rounds + 1;
     }},
    // Attack and defense accounting.
    {"attack", "attackers",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.byzantine.attackers.pop_back();
     }},
    {"attack", "attackers",
     [](ExperimentResult& r, const ExperimentConfig&) {
       std::swap(r.byzantine.attackers[0], r.byzantine.attackers[1]);
     }},
    {"attack", "attackers",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.byzantine.attackers.back() = kNodes;
     }},
    {"sync", "corrupted_messages",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.byzantine.corrupted_messages = 3;
     }},
    {"sync", "trimmed_entries",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.byzantine.trimmed_entries = 1;
     }},
    {"attack", "clipped_contributions",
     [](ExperimentResult& r, const ExperimentConfig&) {
       r.byzantine.clipped_contributions = 1;
     }},
};

TEST(CheckResult, BasesAreValidAndExerciseEveryLedger) {
  for (const char* name :
       {"sync", "attack", "barrier", "bounded", "free", "free_target"}) {
    const Base& b = base(name);
    EXPECT_EQ(testutil::check_report(b.result, b.config, kNodes), "") << name;
  }
  // The edits need these shapes to touch one identity only.
  EXPECT_GE(base("sync").result.series.size(), 2u);
  EXPECT_EQ(base("attack").result.byzantine.attackers.size(), 2u);
  EXPECT_GT(base("barrier").result.sim_time.dropped_total, 0u);
  const EventEngineStats& bounded = base("bounded").result.event_engine;
  EXPECT_EQ(bounded.local_steps_min(), bounded.local_steps_max());
  const EventEngineStats& free = base("free").result.event_engine;
  ASSERT_FALSE(free.staleness_histogram.empty());
  EXPECT_GT(free.staleness_histogram[0], 0u);
  EXPECT_GT(free.contribution_age_sum, 0u);
  const ExperimentResult& free_target = base("free_target").result;
  EXPECT_TRUE(free_target.reached_target);
  EXPECT_GT(free_target.event_engine.messages_delivered, 0u);
  EXPECT_GT(free_target.event_engine.messages_in_flight, 0u);
}

TEST(CheckResult, OneEditedFieldTripsOneNamedIdentity) {
  for (const Edit& edit : kEdits) {
    const Base& b = base(edit.base);
    ExperimentResult edited = b.result;
    edit.apply(edited, b.config);
    const std::vector<std::string> diagnostics =
        check_result(edited, b.config, kNodes);
    SCOPED_TRACE(std::string(edit.base) + " / " + edit.field + ": " +
                 testutil::check_report(edited, b.config, kNodes));
    ASSERT_EQ(diagnostics.size(), 1u);
    EXPECT_NE(diagnostics[0].find(edit.field), std::string::npos);
    EXPECT_NE(diagnostics[0].find(": "), std::string::npos);
  }
}

TEST(CheckResult, ReachedTargetNeedsTheTargetMet) {
  const Base& b = base("sync");
  ExperimentConfig cfg = b.config;
  cfg.target_accuracy = 0.999;  // configured, never reached
  EXPECT_EQ(testutil::check_report(b.result, cfg, kNodes), "");
  ExperimentResult edited = b.result;
  edited.reached_target = true;
  const std::vector<std::string> diagnostics =
      check_result(edited, cfg, kNodes);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rfind("reached_target: ", 0), 0u);
}

TEST(CheckResult, SweepChecksEveryExecutedRun) {
  config::RawScenario raw = config::load_scenario_file(
      std::string(JWINS_SOURCE_DIR) + "/scenarios/smoke.scenario");
  const auto runs = config::expand_grid(raw);
  config::SweepOptions options;
  options.write_files = false;
  std::ostringstream console;
  options.console = &console;
  const config::SweepOutcome outcome =
      config::run_sweep(runs, raw.name, options);
  EXPECT_EQ(outcome.executed, runs.size());
  EXPECT_EQ(outcome.violations, 0u);
  EXPECT_EQ(console.str().find("check: "), std::string::npos);
}

}  // namespace
}  // namespace jwins::sim
