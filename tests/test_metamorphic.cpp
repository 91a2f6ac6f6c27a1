// Exact metamorphic relations: pairs of scenario specs that differ in their
// text but must run the same experiment. Each row names a setting that is a
// no-op by definition (a zero drop probability, a slowdown of 1) and the
// spec without it; both must end on the same final-model bytes and write the
// same result JSON outside its host-timing block, on both engines and at
// threads 1 and 4.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "config/runner.hpp"
#include "config/scenario.hpp"
#include "sim/experiment.hpp"
#include "sim/workloads.hpp"
#include "test_util.hpp"

namespace jwins {
namespace {

struct RelationRow {
  const char* name;
  const char* with;     ///< spec lines holding the no-op setting
  const char* without;  ///< the same cell without it
};

// Without this gtest prints a row as its raw bytes: the addresses of its
// string literals, which move whenever any test file linked before this one
// changes, and which `gtest_discover_tests` copies into the ctest names.
void PrintTo(const RelationRow& row, std::ostream* os) { *os << row.name; }

// The 4-node JWINS cell of scenarios/smoke.scenario, run for 4 rounds.
constexpr const char* kBaseCell =
    "workload = femnist\nalgorithm = jwins\nnodes = 4\ntopology = regular\n"
    "rounds = 4\nseed = 5\neval_every = 1\neval_sample_limit = 16\n"
    "eval_node_limit = 2\n";

const RelationRow kRows[] = {
    {"edge_drop_fixed_zero", "edge_drop = fixed:0\n", "edge_drop = off\n"},
    {"straggler_slowdown_one",
     "straggler_fraction = 0.5\nstraggler_slowdown = 1\n", ""},
};

struct RunOutcome {
  std::uint64_t digest = 0;
  std::string json;
};

RunOutcome run_cell(const std::string& spec) {
  const std::vector<config::ScenarioRun> runs =
      config::expand_grid(config::parse_scenario_text(spec));
  EXPECT_EQ(runs.size(), 1u);
  const config::ScenarioRun& run = runs.front();
  const sim::Workload workload = config::make_run_workload(run);
  const sim::ExperimentConfig cfg = config::resolve_config(run, workload);
  sim::Experiment exp(cfg, workload.model_factory, *workload.train,
                      workload.partition, *workload.test,
                      config::make_run_topology(run));
  const sim::ExperimentResult result = exp.run();
  EXPECT_EQ(testutil::check_report(result, cfg, run.nodes), "") << spec;
  return {testutil::model_digest(exp, run.nodes),
          testutil::deterministic_json(result, "cell")};
}

class ExactRelation : public ::testing::TestWithParam<RelationRow> {};

TEST_P(ExactRelation, SameModelAndResult) {
  const RelationRow& row = GetParam();
  for (const char* engine : {"sync", "async"}) {
    for (const char* threads : {"1", "4"}) {
      const std::string cell = std::string(kBaseCell) + "engine = " + engine +
                               "\nthreads = " + threads + "\n";
      const RunOutcome with = run_cell(cell + row.with);
      const RunOutcome without = run_cell(cell + row.without);
      const std::string where =
          std::string("engine = ") + engine + ", threads = " + threads;
      EXPECT_EQ(with.digest, without.digest) << where;
      EXPECT_EQ(with.json, without.json) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Metamorphic, ExactRelation, ::testing::ValuesIn(kRows),
    [](const ::testing::TestParamInfo<RelationRow>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace jwins
