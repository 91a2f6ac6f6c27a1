// Digest pins on the selection step. Each row is a shrunk cell of a
// benchmark workload whose selections are full of near ties: JWINS top-k
// over accumulator scores that are mostly exact zeros, CHOCO top-k over
// model diffs, and random sampling's seed-mode draws, which every receiver
// re-draws. The pin is a digest of every node's final model bytes, so a
// change to which index a selection keeps (the tie rule, the threshold, the
// draw order) that moves a model fails here in tier-1 instead of only in
// the benchmark's pinned outputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <memory>
#include <string>
#include <vector>

#include "config/runner.hpp"
#include "config/scenario.hpp"
#include "sim/experiment.hpp"
#include "sim/workloads.hpp"
#include "test_util.hpp"

namespace jwins {
namespace {

struct PinRow {
  const char* name;
  const char* scenario;
  std::uint64_t digest;
};

const PinRow kPins[] = {
    // movielens192_jwins at 32 nodes and 10 rounds: the k-th score is often
    // one of many exact zeros, so the tie rule decides which coefficients
    // are sent. (A 16-node, 6-round cell came out the same under a reversed
    // tie rule.)
    {"movielens_jwins",
     "workload = movielens\nalgorithm = jwins\nnodes = 32\n"
     "topology = regular\ntopology_degree = 5\nrounds = 10\nseed = 1\n"
     "eval_every = 10\neval_node_limit = 4\nthreads = 1\n",
     0x7dfb191da2aba4a3ull},
    // movielens192_choco_async at 16 nodes: top-k 10 % of raw diffs on the
    // event engine.
    {"movielens_choco_async",
     "workload = movielens\nalgorithm = choco\nchoco_fraction = 0.10\n"
     "choco_gamma = 0.1\nnodes = 16\ntopology = regular\nrounds = 6\n"
     "seed = 13\nengine = async\nasync_mode = free\n"
     "bandwidth_dist = lognormal:100:0.75\nlatency_dist = uniform:2:40\n"
     "straggler_fraction = 0.3\nstraggler_slowdown = 4\nthreads = 1\n",
     0xdaf88d44281fb479ull},
    // scale100k_compact on a 2000-node ring: 21 of 58 parameters per
    // message, drawn from the seed by the sender and both receivers.
    {"scale_compact_ring",
     "workload = scale\nalgorithm = random-sampling\nnodes = 2000\n"
     "topology = ring\nrounds = 2\nseed = 7\nnode_state = compact\n"
     "batch_sampler = counter\neval_every = 2\neval_sample = 64\n"
     "eval_sample_limit = 16\nthreads = 1\n",
     0xf8768b7fa495ac8dull},
};

TEST(SelectionPins, NearTieCellsKeepTheirFinalModels) {
  for (const PinRow& row : kPins) {
    const std::vector<config::ScenarioRun> runs =
        config::expand_grid(config::parse_scenario_text(row.scenario));
    ASSERT_EQ(runs.size(), 1u) << row.name;
    const config::ScenarioRun& run = runs.front();
    const sim::Workload workload = config::make_run_workload(run);
    const sim::ExperimentConfig cfg = config::resolve_config(run, workload);
    sim::Experiment exp(cfg, workload.model_factory, *workload.train,
                        workload.partition, *workload.test,
                        config::make_run_topology(run));
    const sim::ExperimentResult result = exp.run();
    EXPECT_EQ(testutil::check_report(result, cfg, run.nodes), "") << row.name;
    const std::uint64_t digest = testutil::model_digest(exp, run.nodes);
    EXPECT_EQ(digest, row.digest)
        << row.name << ": 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace jwins
