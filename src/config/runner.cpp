#include "config/runner.hpp"

#include <random>

#include "net/thread_pool.hpp"

namespace jwins::config {

sim::Workload make_run_workload(const ScenarioRun& run) {
  const auto seed = static_cast<std::uint32_t>(run.config.seed);
  if (run.workload == "cifar4") {
    return sim::make_cifar_like_4shard(run.nodes, seed, run.scale);
  }
  return sim::make_workload(run.workload, run.nodes, seed, run.scale);
}

std::unique_ptr<graph::TopologyProvider> make_run_topology(
    const ScenarioRun& run) {
  const std::size_t degree = effective_degree(run);
  if (run.topology == "regular") {
    if (run.churn_every > 0) {
      return std::make_unique<graph::DynamicRegularTopology>(
          run.nodes, degree, run.config.seed, run.churn_every);
    }
    // The reference construction of a static random-regular graph: the
    // hand-wired configs of the golden tests (tests/test_config.cpp) build
    // the same one, so scenario and hand-wired runs agree bit for bit.
    std::mt19937 rng(static_cast<unsigned>(run.config.seed));
    return std::make_unique<graph::StaticTopology>(
        graph::random_regular(run.nodes, degree, rng));
  }
  if (run.topology == "ring") {
    return std::make_unique<graph::StaticTopology>(
        graph::ring(run.nodes, degree / 2));
  }
  if (run.topology == "torus") {
    const std::size_t rows = torus_rows(run.nodes);
    return std::make_unique<graph::StaticTopology>(
        graph::torus(rows, run.nodes / rows));
  }
  return std::make_unique<graph::StaticTopology>(graph::complete(run.nodes));
}

sim::ExperimentConfig resolve_config(const ScenarioRun& run,
                                     const sim::Workload& workload) {
  sim::ExperimentConfig config = run.config;
  if (run.auto_learning_rate) config.sgd.learning_rate = workload.suggested_lr;
  if (run.auto_local_steps) config.local_steps = workload.suggested_local_steps;
  if (config.threads == 0) {
    config.threads = net::ThreadPool::default_thread_count();
  }
  return config;
}

sim::ExperimentResult execute(const ScenarioRun& run) {
  const sim::Workload workload = make_run_workload(run);
  sim::Experiment experiment(resolve_config(run, workload),
                             workload.model_factory, *workload.train,
                             workload.partition, *workload.test,
                             make_run_topology(run));
  return experiment.run();
}

}  // namespace jwins::config
