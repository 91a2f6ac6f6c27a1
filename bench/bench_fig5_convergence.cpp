// Figure 5: bytes/rounds to reach random sampling's converged accuracy.
//
// Protocol: run random sampling long, take its best accuracy as the target;
// then run JWINS and full-sharing with target-accuracy stopping. Paper
// shape: JWINS reaches the target in far fewer rounds than random sampling
// (annotated "-N rounds" in the figure) and pushes 1.5-4x less data.
//
// All experiment wiring comes from scenarios/fig5_convergence.scenario
// (override with --scenario=PATH); only the two-stage protocol — the
// derived target accuracy — lives here.

#include <algorithm>
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace jwins;
  const bench::Flags flags(argc, argv);

  config::RawScenario raw =
      bench::load_preset(flags, "fig5_convergence.scenario");
  bench::override_if(flags, raw, "nodes", "nodes");
  bench::override_if(flags, raw, "long-rounds", "rounds");
  bench::override_if(flags, raw, "seed", "seed");
  bench::override_if(flags, raw, "threads", "threads");
  bench::override_if(flags, raw, "dataset", "workload");

  const std::vector<config::ScenarioRun> runs = bench::expand_preset(raw);
  auto find_run = [&](const std::string& workload, sim::Algorithm algorithm) {
    for (const config::ScenarioRun& r : runs) {
      if (r.workload == workload && r.config.algorithm == algorithm) return r;
    }
    // Reachable via --scenario files that drop an algorithm from the sweep.
    std::cerr << "error: algorithm: the scenario grid has no "
              << sim::algorithm_name(algorithm) << " cell for workload "
              << workload << " (this bench needs all three)\n";
    std::exit(2);
  };
  // Dataset order = first appearance in the expanded grid.
  std::vector<std::string> datasets;
  for (const config::ScenarioRun& r : runs) {
    if (std::find(datasets.begin(), datasets.end(), r.workload) ==
        datasets.end()) {
      datasets.push_back(r.workload);
    }
  }

  std::cout << "=== Figure 5: network cost to reach random sampling's "
               "accuracy ===\n\n";

  for (const std::string& name : datasets) {
    // Step 1: random sampling run long -> target accuracy.
    const auto rs =
        config::execute(find_run(name, sim::Algorithm::kRandomSampling));
    double best = 0.0;
    std::size_t best_round = rs.rounds_run;
    double rs_bytes_at_best = rs.series.back().avg_bytes_per_node;
    for (const auto& p : rs.series) {
      if (p.test_accuracy > best) {
        best = p.test_accuracy;
        best_round = p.round;
        rs_bytes_at_best = p.avg_bytes_per_node;
      }
    }
    const double target = best * 0.98;  // slight slack, as in "reaching the
                                        // identified target accuracy"

    // Step 2: JWINS and full-sharing until the target.
    auto run_to_target = [&](sim::Algorithm algorithm) {
      config::ScenarioRun run = find_run(name, algorithm);
      run.config.target_accuracy = target;
      return config::execute(run);
    };
    const auto jw = run_to_target(sim::Algorithm::kJwins);
    const auto full = run_to_target(sim::Algorithm::kFullSharing);

    std::cout << std::left << std::setw(12) << name << "target accuracy: "
              << std::fixed << std::setprecision(1) << target * 100.0 << "%\n";
    auto row = [&](const char* label, std::size_t rounds, double bytes,
                   bool reached) {
      std::cout << "  " << std::left << std::setw(18) << label
                << "rounds=" << std::setw(8) << rounds
                << "data/node=" << std::setw(12) << sim::format_bytes(bytes)
                << (reached ? "" : "  [target not reached in budget]") << "\n";
    };
    row("random sampling", best_round, rs_bytes_at_best, true);
    row("jwins", jw.rounds_run, jw.series.back().avg_bytes_per_node,
        jw.reached_target);
    row("full-sharing", full.rounds_run, full.series.back().avg_bytes_per_node,
        full.reached_target);
    if (jw.reached_target && best_round > jw.rounds_run) {
      std::cout << "  jwins saves " << (best_round - jw.rounds_run)
                << " rounds vs random sampling ("
                << std::setprecision(2)
                << static_cast<double>(best_round) /
                       static_cast<double>(jw.rounds_run)
                << "x fewer)\n";
    }
    std::cout << "\n";
  }
  std::cout << "paper shape check: jwins rounds << random-sampling rounds; "
               "jwins bytes < random-sampling bytes\n";
  return 0;
}
