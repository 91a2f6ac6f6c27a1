// Figures 5 and 10: bytes/rounds to reach random sampling's converged
// accuracy.
//
// Protocol: per (workload, nodes) group, run random sampling long and take
// 0.98 x its best accuracy as the target; then run JWINS (and full-sharing,
// when the grid has it) with target-accuracy stopping. Fig. 5's paper
// shape: JWINS reaches the target in far fewer rounds than random sampling
// (annotated "-N rounds" in the figure) and pushes 1.5-4x less data.
// Fig. 10 (--scenario=scenarios/fig10_scalability.scenario) sweeps the node
// count: the gross bytes JWINS saves over random sampling grow with it.
//
// All experiment wiring comes from scenarios/fig5_convergence.scenario
// (override with --scenario=PATH); only the two-stage protocol — the
// derived target accuracy — lives here.

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <utility>

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
  using Group = std::pair<std::string, std::size_t>;  // (workload, nodes)
  auto find_run = [&](const Group& group,
                      sim::Algorithm algorithm) -> const config::ScenarioRun* {
    for (const config::ScenarioRun& r : runs) {
      if (r.workload == group.first && r.nodes == group.second &&
          r.config.algorithm == algorithm) {
        return &r;
      }
    }
    return nullptr;
  };
  auto need_run = [&](const Group& group, sim::Algorithm algorithm) {
    if (const config::ScenarioRun* r = find_run(group, algorithm)) return *r;
    // Reachable via --scenario files that drop an algorithm from the sweep.
    std::cerr << "error: algorithm: the scenario grid has no "
              << sim::algorithm_name(algorithm) << " cell for workload "
              << group.first << " at " << group.second
              << " nodes (this bench needs random-sampling and jwins)\n";
    std::exit(2);
  };
  // Group order = first appearance in the expanded grid.
  std::vector<Group> groups;
  for (const config::ScenarioRun& r : runs) {
    const Group group{r.workload, r.nodes};
    if (std::find(groups.begin(), groups.end(), group) == groups.end()) {
      groups.push_back(group);
    }
  }

  std::cout << "=== " << raw.name
            << ": network cost to reach random sampling's accuracy ===\n\n";

  // Fig. 10's shape check compares each group with the one before it, when
  // both are the same workload at another node count.
  const Group* previous = nullptr;
  double previous_savings = 0.0;
  bool compared_scales = false;
  bool savings_grow = true;
  for (const Group& group : groups) {
    const auto& [name, nodes] = group;
    // Step 1: random sampling run long -> target accuracy.
    const auto rs =
        config::execute(need_run(group, sim::Algorithm::kRandomSampling));
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
    // Where a target-stopped rerun would stop: the stop does not change the
    // trajectory, so the long run's series already holds it.
    const sim::MetricPoint& rs_at_target = *std::find_if(
        rs.series.begin(), rs.series.end(),
        [&](const sim::MetricPoint& p) { return p.test_accuracy >= target; });

    // Step 2: JWINS and full-sharing until the target.
    auto run_to_target = [&](config::ScenarioRun run) {
      run.config.target_accuracy = target;
      return config::execute(run);
    };
    const auto jw = run_to_target(need_run(group, sim::Algorithm::kJwins));

    std::cout << std::left << std::setw(12) << name << nodes
              << " nodes, target accuracy: " << std::fixed
              << std::setprecision(1) << target * 100.0 << "%\n";
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
    if (const config::ScenarioRun* fs =
            find_run(group, sim::Algorithm::kFullSharing)) {
      const auto full = run_to_target(*fs);
      row("full-sharing", full.rounds_run,
          full.series.back().avg_bytes_per_node, full.reached_target);
    }
    if (jw.reached_target && best_round > jw.rounds_run) {
      std::cout << "  jwins saves " << (best_round - jw.rounds_run)
                << " rounds vs random sampling ("
                << std::setprecision(2)
                << static_cast<double>(best_round) /
                       static_cast<double>(jw.rounds_run)
                << "x fewer)\n";
    }
    // Fig. 10's gross bytes: all nodes together, until the target.
    const double rs_gross =
        rs_at_target.avg_bytes_per_node * static_cast<double>(nodes);
    const double jw_gross =
        jw.series.back().avg_bytes_per_node * static_cast<double>(nodes);
    const double savings = rs_gross - jw_gross;
    std::cout << "  gross to target: random sampling "
              << sim::format_bytes(rs_gross) << " in " << rs_at_target.round
              << " rounds, jwins " << sim::format_bytes(jw_gross) << " in "
              << jw.rounds_run << " rounds (saves "
              << sim::format_bytes(savings) << ")\n\n";
    if (previous != nullptr && previous->first == name) {
      compared_scales = true;
      if (savings < previous_savings) savings_grow = false;
    }
    previous = &group;
    previous_savings = savings;
  }
  std::cout << "paper shape check: jwins rounds << random-sampling rounds; "
               "jwins bytes < random-sampling bytes\n";
  if (compared_scales) {
    std::cout << "paper shape check (Fig. 10): gross savings grow with node "
                 "count ("
              << (savings_grow ? "holds" : "violated") << ")\n";
  }
  return 0;
}
