// Figure 7: dynamically changing topology.
//
// Randomizing neighbors each round improves mixing for both full-sharing and
// JWINS; JWINS on a dynamic topology can even beat static full-sharing.
// (CHOCO's error-feedback state cannot follow a changing topology, which is
// why the paper leaves it off this chart.)
//
// Experiment wiring comes from scenarios/fig7_dynamic.scenario (override
// with --scenario=PATH): a 2x2 grid of algorithm x churn_every, of which
// the figure charts three cells.

#include <iomanip>
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace jwins;
  const bench::Flags flags(argc, argv);

  config::RawScenario raw = bench::load_preset(flags, "fig7_dynamic.scenario");
  bench::override_if(flags, raw, "nodes", "nodes");
  bench::override_if(flags, raw, "rounds", "rounds");
  bench::override_if(flags, raw, "seed", "seed");
  bench::override_if(flags, raw, "threads", "threads");

  const std::vector<config::ScenarioRun> runs = bench::expand_preset(raw);
  auto run = [&](sim::Algorithm algorithm, bool dynamic) {
    for (const config::ScenarioRun& r : runs) {
      if (r.config.algorithm == algorithm && (r.churn_every > 0) == dynamic) {
        return config::execute(r);
      }
    }
    std::cerr << "error: algorithm: the scenario grid has no "
              << sim::algorithm_name(algorithm) << "/"
              << (dynamic ? "dynamic" : "static")
              << " cell (this bench charts full-sharing x {static,dynamic} "
                 "and jwins/dynamic)\n";
    std::exit(2);
  };

  std::cout << "=== Figure 7: static vs dynamic topology ===\n\n";
  const auto full_static = run(sim::Algorithm::kFullSharing, false);
  const auto full_dynamic = run(sim::Algorithm::kFullSharing, true);
  const auto jwins_dynamic = run(sim::Algorithm::kJwins, true);

  auto row = [](const char* label, const sim::ExperimentResult& r) {
    std::cout << "  " << std::left << std::setw(24) << label
              << "acc=" << std::fixed << std::setprecision(1)
              << r.final_accuracy * 100.0 << "%  loss=" << std::setprecision(3)
              << r.final_loss << "\n";
  };
  row("full-sharing static", full_static);
  row("full-sharing dynamic", full_dynamic);
  row("jwins dynamic", jwins_dynamic);
  std::cout << "\n";
  sim::print_series_csv(std::cout, "full-sharing-static", full_static);
  sim::print_series_csv(std::cout, "full-sharing-dynamic", full_dynamic);
  sim::print_series_csv(std::cout, "jwins-dynamic", jwins_dynamic);
  std::cout << "\npaper shape check: dynamic >= static for full-sharing; "
               "jwins-dynamic competitive with full-sharing-static\n";
  return 0;
}
