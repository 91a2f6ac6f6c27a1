// Baseline cross-check the paper asserts but does not chart: "POWERGOSSIP is
// another strong communication-efficient algorithm for DL, but it performs
// as good as tuned CHOCO in their experiments. Hence, we only compare
// against CHOCO." (§IV-B c)
//
// Tuned CHOCO, PowerGossip and JWINS on the CIFAR-10 stand-in, reporting
// accuracy and bytes, so the "PowerGossip ~= tuned CHOCO" premise — and
// JWINS' advantage over both — can be inspected directly.
//
// Experiment wiring comes from scenarios/baselines_powergossip.scenario
// (override with --scenario=PATH); only the equal-bytes protocol — the
// PowerGossip round count — lives here.

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace jwins;
  const bench::Flags flags(argc, argv);

  config::RawScenario raw =
      bench::load_preset(flags, "baselines_powergossip.scenario");
  bench::override_if(flags, raw, "nodes", "nodes");
  bench::override_if(flags, raw, "rounds", "rounds");
  bench::override_if(flags, raw, "seed", "seed");
  bench::override_if(flags, raw, "threads", "threads");

  const std::vector<config::ScenarioRun> runs = bench::expand_preset(raw);
  auto find_run = [&](sim::Algorithm algorithm) {
    for (const config::ScenarioRun& r : runs) {
      if (r.config.algorithm == algorithm) return r;
    }
    std::cerr << "error: algorithm: the scenario grid has no "
              << sim::algorithm_name(algorithm)
              << " cell (this bench needs choco, power-gossip and jwins)\n";
    std::exit(2);
  };
  auto run_for = [&](sim::Algorithm algorithm, std::size_t rounds) {
    config::ScenarioRun run = find_run(algorithm);
    run.config.rounds = rounds;
    return config::execute(run);
  };

  std::cout << "=== Baselines: tuned CHOCO vs PowerGossip vs JWINS ===\n\n";

  // Equal-BYTE comparison (the paper's budget framing): PowerGossip ships
  // O(sqrt(d)) floats per round, so it gets proportionally more rounds to
  // spend the same byte budget as tuned CHOCO.
  const auto choco = config::execute(find_run(sim::Algorithm::kChoco));
  const auto pg_probe = run_for(sim::Algorithm::kPowerGossip, 10);
  const double pg_bytes_per_round =
      pg_probe.series.back().avg_bytes_per_node / 10.0;
  const double choco_bytes = choco.series.back().avg_bytes_per_node;
  const std::size_t pg_rounds = std::max<std::size_t>(
      choco.rounds_run, static_cast<std::size_t>(choco_bytes / pg_bytes_per_round));
  const auto pg = run_for(sim::Algorithm::kPowerGossip, pg_rounds);
  const auto jw = config::execute(find_run(sim::Algorithm::kJwins));

  auto print = [&](const char* label, const sim::ExperimentResult& r) {
    std::cout << "  " << std::left << std::setw(26) << label
              << "rounds=" << std::setw(6) << r.rounds_run
              << "acc=" << std::fixed << std::setprecision(1)
              << r.final_accuracy * 100.0 << "%  loss=" << std::setprecision(3)
              << r.final_loss << "  data/node="
              << sim::format_bytes(r.series.back().avg_bytes_per_node)
              << "  sim-time=" << sim::format_seconds(r.sim_seconds) << "\n";
  };
  print("choco (tuned, 20%)", choco);
  print("power-gossip (eq-bytes)", pg);
  print("jwins (20% budget)", jw);
  std::cout << "\npaper premise check: |power-gossip - choco| accuracy gap "
               "at equal bytes = "
            << std::fixed << std::setprecision(1)
            << std::abs(pg.final_accuracy - choco.final_accuracy) * 100.0
            << " pp (the paper treats them as roughly equivalent baselines; "
               "both keep per-neighbor state and assume static topologies), "
               "and JWINS beats both.\n";
  return 0;
}
