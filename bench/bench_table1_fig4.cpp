// Table I + Figure 4: full-sharing vs random-sampling vs JWINS on all five
// dataset stand-ins for a fixed number of rounds.
//
// Reproduced rows: final test accuracy per algorithm, total data sent, and
// JWINS' network savings vs full-sharing. Paper shape: JWINS accuracy ~=
// full-sharing (within a few points), beats random sampling, while sending
// ~60-64% fewer bytes than full-sharing.
//
// Experiment wiring comes from scenarios/table1_fig4.scenario (override
// with --scenario=PATH); this driver only keeps the paper's per-dataset
// round budgets, setting `workload`/`rounds` per table row.

#include <iomanip>
#include <iostream>

#include "bench_util.hpp"

namespace {

using namespace jwins;

struct DatasetRounds {
  const char* name;
  std::size_t rounds;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const std::size_t round_scale = flags.get("round-scale", std::size_t{1});
  const std::string only = flags.get("dataset", std::string{});

  config::RawScenario raw = bench::load_preset(flags, "table1_fig4.scenario");
  bench::override_if(flags, raw, "nodes", "nodes");
  bench::override_if(flags, raw, "seed", "seed");
  bench::override_if(flags, raw, "threads", "threads");
  const std::size_t nodes = bench::expand_preset(raw).front().nodes;

  // Rounds tuned per task difficulty, mirroring the paper's per-dataset
  // epoch counts (Table I).
  const std::vector<DatasetRounds> schedule{
      {"cifar", 90}, {"movielens", 140}, {"shakespeare", 120},
      {"celeba", 40}, {"femnist", 60}};

  std::cout << "=== Table I / Figure 4: JWINS vs full-sharing vs random "
               "sampling ===\n";
  std::cout << "nodes=" << nodes << "  (paper: 96; scale with --nodes)\n\n";

  std::cout << std::left << std::setw(14) << "DATASET" << std::setw(10)
            << "ROUNDS" << std::setw(12) << "FULL-ACC" << std::setw(12)
            << "RAND-ACC" << std::setw(12) << "JWINS-ACC" << std::setw(14)
            << "FULL-DATA" << std::setw(14) << "JWINS-DATA" << "SAVINGS\n";

  for (const auto& [name, base_rounds] : schedule) {
    if (!only.empty() && only != name) continue;
    const std::size_t rounds = base_rounds * round_scale;
    config::set_value(raw, "workload", name);
    config::set_value(raw, "rounds", std::to_string(rounds));
    config::set_value(
        raw, "eval_every",
        std::to_string(std::max<std::size_t>(1, rounds / 10)));

    const std::vector<config::ScenarioRun> runs = bench::expand_preset(raw);
    auto run = [&](sim::Algorithm algorithm) {
      for (const config::ScenarioRun& r : runs) {
        if (r.config.algorithm == algorithm) return config::execute(r);
      }
      std::cerr << "error: algorithm: the scenario grid has no "
                << sim::algorithm_name(algorithm)
                << " cell (this bench needs all three)\n";
      std::exit(2);
    };

    const auto full = run(sim::Algorithm::kFullSharing);
    const auto rand = run(sim::Algorithm::kRandomSampling);
    const auto jw = run(sim::Algorithm::kJwins);

    const double full_bytes = full.series.back().avg_bytes_per_node;
    const double jwins_bytes = jw.series.back().avg_bytes_per_node;
    const double savings = 100.0 * (1.0 - jwins_bytes / full_bytes);

    std::cout << std::left << std::setw(14) << name << std::setw(10) << rounds
              << std::setw(12) << std::fixed << std::setprecision(1)
              << full.final_accuracy * 100.0 << std::setw(12)
              << rand.final_accuracy * 100.0 << std::setw(12)
              << jw.final_accuracy * 100.0 << std::setw(14)
              << sim::format_bytes(full_bytes) << std::setw(14)
              << sim::format_bytes(jwins_bytes) << std::setprecision(1)
              << savings << " %\n";

    // Figure 4 series (accuracy/loss/bytes curves per algorithm).
    std::cout << "\n";
    sim::print_series_csv(std::cout, std::string(name) + "/full-sharing", full);
    sim::print_series_csv(std::cout, std::string(name) + "/random-sampling", rand);
    sim::print_series_csv(std::cout, std::string(name) + "/jwins", jw);
    std::cout << "\n";
  }
  std::cout << "paper shape check: JWINS-ACC ~= FULL-ACC > RAND-ACC, savings "
               ">= ~50%\n";
  return 0;
}
