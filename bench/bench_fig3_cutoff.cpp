// Figure 3: the randomized cut-off in action.
//
// Left chart: the random sharing percentage selected by each of the 96 nodes
// in one typical round. Right chart: the average sharing percentage across
// nodes over communication rounds (hovers around E[alpha] = 34.3%).

#include <iomanip>
#include <iostream>

#include "bench_util.hpp"
#include "core/cutoff.hpp"

int main(int argc, char** argv) {
  using namespace jwins;
  const bench::Flags flags(argc, argv, {"nodes", "rounds"});
  const std::size_t nodes = flags.get("nodes", std::size_t{96});
  const std::size_t rounds = flags.get("rounds", std::size_t{800});

  const core::RandomizedCutoff cutoff = core::RandomizedCutoff::paper_default();
  std::cout << "=== Figure 3 (left): per-node shared fraction in one round ===\n";
  std::cout << "node,alpha_percent\n";
  std::vector<std::mt19937_64> rngs;
  for (std::size_t i = 0; i < nodes; ++i) rngs.emplace_back(0xA11CE + i);
  for (std::size_t i = 0; i < nodes; ++i) {
    std::cout << i << ',' << cutoff.sample(rngs[i]) * 100.0 << "\n";
  }

  std::cout << "\n=== Figure 3 (right): average shared fraction per round ===\n";
  std::cout << "round,avg_alpha_percent\n";
  double grand_total = 0.0;
  for (std::size_t t = 0; t < rounds; ++t) {
    double total = 0.0;
    for (std::size_t i = 0; i < nodes; ++i) total += cutoff.sample(rngs[i]);
    grand_total += total / static_cast<double>(nodes);
    if (t % 25 == 0 || t + 1 == rounds) {
      std::cout << t << ',' << std::fixed << std::setprecision(2)
                << 100.0 * total / static_cast<double>(nodes) << "\n";
    }
  }
  std::cout << "\nlong-run mean alpha = " << std::setprecision(2)
            << 100.0 * grand_total / static_cast<double>(rounds)
            << "% (analytic E[alpha] = " << 100.0 * cutoff.expected_alpha()
            << "%)\n";
  return 0;
}
