// The JWINS randomized communication cut-off (paper §III-B).
//
// Each node independently draws a sharing fraction alpha per round from a
// fixed distribution. The paper's default is uniform over
// {10, 15, 20, 25, 30, 40, 100}% (mean 34.3%, matching the ~37%-of-bytes
// budget given to the random-sampling baseline); the low-budget runs against
// CHOCO use two-point distributions (p(100%)=0.1/p(10%)=0.9 for the 20%
// budget, p(100%)=0.05/p(5%)=0.95 for 10%).
#pragma once

#include <algorithm>
#include <random>
#include <vector>

namespace jwins::core {

class RandomizedCutoff {
 public:
  /// alphas in (0, 1]; probabilities must be positive and sum to ~1.
  RandomizedCutoff(std::vector<double> alphas, std::vector<double> probabilities);

  /// The paper's default: uniform over {10,15,20,25,30,40,100}%.
  static RandomizedCutoff paper_default();

  /// Two-point budget distribution: p(100%) = p_full, p(alpha_low) = 1-p_full,
  /// p_full in (0, 1) (use fixed() for a single point). Expected budget =
  /// p_full + (1 - p_full) * alpha_low.
  static RandomizedCutoff two_point(double alpha_low, double p_full);

  /// Degenerate distribution (used by the no-random-cutoff ablation).
  static RandomizedCutoff fixed(double alpha);

  /// Draws this round's sharing fraction. Templated over the engine so both
  /// stateful std::mt19937_64 (tests, benches) and the counter-based
  /// core::CounterRng streams the simulation engine uses (see core/rng.hpp)
  /// work; one uniform draw per call either way.
  template <class Urbg>
  double sample(Urbg& rng) const {
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    const double r = u01(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r);
    const std::size_t idx = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), alphas_.size() - 1);
    return alphas_[idx];
  }

  /// E[alpha]: the long-run fraction of the model shared per round.
  double expected_alpha() const noexcept;

  const std::vector<double>& alphas() const noexcept { return alphas_; }
  const std::vector<double>& probabilities() const noexcept { return probs_; }

 private:
  std::vector<double> alphas_;
  std::vector<double> probs_;
  std::vector<double> cdf_;
};

}  // namespace jwins::core
