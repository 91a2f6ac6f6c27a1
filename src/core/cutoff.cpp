#include "core/cutoff.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace jwins::core {

RandomizedCutoff::RandomizedCutoff(std::vector<double> alphas,
                                   std::vector<double> probabilities)
    : alphas_(std::move(alphas)), probs_(std::move(probabilities)) {
  if (alphas_.empty() || alphas_.size() != probs_.size()) {
    throw std::invalid_argument("RandomizedCutoff: alphas/probabilities mismatch");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < alphas_.size(); ++i) {
    if (!(alphas_[i] > 0.0 && alphas_[i] <= 1.0)) {
      throw std::invalid_argument("RandomizedCutoff: alpha must be in (0, 1]");
    }
    if (!(probs_[i] > 0.0)) {
      throw std::invalid_argument("RandomizedCutoff: probabilities must be positive");
    }
    total += probs_[i];
  }
  if (!(std::fabs(total - 1.0) <= 1e-6)) {
    throw std::invalid_argument("RandomizedCutoff: probabilities must sum to 1");
  }
  cdf_.resize(probs_.size());
  std::partial_sum(probs_.begin(), probs_.end(), cdf_.begin());
  cdf_.back() = 1.0;  // guard against rounding
}

RandomizedCutoff RandomizedCutoff::paper_default() {
  const std::vector<double> alphas{0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 1.00};
  const std::vector<double> probs(alphas.size(), 1.0 / alphas.size());
  return RandomizedCutoff(alphas, probs);
}

RandomizedCutoff RandomizedCutoff::two_point(double alpha_low, double p_full) {
  if (!(p_full > 0.0 && p_full < 1.0)) {
    throw std::invalid_argument("two_point: p_full must be in (0, 1)");
  }
  return RandomizedCutoff({alpha_low, 1.0}, {1.0 - p_full, p_full});
}

RandomizedCutoff RandomizedCutoff::fixed(double alpha) {
  return RandomizedCutoff({alpha}, {1.0});
}

double RandomizedCutoff::expected_alpha() const noexcept {
  double e = 0.0;
  for (std::size_t i = 0; i < alphas_.size(); ++i) e += alphas_[i] * probs_[i];
  return e;
}

}  // namespace jwins::core
