#include "core/ranker.hpp"

#include <algorithm>
#include <stdexcept>

namespace jwins::core {

WaveletRanker::WaveletRanker(std::size_t model_size, Options options)
    : options_(std::move(options)), model_size_(model_size) {
  if (model_size == 0) {
    throw std::invalid_argument("WaveletRanker: empty model");
  }
  if (options_.wavelet != kIdentity) {
    plan_.emplace(dwt::wavelet_by_name(options_.wavelet), model_size,
                  kLevels);
  }
  scores_.assign(coeff_length(), 0.0f);
}

std::size_t WaveletRanker::coeff_length() const noexcept {
  return plan_ ? plan_->coeff_length() : model_size_;
}

std::size_t WaveletRanker::band_count() const noexcept {
  return plan_ ? plan_->levels() + 1 : 1;
}

std::size_t WaveletRanker::band_of(std::size_t coeff_index) const {
  if (!plan_) {
    if (coeff_index >= model_size_) {
      throw std::out_of_range("WaveletRanker::band_of: index out of range");
    }
    return 0;
  }
  return plan_->band_of(coeff_index);
}

void WaveletRanker::transform_into(std::span<const float> model,
                                   std::span<float> coeffs,
                                   dwt::DwtWorkspace& ws) const {
  if (model.size() != model_size_) {
    throw std::invalid_argument("WaveletRanker::transform: size mismatch");
  }
  if (coeffs.size() != coeff_length()) {
    throw std::invalid_argument("WaveletRanker::transform: coeff size mismatch");
  }
  if (plan_) {
    plan_->forward_into(model, coeffs, ws);
  } else {
    std::copy(model.begin(), model.end(), coeffs.begin());
  }
}

void WaveletRanker::inverse_into(std::span<const float> coeffs,
                                 std::span<float> model,
                                 dwt::DwtWorkspace& ws) const {
  if (coeffs.size() != coeff_length()) {
    throw std::invalid_argument("WaveletRanker::inverse: size mismatch");
  }
  if (model.size() != model_size_) {
    throw std::invalid_argument("WaveletRanker::inverse: model size mismatch");
  }
  if (plan_) {
    plan_->inverse_into(coeffs, model, ws);
  } else {
    std::copy(coeffs.begin(), coeffs.end(), model.begin());
  }
}

namespace {

/// Shared eq. (3)/(4) core: scores += T(after - before), with `delta` and
/// `coeffs` provided by the caller's arena.
void accumulate_delta(const WaveletRanker& ranker, std::vector<float>& scores,
                      std::span<const float> before,
                      std::span<const float> after, std::span<float> delta,
                      std::span<float> coeffs, dwt::DwtWorkspace& ws) {
  for (std::size_t i = 0; i < delta.size(); ++i) delta[i] = after[i] - before[i];
  ranker.transform_into(delta, coeffs, ws);
  for (std::size_t i = 0; i < scores.size(); ++i) scores[i] += coeffs[i];
}

}  // namespace

std::span<const float> WaveletRanker::accumulate_round_change(
    std::span<const float> before, std::span<const float> after, Arena& arena,
    dwt::DwtWorkspace& ws) {
  if (before.size() != model_size_ || after.size() != model_size_) {
    throw std::invalid_argument("WaveletRanker: model size mismatch");
  }
  if (!options_.use_accumulation) {
    std::fill(scores_.begin(), scores_.end(), 0.0f);
  }
  accumulate_delta(*this, scores_, before, after, arena.alloc<float>(model_size_),
                   arena.alloc<float>(coeff_length()), ws);
  return scores_;
}

void WaveletRanker::finish_round(std::span<const float> pre_average,
                                 std::span<const float> post_average,
                                 std::span<const std::uint32_t> sent_indices,
                                 Arena& arena, dwt::DwtWorkspace& ws) {
  if (pre_average.size() != model_size_ || post_average.size() != model_size_) {
    throw std::invalid_argument("WaveletRanker::finish_round: size mismatch");
  }
  // Eq. (4): by linearity of the transform, adding T(x^{t+1,0} - x^{t,tau})
  // on top of the already-accumulated T(x^{t,tau} - x^{t,0}) yields
  // V + T(x^{t+1,0} - x^{t,0}) for the round.
  accumulate_delta(*this, scores_, pre_average, post_average,
                   arena.alloc<float>(model_size_),
                   arena.alloc<float>(coeff_length()), ws);
  // "Entries in the accumulation vector that were chosen in this round are
  // set to zero" — the shared coefficients' pent-up change has been
  // communicated.
  for (std::uint32_t idx : sent_indices) {
    if (idx < scores_.size()) scores_[idx] = 0.0f;
  }
}

}  // namespace jwins::core
