#include "nn/sgd.hpp"

#include <span>

namespace jwins::nn {

Sgd::Sgd(SupervisedModel& model, Options options)
    : model_(&model), options_(options) {
  (void)model.flat_params();  // lays out the buffers; rejects bad pairings
}

void Sgd::step() {
  const float lr = options_.learning_rate;
  const float wd = options_.weight_decay;
  const float mu = options_.momentum;
  const std::span<float> p = model_->flat_params();
  const std::span<const float> g = model_->flat_grads();
  if (mu == 0.0f) {
    for (std::size_t j = 0; j < p.size(); ++j) {
      p[j] -= lr * (g[j] + wd * p[j]);
    }
    return;
  }
  if (velocity_.empty()) velocity_.assign(p.size(), 0.0f);
  for (std::size_t j = 0; j < p.size(); ++j) {
    velocity_[j] = mu * velocity_[j] + g[j] + wd * p[j];
    p[j] -= lr * velocity_[j];
  }
}

}  // namespace jwins::nn
