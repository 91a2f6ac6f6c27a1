#include "nn/sgd.hpp"

#include <span>

namespace jwins::nn {

Sgd::Sgd(SupervisedModel& model, Options options)
    : model_(&model), options_(options) {
  (void)model.flat_params();  // lays out the buffers; rejects bad pairings
}

void Sgd::step() {
  const float lr = options_.learning_rate;
  const std::span<float> p = model_->flat_params();
  const std::span<const float> g = model_->flat_grads();
  for (std::size_t j = 0; j < p.size(); ++j) p[j] -= lr * g[j];
}

}  // namespace jwins::nn
