// Plain SGD, matching the paper's optimizer choice ("basic SGD optimizer
// without momentum", §IV-B). Momentum and weight decay are available for the
// extension experiments but default to off.
#pragma once

#include <vector>

#include "nn/model.hpp"

namespace jwins::nn {

class Sgd {
 public:
  struct Options {
    float learning_rate = 0.01f;
    float momentum = 0.0f;
    float weight_decay = 0.0f;
  };

  /// Steps `model`'s flat parameter vector with its flat gradients. The
  /// spans are read at every step, so a model re-bound to another slot
  /// (SupervisedModel::bind_params) is stepped where it now lives. Throws
  /// std::invalid_argument when the model's gradients do not pair 1:1 in
  /// shape with its parameters.
  Sgd(SupervisedModel& model, Options options);

  /// Applies one update: p -= lr * (g + wd * p) (+ momentum buffer if set).
  void step();

  float learning_rate() const noexcept { return options_.learning_rate; }
  void set_learning_rate(float lr) noexcept { options_.learning_rate = lr; }

 private:
  SupervisedModel* model_;
  Options options_;
  std::vector<float> velocity_;  // lazily sized when momentum > 0
};

}  // namespace jwins::nn
