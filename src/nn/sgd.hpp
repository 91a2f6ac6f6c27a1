// Plain SGD at a constant learning rate, the paper's optimizer ("basic SGD
// optimizer without momentum", §IV-B): no momentum buffer, no weight decay,
// no schedule, so a node's optimizer holds no state beyond its step size.
#pragma once

#include "nn/model.hpp"

namespace jwins::nn {

class Sgd {
 public:
  struct Options {
    float learning_rate = 0.01f;
  };

  /// Steps `model`'s flat parameter vector with its flat gradients. The
  /// spans are read at every step, so a model re-bound to another slot
  /// (SupervisedModel::bind_params) is stepped where it now lives. Throws
  /// std::invalid_argument when the model's gradients do not pair 1:1 in
  /// shape with its parameters.
  Sgd(SupervisedModel& model, Options options);

  /// Applies one update: p -= lr * g.
  void step();

  void set_learning_rate(float lr) noexcept { options_.learning_rate = lr; }

 private:
  SupervisedModel* model_;
  Options options_;
};

}  // namespace jwins::nn
