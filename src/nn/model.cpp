#include "nn/model.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace jwins::nn {

void SupervisedModel::flatten_tensors() {
  std::vector<Tensor*> params = parameters();
  const std::vector<Tensor*> grads = gradients();
  if (params.size() != grads.size()) {
    throw std::invalid_argument("SupervisedModel: params/grads size mismatch");
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!params[i]->same_shape(*grads[i])) {
      throw std::invalid_argument(
          "SupervisedModel: param/grad shape mismatch at index " +
          std::to_string(i));
    }
    total += params[i]->size();
  }
  // Reserved up front, so the appends never move what is already bound.
  param_buf_.reserve(total);
  grad_buf_.reserve(total);
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::size_t offset = param_buf_.size();
    param_buf_.insert(param_buf_.end(), params[i]->data().begin(),
                      params[i]->data().end());
    grad_buf_.insert(grad_buf_.end(), grads[i]->data().begin(),
                     grads[i]->data().end());
    params[i]->bind(param_buf_.data() + offset);
    grads[i]->bind(grad_buf_.data() + offset);
  }
  param_views_ = std::move(params);
  param_data_ = param_buf_.data();
  flat_ = true;
}

void SupervisedModel::zero_grad() {
  const std::span<float> g = flat_grads();
  std::fill(g.begin(), g.end(), 0.0f);
}

void SupervisedModel::bind_params(std::span<float> slot) {
  if (slot.size() != parameter_count()) {
    throw std::invalid_argument("SupervisedModel::bind_params: slot of " +
                                std::to_string(slot.size()) + " floats for " +
                                std::to_string(parameter_count()) +
                                " parameters");
  }
  float* next = slot.data();
  for (Tensor* p : param_views_) {
    p->bind(next);
    next += p->size();
  }
  param_data_ = slot.data();
}

}  // namespace jwins::nn
