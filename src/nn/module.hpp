// Neural network substrate: a layer interface with explicit forward/backward
// passes. Stands in for PyTorch in the original JWINS implementation —
// JWINS itself only ever sees models as flat parameter vectors (paper
// §IV-G b), so any correct SGD substrate exercises the same code paths.
//
// Conventions:
//  * Inputs/outputs are batched row-major tensors; the leading axis is batch.
//  * forward() caches whatever backward() needs; backward() receives
//    dL/d(output) and returns dL/d(input), accumulating parameter gradients.
//  * Parameter gradients accumulate across backward() calls until
//    zero_grad(); the optimizer consumes them via params()/grads().
//  * accumulate_grads() is backward() for a caller that does not read
//    dL/d(input): a model's bottom layer, whose input is the data.
#pragma once

#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace jwins::nn {

using tensor::Tensor;

class Module {
 public:
  virtual ~Module() = default;

  /// Computes the layer output and caches activations for backward().
  virtual Tensor forward(const Tensor& input) = 0;

  /// Back-propagates: takes dL/d(output), returns dL/d(input), and
  /// accumulates dL/d(params) into the gradient tensors.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() without its result: accumulates dL/d(params) only, with the
  /// same float operations. Layers whose input gradient costs real work
  /// skip computing it; the default runs backward() and drops the result.
  virtual void accumulate_grads(const Tensor& grad_output) {
    backward(grad_output);
  }

  /// Learnable parameters (possibly empty). Order must be stable: the flat
  /// parameter vector layout used by JWINS depends on it.
  virtual std::vector<Tensor*> params() { return {}; }

  /// Gradient tensors, aligned 1:1 with params().
  virtual std::vector<Tensor*> grads() { return {}; }

  void zero_grad() {
    for (Tensor* g : grads()) g->zero();
  }
};

/// Runs a list of modules in order.
class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining via add(...).add(...).
  Sequential& add(std::unique_ptr<Module> layer) {
    if (first_trained_ == kNone && !layer->params().empty()) {
      first_trained_ = layers_.size();
    }
    layers_.push_back(std::move(layer));
    return *this;
  }

  template <typename M, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<M>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& input) override {
    Tensor x = input;
    for (auto& layer : layers_) x = layer->forward(x);
    return x;
  }

  Tensor backward(const Tensor& grad_output) override {
    Tensor g = grad_output;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
      g = (*it)->backward(g);
    }
    return g;
  }

  /// Back-propagates only as far as the parameters reach: the lowest layer
  /// with parameters (conv1 of the CNN) gets accumulate_grads(), and the
  /// parameter-free layers below it (a leading Flatten) are not visited.
  void accumulate_grads(const Tensor& grad_output) override {
    if (first_trained_ == kNone) return;
    Tensor g = grad_output;
    for (std::size_t i = layers_.size() - 1; i > first_trained_; --i) {
      g = layers_[i]->backward(g);
    }
    layers_[first_trained_]->accumulate_grads(g);
  }

  std::vector<Tensor*> params() override {
    std::vector<Tensor*> out;
    for (auto& layer : layers_) {
      for (Tensor* p : layer->params()) out.push_back(p);
    }
    return out;
  }

  std::vector<Tensor*> grads() override {
    std::vector<Tensor*> out;
    for (auto& layer : layers_) {
      for (Tensor* g : layer->grads()) out.push_back(g);
    }
    return out;
  }

  std::size_t layer_count() const noexcept { return layers_.size(); }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::vector<std::unique_ptr<Module>> layers_;
  std::size_t first_trained_ = kNone;  ///< lowest layer with parameters
};

}  // namespace jwins::nn
