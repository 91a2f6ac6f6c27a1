// Dense and elementwise layers: Linear, ReLU, Tanh, Sigmoid, Flatten.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "nn/module.hpp"

namespace jwins::nn {

/// Fully-connected layer: y = x·Wᵀ + b with W of shape [out, in].
/// Initialization is Kaiming-uniform (fan-in), the PyTorch default.
class Linear final : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, std::mt19937& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Weight and bias gradients only: skips the dY · W input gradient.
  void accumulate_grads(const Tensor& grad_output) override;

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&grad_weight_, &grad_bias_}; }

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

 private:
  std::size_t in_, out_;
  Tensor weight_, bias_;
  Tensor grad_weight_, grad_bias_;
  Tensor cached_input_;
};

/// max(x, 0).
class ReLU final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  tensor::Shape cached_shape_;
  std::vector<std::uint8_t> passes_;  // 1 where the input is not <= 0
};

class Tanh final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor cached_output_;
};

class Sigmoid final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor cached_output_;
};

/// Collapses every axis after the batch axis: [B, ...] -> [B, prod(...)].
class Flatten final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  tensor::Shape cached_shape_;
};

}  // namespace jwins::nn
