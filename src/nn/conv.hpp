// Convolutional building blocks for the GN-LeNet-style CNNs (paper §IV-B):
// Conv2d, MaxPool2d, and GroupNorm (the "GN" in GN-LeNet — Hsieh et al. 2020
// replace batch norm with group norm because batch statistics leak across
// non-IID nodes).
#pragma once

#include <random>

#include "nn/module.hpp"

namespace jwins::nn {

/// 2-D convolution over [B, C, H, W] with square kernels. Every output and
/// gradient element adds its terms in the order and precision of the direct
/// loops (forward: double, bias then (ic, kr, kc); weight and bias gradients:
/// float over (b, r, c); input gradient: float over (oc, r, c)), skipping
/// padded taps and zero gradients, so results are bit-identical to them.
class Conv2d final : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t padding, std::mt19937& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Weight and bias gradients only: skips the input-gradient kernel.
  void accumulate_grads(const Tensor& grad_output) override;

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&grad_weight_, &grad_bias_}; }

 private:
  std::size_t in_ch_, out_ch_, kernel_, stride_, pad_;
  Tensor weight_;  // [out_ch, in_ch, k, k]
  Tensor bias_;    // [out_ch]
  Tensor grad_weight_, grad_bias_;
  Tensor cached_input_;
};

/// Max pooling over [B, C, H, W]; remembers argmax positions for backward.
/// NaN entries never win: an all-NaN window outputs -inf and sends its
/// gradient to its own first element.
class MaxPool2d final : public Module {
 public:
  MaxPool2d(std::size_t kernel, std::size_t stride);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  std::size_t kernel_, stride_;
  tensor::Shape cached_in_shape_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

/// Group normalization over [B, C, H, W] (Wu & He 2018) with per-channel
/// affine parameters.
class GroupNorm final : public Module {
 public:
  GroupNorm(std::size_t groups, std::size_t channels, float eps = 1e-5f);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  std::vector<Tensor*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> grads() override { return {&grad_gamma_, &grad_beta_}; }

 private:
  std::size_t groups_, channels_;
  float eps_;
  Tensor gamma_, beta_;
  Tensor grad_gamma_, grad_beta_;
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;  // per (batch, group)
  tensor::Shape cached_in_shape_;
};

}  // namespace jwins::nn
