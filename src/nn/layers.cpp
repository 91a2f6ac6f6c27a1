#include "nn/layers.hpp"

#include <cmath>
#include <stdexcept>

namespace jwins::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               std::mt19937& rng)
    : in_(in_features),
      out_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}),
      grad_weight_({out_features, in_features}),
      grad_bias_({out_features}) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(in_features));
  weight_ = Tensor::uniform({out_, in_}, -bound, bound, rng);
  bias_ = Tensor::uniform({out_}, -bound, bound, rng);
}

Tensor Linear::forward(const Tensor& input) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Linear: expected input [B, " +
                                std::to_string(in_) + "], got " +
                                tensor::to_string(input.shape()));
  }
  cached_input_ = input;
  Tensor out = tensor::matmul_nt(input, weight_);  // [B, out]
  const std::size_t batch = input.dim(0);
  float* y = out.raw();
  const float* bias = bias_.raw();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t o = 0; o < out_; ++o) y[b * out_ + o] += bias[o];
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  accumulate_grads(grad_output);
  return tensor::matmul(grad_output, weight_);  // dX = dY · W
}

void Linear::accumulate_grads(const Tensor& grad_output) {
  const std::size_t batch = cached_input_.dim(0);
  if (grad_output.rank() != 2 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != out_) {
    throw std::invalid_argument("Linear::backward: grad shape mismatch");
  }
  // dW += dYᵀ · X ; db += column sums of dY.
  grad_weight_ += tensor::matmul_tn(grad_output, cached_input_);
  const float* gy = grad_output.raw();
  float* gb = grad_bias_.raw();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t o = 0; o < out_; ++o) gb[o] += gy[b * out_ + o];
  }
}

Tensor ReLU::forward(const Tensor& input) {
  cached_shape_ = input.shape();
  passes_.resize(input.size());
  const float* __restrict x = input.raw();
  std::uint8_t* __restrict pass = passes_.data();
  for (std::size_t i = 0; i < input.size(); ++i) pass[i] = !(x[i] <= 0.0f);
  Tensor out = input;
  float* y = out.raw();
  for (std::size_t i = 0; i < out.size(); ++i) y[i] = y[i] < 0.0f ? 0.0f : y[i];
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (grad_output.shape() != cached_shape_ ||
      grad_output.size() != passes_.size()) {
    throw std::invalid_argument("ReLU::backward: grad shape mismatch");
  }
  Tensor gin = grad_output;
  const std::uint8_t* __restrict pass = passes_.data();
  float* __restrict g = gin.raw();
  for (std::size_t i = 0; i < gin.size(); ++i) g[i] = pass[i] ? g[i] : 0.0f;
  return gin;
}

Tensor Tanh::forward(const Tensor& input) {
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::tanh(out[i]);
  cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  Tensor gin = grad_output;
  for (std::size_t i = 0; i < gin.size(); ++i) {
    const float y = cached_output_[i];
    gin[i] *= 1.0f - y * y;
  }
  return gin;
}

Tensor Sigmoid::forward(const Tensor& input) {
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-out[i]));
  }
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  Tensor gin = grad_output;
  for (std::size_t i = 0; i < gin.size(); ++i) {
    const float y = cached_output_[i];
    gin[i] *= y * (1.0f - y);
  }
  return gin;
}

Tensor Flatten::forward(const Tensor& input) {
  if (input.rank() < 2) {
    throw std::invalid_argument("Flatten: input must have a batch axis");
  }
  cached_shape_ = input.shape();
  const std::size_t batch = input.dim(0);
  return input.reshape({batch, input.size() / batch});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshape(cached_shape_);
}

}  // namespace jwins::nn
