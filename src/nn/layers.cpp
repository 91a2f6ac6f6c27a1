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
  const std::size_t batch = input.dim(0);
  Tensor out({batch, out_});
  tensor::matmul_nt_into(out, input, weight_);
  float* y = out.raw();
  const float* bias = bias_.raw();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t o = 0; o < out_; ++o) y[b * out_ + o] += bias[o];
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  accumulate_grads(grad_output);
  Tensor grad_input({grad_output.dim(0), in_});
  tensor::matmul_into(grad_input, grad_output, weight_);  // dX = dY · W
  return grad_input;
}

void Linear::accumulate_grads(const Tensor& grad_output) {
  const std::size_t batch = cached_input_.dim(0);
  if (grad_output.rank() != 2 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != out_) {
    throw std::invalid_argument("Linear::backward: grad shape mismatch");
  }
  // dW += dYᵀ · X ; db += column sums of dY.
  tensor::matmul_tn_into(gw_tmp_, grad_output, cached_input_);
  grad_weight_ += gw_tmp_;
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
