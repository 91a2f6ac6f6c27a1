// Sequence layers for the Shakespeare-style next-character task: token
// Embedding and a full-BPTT LSTM (the paper's model is a stacked LSTM).
#pragma once

#include <random>

#include "nn/module.hpp"

namespace jwins::nn {

/// Token embedding: input [B, T] of integer token ids stored as floats,
/// output [B, T, dim]. backward() accumulates into the embedding rows and
/// returns a zero gradient for the (discrete) input.
class Embedding final : public Module {
 public:
  Embedding(std::size_t vocab, std::size_t dim, std::mt19937& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  std::vector<Tensor*> params() override { return {&weight_}; }
  std::vector<Tensor*> grads() override { return {&grad_weight_}; }

 private:
  std::size_t vocab_, dim_;
  Tensor weight_;  // [vocab, dim]
  Tensor grad_weight_;
  Tensor cached_input_;
};

/// Single LSTM layer over [B, T, input_dim] -> [B, T, hidden] with zero
/// initial state and full backpropagation through time. Stack two for the
/// paper's model.
class Lstm final : public Module {
 public:
  Lstm(std::size_t input_dim, std::size_t hidden, std::mt19937& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  std::vector<Tensor*> params() override { return {&w_x_, &w_h_, &bias_}; }
  std::vector<Tensor*> grads() override {
    return {&grad_w_x_, &grad_w_h_, &grad_bias_};
  }

 private:
  std::size_t input_dim_, hidden_;
  // Gate order within the 4H axis: input, forget, cell(g), output.
  Tensor w_x_;   // [4H, D]
  Tensor w_h_;   // [4H, H]
  Tensor bias_;  // [4H]
  Tensor grad_w_x_, grad_w_h_, grad_bias_;

  // Per-forward caches (one entry per timestep). The vectors are resized
  // only when the step count changes and each Tensor is reshaped in place,
  // so repeated train steps on a fixed batch shape reuse all cache storage.
  Tensor cached_input_;
  std::vector<Tensor> gate_i_, gate_f_, gate_g_, gate_o_;  // each [B, H]
  std::vector<Tensor> cell_, tanh_cell_, h_prev_, c_prev_;

  // Step workspaces (forward: running state + pre-activations; backward:
  // per-step gradients and matmul scratch). Warm after the first call, so
  // the steady-state train step allocates only the tensors it must return.
  Tensor h_, c_, xt_, z_, zh_;
  Tensor dh_, dz_, dc_prev_, dh_next_, dc_next_, dx_, gw_tmp_;
};

}  // namespace jwins::nn
