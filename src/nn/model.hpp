// Task-level model interface used by the decentralized training algorithms.
//
// JWINS "considers models as flat vectors of parameters" (paper §IV-G b):
// the wavelet transform, TopK selection, averaging and all byte accounting
// operate on one contiguous float vector. So does the model itself: every
// SupervisedModel keeps its parameters in one flat buffer and its gradients
// in another, and its parameter/gradient tensors are views into them
// (tensor::Tensor::bind). flat_params() is that vector, in parameters()
// order; the optimizer steps it in one loop, and the compact node-state
// engine re-points the parameter views at a node's store slot
// (bind_params()) instead of copying the model in and out.
//
// A Batch covers all three paper task families:
//  * classification: x = images/features, labels = class ids
//  * recommendation: x = [B, 2] (user id, item id), y = ratings
//  * next-char prediction: x = [B, T] token ids, labels = B*T next tokens
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace jwins::nn {

using tensor::Tensor;

struct Batch {
  Tensor x;                          ///< inputs (task-specific layout)
  std::vector<std::int32_t> labels;  ///< integer targets (classification/chars)
  Tensor y;                          ///< float targets (regression/ratings)

  std::size_t size() const noexcept { return x.rank() > 0 ? x.dim(0) : 0; }
};

struct EvalMetrics {
  double loss = 0.0;
  double accuracy = 0.0;  ///< task-defined: top-1, within-0.5-star, per-char
  std::size_t samples = 0;
};

/// A trainable model with a flat parameter vector. Implementations own their
/// layers and list their parameter/gradient tensors; the base class moves
/// those tensors' values into its two flat buffers on first use of any flat
/// accessor, and from then on the tensors are views.
class SupervisedModel {
 public:
  SupervisedModel() = default;
  virtual ~SupervisedModel() = default;

  // The views point into this object's buffers and at its tensors.
  SupervisedModel(const SupervisedModel&) = delete;
  SupervisedModel& operator=(const SupervisedModel&) = delete;

  /// Forward+backward on one batch; accumulates gradients, returns mean loss.
  virtual float loss_and_grad(const Batch& batch) = 0;

  /// Loss/accuracy without touching gradients.
  virtual EvalMetrics evaluate(const Batch& batch) = 0;

  /// Parameter tensors in flat-vector order, and their gradients aligned
  /// 1:1 (same shapes).
  virtual std::vector<Tensor*> parameters() = 0;
  virtual std::vector<Tensor*> gradients() = 0;

  /// The flat parameter vector: the model's own buffer, or the slot it is
  /// bound to. Writes through it are the model's parameters.
  std::span<float> flat_params() {
    flatten();
    return {param_data_, param_buf_.size()};
  }
  /// The flat gradient vector, aligned with flat_params().
  std::span<float> flat_grads() {
    flatten();
    return grad_buf_;
  }

  void zero_grad();

  /// Number of scalars in the flat parameter vector.
  std::size_t parameter_count() { return flat_params().size(); }

  /// Points every parameter view at `slot` (parameter_count() floats, in
  /// flat order) without copying: the model then trains on, reads and
  /// writes the slot in place until the next bind. Throws on a size
  /// mismatch.
  void bind_params(std::span<float> slot);
  /// Points the parameter views back at the model's own buffer, which still
  /// holds whatever it held before the first bind_params().
  void unbind_params() { bind_params(param_buf_); }

 private:
  /// On first call: copies every parameter and gradient tensor into the
  /// flat buffers and binds the tensors to them.
  void flatten() {
    if (!flat_) flatten_tensors();
  }
  void flatten_tensors();

  bool flat_ = false;
  std::vector<float> param_buf_, grad_buf_;
  float* param_data_ = nullptr;  ///< param_buf_ or the bound slot
  std::vector<Tensor*> param_views_;  ///< parameters(), in flat order
};

/// Builds a fresh model. All nodes in an experiment share one factory seeded
/// identically so they start from the same point x^(0,0), as the paper's
/// Algorithm 1 requires.
using ModelFactory = std::function<std::unique_ptr<SupervisedModel>()>;

}  // namespace jwins::nn
