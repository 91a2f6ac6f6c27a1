// The four model families the paper evaluates (§IV-B): GN-LeNet-style CNNs
// for the image tasks, matrix factorization with embeddings for MovieLens,
// a stacked LSTM for Shakespeare, and an MLP used in tests/quadratic
// settings. Sizes are constructor parameters so experiments can scale.
#pragma once

#include <functional>
#include <random>

#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/module.hpp"
#include "nn/rnn.hpp"

namespace jwins::nn {

/// Softmax cross-entropy classifier over a layer stack that ends in logits
/// [B, classes]. Subclasses only build `net_` in their constructors; the
/// training step, evaluation and parameter lists are this one body.
class SequentialClassifier : public SupervisedModel {
 public:
  float loss_and_grad(const Batch& batch) override;
  EvalMetrics evaluate(const Batch& batch) override;
  std::vector<Tensor*> parameters() override { return net_.params(); }
  std::vector<Tensor*> gradients() override { return net_.grads(); }

 protected:
  Sequential net_;
};

/// Multi-layer perceptron classifier: [B, in] -> logits [B, classes].
class MlpClassifier final : public SequentialClassifier {
 public:
  MlpClassifier(std::size_t in_features, std::vector<std::size_t> hidden,
                std::size_t classes, std::uint32_t seed);
};

/// GN-LeNet-style CNN: two conv+groupnorm+relu+pool stages then a linear
/// head. Input [B, C, H, W]; H and W must be divisible by 4.
class CnnClassifier final : public SequentialClassifier {
 public:
  struct Config {
    std::size_t in_channels = 3;
    std::size_t image_size = 8;  ///< square images
    std::size_t conv1_channels = 8;
    std::size_t conv2_channels = 16;
    std::size_t groups = 2;
    std::size_t classes = 10;
  };

  CnnClassifier(Config config, std::uint32_t seed);
};

/// Matrix factorization with user/item embeddings and biases (Koren et al.
/// 2009), the paper's MovieLens model. Batch.x is [B, 2] of (user, item)
/// ids; Batch.y is [B] ratings. Accuracy = fraction within 0.5 of target.
class MatrixFactorization final : public SupervisedModel {
 public:
  MatrixFactorization(std::size_t users, std::size_t items, std::size_t dim,
                      float rating_mean, std::uint32_t seed);

  float loss_and_grad(const Batch& batch) override;
  EvalMetrics evaluate(const Batch& batch) override;
  std::vector<Tensor*> parameters() override;
  std::vector<Tensor*> gradients() override;

 private:
  Tensor predict(const Batch& batch) const;

  std::size_t users_, items_, dim_;
  float mean_;
  Tensor user_emb_, item_emb_, user_bias_, item_bias_;
  Tensor g_user_emb_, g_item_emb_, g_user_bias_, g_item_bias_;
};

/// Stacked-LSTM next-character model: Embedding -> LSTM -> LSTM -> Linear.
/// Batch.x is [B, T] token ids; Batch.labels holds B*T next-token targets
/// (row-major). Accuracy = per-character top-1.
class CharLstm final : public SupervisedModel {
 public:
  struct Config {
    std::size_t vocab = 32;
    std::size_t embedding_dim = 16;
    std::size_t hidden = 32;
    std::size_t layers = 2;
  };

  CharLstm(Config config, std::uint32_t seed);

  float loss_and_grad(const Batch& batch) override;
  EvalMetrics evaluate(const Batch& batch) override;
  std::vector<Tensor*> parameters() override;
  std::vector<Tensor*> gradients() override;

 private:
  /// Runs the stack up to logits [B*T, vocab].
  Tensor forward_logits(const Batch& batch);

  Config config_;
  Embedding embedding_;
  std::vector<std::unique_ptr<Lstm>> lstms_;
  Linear head_;
  tensor::Shape cached_lstm_out_shape_;
};

}  // namespace jwins::nn
