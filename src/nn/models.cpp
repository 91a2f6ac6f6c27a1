#include "nn/models.hpp"

#include <cmath>
#include <stdexcept>

namespace jwins::nn {

MlpClassifier::MlpClassifier(std::size_t in_features,
                             std::vector<std::size_t> hidden,
                             std::size_t classes, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::size_t prev = in_features;
  for (std::size_t h : hidden) {
    net_.emplace<Linear>(prev, h, rng);
    net_.emplace<ReLU>();
    prev = h;
  }
  net_.emplace<Linear>(prev, classes, rng);
}

float MlpClassifier::loss_and_grad(const Batch& batch) {
  Tensor logits = net_.forward(batch.x);
  LossResult lr = softmax_cross_entropy(logits, batch.labels);
  net_.accumulate_grads(lr.grad);
  return lr.loss;
}

EvalMetrics MlpClassifier::evaluate(const Batch& batch) {
  Tensor logits = net_.forward(batch.x);
  LossResult lr = softmax_cross_entropy(logits, batch.labels);
  return {lr.loss, accuracy(logits, batch.labels), batch.size()};
}

CnnClassifier::CnnClassifier(Config cfg, std::uint32_t seed) {
  if (cfg.image_size % 4 != 0) {
    throw std::invalid_argument("CnnClassifier: image_size must be divisible by 4");
  }
  std::mt19937 rng(seed);
  net_.emplace<Conv2d>(cfg.in_channels, cfg.conv1_channels, 3, 1, 1, rng);
  net_.emplace<GroupNorm>(cfg.groups, cfg.conv1_channels);
  net_.emplace<ReLU>();
  net_.emplace<MaxPool2d>(2, 2);
  net_.emplace<Conv2d>(cfg.conv1_channels, cfg.conv2_channels, 3, 1, 1, rng);
  net_.emplace<GroupNorm>(cfg.groups, cfg.conv2_channels);
  net_.emplace<ReLU>();
  net_.emplace<MaxPool2d>(2, 2);
  net_.emplace<Flatten>();
  const std::size_t spatial = cfg.image_size / 4;
  net_.emplace<Linear>(cfg.conv2_channels * spatial * spatial, cfg.classes, rng);
}

float CnnClassifier::loss_and_grad(const Batch& batch) {
  Tensor logits = net_.forward(batch.x);
  LossResult lr = softmax_cross_entropy(logits, batch.labels);
  net_.accumulate_grads(lr.grad);
  return lr.loss;
}

EvalMetrics CnnClassifier::evaluate(const Batch& batch) {
  Tensor logits = net_.forward(batch.x);
  LossResult lr = softmax_cross_entropy(logits, batch.labels);
  return {lr.loss, accuracy(logits, batch.labels), batch.size()};
}

MatrixFactorization::MatrixFactorization(std::size_t users, std::size_t items,
                                         std::size_t dim, float rating_mean,
                                         std::uint32_t seed)
    : users_(users),
      items_(items),
      dim_(dim),
      mean_(rating_mean),
      user_emb_({users, dim}),
      item_emb_({items, dim}),
      user_bias_({users}),
      item_bias_({items}),
      g_user_emb_({users, dim}),
      g_item_emb_({items, dim}),
      g_user_bias_({users}),
      g_item_bias_({items}) {
  std::mt19937 rng(seed);
  user_emb_ = Tensor::normal({users, dim}, 0.0f, 0.1f, rng);
  item_emb_ = Tensor::normal({items, dim}, 0.0f, 0.1f, rng);
}

Tensor MatrixFactorization::predict(const Batch& batch) const {
  const std::size_t n = batch.size();
  if (batch.x.rank() != 2 || batch.x.dim(1) != 2) {
    throw std::invalid_argument("MatrixFactorization: x must be [B, 2]");
  }
  Tensor pred({n});
  for (std::size_t b = 0; b < n; ++b) {
    const auto u = static_cast<std::size_t>(batch.x[b * 2]);
    const auto it = static_cast<std::size_t>(batch.x[b * 2 + 1]);
    if (u >= users_ || it >= items_) {
      throw std::out_of_range("MatrixFactorization: id out of range");
    }
    double acc = mean_ + user_bias_[u] + item_bias_[it];
    for (std::size_t d = 0; d < dim_; ++d) {
      acc += static_cast<double>(user_emb_[u * dim_ + d]) *
             item_emb_[it * dim_ + d];
    }
    pred[b] = static_cast<float>(acc);
  }
  return pred;
}

float MatrixFactorization::loss_and_grad(const Batch& batch) {
  const std::size_t n = batch.size();
  Tensor pred = predict(batch);
  LossResult lr = mse_loss(pred, batch.y);
  for (std::size_t b = 0; b < n; ++b) {
    const auto u = static_cast<std::size_t>(batch.x[b * 2]);
    const auto it = static_cast<std::size_t>(batch.x[b * 2 + 1]);
    const float g = lr.grad[b];
    g_user_bias_[u] += g;
    g_item_bias_[it] += g;
    for (std::size_t d = 0; d < dim_; ++d) {
      g_user_emb_[u * dim_ + d] += g * item_emb_[it * dim_ + d];
      g_item_emb_[it * dim_ + d] += g * user_emb_[u * dim_ + d];
    }
  }
  return lr.loss;
}

EvalMetrics MatrixFactorization::evaluate(const Batch& batch) {
  Tensor pred = predict(batch);
  LossResult lr = mse_loss(pred, batch.y);
  std::size_t within = 0;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    if (std::fabs(pred[b] - batch.y[b]) <= 0.5f) ++within;
  }
  const double acc = batch.size() == 0
                         ? 0.0
                         : static_cast<double>(within) / batch.size();
  return {lr.loss, acc, batch.size()};
}

std::vector<Tensor*> MatrixFactorization::parameters() {
  return {&user_emb_, &item_emb_, &user_bias_, &item_bias_};
}

std::vector<Tensor*> MatrixFactorization::gradients() {
  return {&g_user_emb_, &g_item_emb_, &g_user_bias_, &g_item_bias_};
}

namespace {

std::mt19937 seeded(std::uint32_t seed, std::uint32_t salt) {
  return std::mt19937(seed ^ (0x9E3779B9u + salt));
}

}  // namespace

CharLstm::CharLstm(Config config, std::uint32_t seed)
    : config_(config),
      embedding_([&] {
        auto rng = seeded(seed, 1);
        return Embedding(config.vocab, config.embedding_dim, rng);
      }()),
      head_([&] {
        auto rng = seeded(seed, 2);
        return Linear(config.hidden, config.vocab, rng);
      }()) {
  if (config.layers == 0) {
    throw std::invalid_argument("CharLstm: needs at least one LSTM layer");
  }
  for (std::size_t l = 0; l < config.layers; ++l) {
    auto rng = seeded(seed, 10 + static_cast<std::uint32_t>(l));
    const std::size_t in_dim = (l == 0) ? config.embedding_dim : config.hidden;
    lstms_.push_back(std::make_unique<Lstm>(in_dim, config.hidden, rng));
  }
}

Tensor CharLstm::forward_logits(const Batch& batch) {
  const std::size_t batch_n = batch.x.dim(0), steps = batch.x.dim(1);
  Tensor h = embedding_.forward(batch.x);  // [B, T, E]
  for (auto& lstm : lstms_) h = lstm->forward(h);
  cached_lstm_out_shape_ = h.shape();
  Tensor flat = h.reshape({batch_n * steps, config_.hidden});
  return head_.forward(flat);  // [B*T, vocab]
}

float CharLstm::loss_and_grad(const Batch& batch) {
  Tensor logits = forward_logits(batch);
  LossResult lr = softmax_cross_entropy(logits, batch.labels);
  Tensor g = head_.backward(lr.grad);
  g = g.reshape(cached_lstm_out_shape_);
  for (auto it = lstms_.rbegin(); it != lstms_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  embedding_.backward(g);
  return lr.loss;
}

EvalMetrics CharLstm::evaluate(const Batch& batch) {
  Tensor logits = forward_logits(batch);
  LossResult lr = softmax_cross_entropy(logits, batch.labels);
  return {lr.loss, accuracy(logits, batch.labels), batch.size()};
}

std::vector<Tensor*> CharLstm::parameters() {
  std::vector<Tensor*> out = embedding_.params();
  for (auto& lstm : lstms_) {
    for (Tensor* p : lstm->params()) out.push_back(p);
  }
  for (Tensor* p : head_.params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> CharLstm::gradients() {
  std::vector<Tensor*> out = embedding_.grads();
  for (auto& lstm : lstms_) {
    for (Tensor* g : lstm->grads()) out.push_back(g);
  }
  for (Tensor* g : head_.grads()) out.push_back(g);
  return out;
}

}  // namespace jwins::nn
