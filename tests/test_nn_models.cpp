#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "algo/full_sharing.hpp"
#include "gradcheck.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/sgd.hpp"
#include "test_util.hpp"

namespace jwins::nn {
namespace {

using tensor::Tensor;

// -------------------------------------------------------------------- loss

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  const Tensor logits({4, 10});  // all-zero logits -> uniform distribution
  const std::vector<std::int32_t> labels{0, 3, 5, 9};
  const LossResult lr = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(lr.loss, std::log(10.0f), 1e-5f);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow) {
  std::mt19937 rng(1);
  const Tensor logits = Tensor::normal({3, 5}, 0.0f, 2.0f, rng);
  const std::vector<std::int32_t> labels{1, 0, 4};
  const LossResult lr = softmax_cross_entropy(logits, labels);
  for (std::size_t b = 0; b < 3; ++b) {
    float row = 0.0f;
    for (std::size_t c = 0; c < 5; ++c) row += lr.grad[b * 5 + c];
    EXPECT_NEAR(row, 0.0f, 1e-5f);
  }
}

TEST(SoftmaxCrossEntropy, NumericallyStableOnHugeLogits) {
  Tensor logits({1, 3});
  logits[0] = 1000.0f;
  logits[1] = 999.0f;
  logits[2] = -1000.0f;
  const std::vector<std::int32_t> labels{0};
  const LossResult lr = softmax_cross_entropy(logits, labels);
  EXPECT_TRUE(std::isfinite(lr.loss));
  EXPECT_LT(lr.loss, 1.0f);
}

TEST(SoftmaxCrossEntropy, LabelOutOfRangeThrows) {
  const Tensor logits({1, 3});
  const std::vector<std::int32_t> labels{5};
  EXPECT_THROW(softmax_cross_entropy(logits, labels), std::out_of_range);
}

TEST(Softmax, RowsSumToOne) {
  std::mt19937 rng(2);
  const Tensor probs = softmax(Tensor::normal({4, 7}, 0.0f, 3.0f, rng));
  for (std::size_t b = 0; b < 4; ++b) {
    float row = 0.0f;
    for (std::size_t c = 0; c < 7; ++c) row += probs[b * 7 + c];
    EXPECT_NEAR(row, 1.0f, 1e-5f);
  }
}

TEST(MseLoss, KnownValueAndGradient) {
  const Tensor pred = Tensor::of({1.0f, 2.0f});
  const Tensor target = Tensor::of({0.0f, 4.0f});
  const LossResult lr = mse_loss(pred, target);
  EXPECT_NEAR(lr.loss, (1.0f + 4.0f) / 2.0f, 1e-6f);
  EXPECT_NEAR(lr.grad[0], 2.0f * 1.0f / 2.0f, 1e-6f);
  EXPECT_NEAR(lr.grad[1], 2.0f * -2.0f / 2.0f, 1e-6f);
}

TEST(Accuracy, CountsTop1) {
  Tensor logits({2, 3});
  logits[0] = 0.1f; logits[1] = 0.9f; logits[2] = 0.0f;  // pred 1
  logits[3] = 2.0f; logits[4] = 0.0f; logits[5] = 1.0f;  // pred 0
  const std::vector<std::int32_t> labels{1, 2};
  EXPECT_NEAR(accuracy(logits, labels), 0.5, 1e-9);
}

// ---------------------------------------------------------------------- sgd

/// A model over caller-owned tensors: once flattened they view its buffers,
/// so the tests read the optimizer's updates through them.
class ListedModel final : public SupervisedModel {
 public:
  ListedModel(std::vector<Tensor*> params, std::vector<Tensor*> grads)
      : params_(std::move(params)), grads_(std::move(grads)) {}
  float loss_and_grad(const Batch&) override { return 0.0f; }
  EvalMetrics evaluate(const Batch&) override { return {}; }
  std::vector<Tensor*> parameters() override { return params_; }
  std::vector<Tensor*> gradients() override { return grads_; }

 private:
  std::vector<Tensor*> params_, grads_;
};

TEST(Sgd, PlainStep) {
  Tensor p = Tensor::of({1.0f, 2.0f});
  Tensor g = Tensor::of({0.5f, -1.0f});
  ListedModel model({&p}, {&g});
  Sgd opt(model, {.learning_rate = 0.1f});
  opt.step();
  EXPECT_FLOAT_EQ(p[0], 1.0f - 0.05f);
  EXPECT_FLOAT_EQ(p[1], 2.0f + 0.1f);
}

TEST(Sgd, MismatchedShapesThrow) {
  Tensor p({2}), g({3});
  ListedModel shapes({&p}, {&g});
  EXPECT_THROW(Sgd(shapes, {}), std::invalid_argument);
  Tensor q({2}), g2({2});
  ListedModel counts({&q}, {&g2, &g2});
  EXPECT_THROW(Sgd(counts, {}), std::invalid_argument);
}

// --------------------------------------------------------------------- flat

/// Four 4-feature samples, two per class.
Batch mlp_batch() {
  Batch b;
  b.x = Tensor::from({4, 4}, {1, 0, 0, 1, 0, 1, 1, 0, 2, 0, 1, 0, 0, 2, 0, 1});
  b.labels = {0, 1, 0, 1};
  return b;
}

TEST(FlatParams, RoundTrip) {
  // The parameter and gradient tensors are views laid back to back, in
  // parameters() order, over flat_params() and flat_grads().
  MlpClassifier model(4, {3}, 2, /*seed=*/5);
  const std::span<float> flat = model.flat_params();
  const std::span<float> grads = model.flat_grads();
  ASSERT_EQ(grads.size(), flat.size());
  const std::vector<Tensor*> params = model.parameters();
  const std::vector<Tensor*> gradients = model.gradients();
  std::size_t offset = 0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(params[i]->raw(), flat.data() + offset) << "parameter " << i;
    EXPECT_EQ(gradients[i]->raw(), grads.data() + offset) << "gradient " << i;
    offset += params[i]->size();
  }
  EXPECT_EQ(offset, flat.size());
  EXPECT_EQ(model.parameter_count(), 4u * 3 + 3 + 3 * 2 + 2);

  // A write through the span is the model loss_and_grad runs: all-zero
  // weights give uniform logits, so the loss is log(2) and dL/db2 is
  // p - onehot summed over the balanced batch, i.e. zero.
  std::fill(flat.begin(), flat.end(), 0.0f);
  model.zero_grad();
  EXPECT_NEAR(model.loss_and_grad(mlp_batch()), std::log(2.0f), 1e-6f);
  const Tensor& grad_b2 = *gradients.back();
  EXPECT_NEAR(grad_b2[0], 0.0f, 1e-6f);
  EXPECT_NEAR(grad_b2[1], 0.0f, 1e-6f);
  EXPECT_TRUE(std::ranges::all_of(flat, [](float v) { return v == 0.0f; }));
}

TEST(FlatParams, SizeMismatchThrows) {
  // DlNode's flat copies and the model's slot bind check the length.
  testutil::DummyDataset dataset;
  algo::FullSharingNode node(
      0, std::make_unique<MlpClassifier>(4, std::vector<std::size_t>{3}, 2, 5),
      data::Sampler(dataset, {0, 1, 2, 3}, 4, 1), algo::TrainConfig{});
  const std::size_t n = node.param_count();
  std::vector<float> wrong(n + 1);
  EXPECT_THROW(node.set_flat_params(wrong), std::invalid_argument);
  EXPECT_THROW(node.flat_params_into(std::span<float>(wrong)),
               std::invalid_argument);
  EXPECT_THROW(node.model().bind_params(wrong), std::invalid_argument);
  std::vector<float> right(n, 0.5f);
  node.set_flat_params(right);
  EXPECT_EQ(node.flat_params(), right);
}

// ------------------------------------------------------------------- models

Batch classification_batch(std::size_t n, std::size_t channels,
                           std::size_t side, std::size_t classes,
                           unsigned seed) {
  std::mt19937 rng(seed);
  Batch b;
  b.x = Tensor::normal({n, channels, side, side}, 0.0f, 1.0f, rng);
  b.labels.resize(n);
  std::uniform_int_distribution<std::int32_t> dist(0, static_cast<int>(classes) - 1);
  for (auto& l : b.labels) l = dist(rng);
  return b;
}

TEST(MlpClassifier, GradCheck) {
  MlpClassifier model(6, {8}, 3, /*seed=*/5);
  std::mt19937 rng(6);
  Batch b;
  b.x = Tensor::normal({4, 6}, 0.0f, 1.0f, rng);
  b.labels = {0, 1, 2, 1};
  const auto result = grad_check_model(model, b);
  EXPECT_TRUE(result.ok(5e-2)) << result.max_rel_error;
}

TEST(MlpClassifier, TrainingReducesLoss) {
  MlpClassifier model(4, {16}, 2, /*seed=*/7);
  // Two linearly separable blobs.
  std::mt19937 rng(8);
  Batch b;
  b.x = Tensor({32, 4});
  b.labels.resize(32);
  std::normal_distribution<float> noise(0.0f, 0.3f);
  for (std::size_t i = 0; i < 32; ++i) {
    const std::int32_t label = static_cast<std::int32_t>(i % 2);
    b.labels[i] = label;
    for (std::size_t d = 0; d < 4; ++d) {
      b.x[i * 4 + d] = (label == 0 ? 1.0f : -1.0f) + noise(rng);
    }
  }
  Sgd opt(model, {.learning_rate = 0.2f});
  const double before = model.evaluate(b).loss;
  for (int step = 0; step < 60; ++step) {
    model.zero_grad();
    model.loss_and_grad(b);
    opt.step();
  }
  const EvalMetrics after = model.evaluate(b);
  EXPECT_LT(after.loss, before * 0.2);
  EXPECT_GT(after.accuracy, 0.95);
}

TEST(CnnClassifier, GradCheck) {
  CnnClassifier::Config cfg;
  cfg.in_channels = 1;
  cfg.image_size = 4;
  cfg.conv1_channels = 2;
  cfg.conv2_channels = 4;
  cfg.groups = 2;
  cfg.classes = 3;
  CnnClassifier model(cfg, /*seed=*/9);
  Batch b = classification_batch(2, 1, 4, 3, 10);
  const auto result = grad_check_model(model, b, /*epsilon=*/2e-3);
  EXPECT_TRUE(result.ok(5e-2)) << result.max_rel_error;
}

TEST(CnnClassifier, RejectsBadImageSize) {
  CnnClassifier::Config cfg;
  cfg.image_size = 6;  // not divisible by 4
  EXPECT_THROW(CnnClassifier(cfg, 1), std::invalid_argument);
}

TEST(CnnClassifier, IdenticalSeedsGiveIdenticalParams) {
  CnnClassifier::Config cfg;
  CnnClassifier a(cfg, 33), b(cfg, 33);
  EXPECT_TRUE(std::ranges::equal(a.flat_params(), b.flat_params()));
}

TEST(CnnClassifier, TrainStepsArePinned) {
  // Eight SGD steps of the cifar configuration at batch 16, pinned to a
  // literal FNV-1a digest of every step's loss bits and the final parameter
  // bytes. Any change to the order or precision in which a layer adds its
  // terms shows up here.
  CnnClassifier::Config cfg;  // the cifar workload's model
  CnnClassifier model(cfg, /*seed=*/21);
  Sgd opt(model, Sgd::Options{.learning_rate = 0.05f});
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 0x100000001b3ull;
  };
  for (unsigned step = 0; step < 8; ++step) {
    const Batch b = classification_batch(16, 3, 8, 10, 500 + step);
    model.zero_grad();
    const float loss = model.loss_and_grad(b);
    mix(&loss, sizeof loss);
    opt.step();
  }
  for (const Tensor* p : model.parameters()) {
    mix(p->raw(), p->size() * sizeof(float));
  }
  EXPECT_EQ(h, 0x1bf74facd6c6869aull) << std::hex << "digest 0x" << h;
}

TEST(MatrixFactorization, GradCheck) {
  MatrixFactorization model(4, 5, 3, /*rating_mean=*/3.0f, /*seed=*/11);
  Batch b;
  b.x = Tensor::from({3, 2}, {0, 1, 2, 4, 3, 0});
  b.y = Tensor::of({4.0f, 2.5f, 3.5f});
  const auto result = grad_check_model(model, b);
  EXPECT_TRUE(result.ok(5e-2)) << result.max_rel_error;
}

TEST(MatrixFactorization, LearnsSimpleRatings) {
  MatrixFactorization model(2, 2, 2, 3.0f, /*seed=*/12);
  Batch b;
  b.x = Tensor::from({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  b.y = Tensor::of({5.0f, 1.0f, 1.0f, 5.0f});
  Sgd opt(model, {.learning_rate = 0.15f});
  for (int step = 0; step < 400; ++step) {
    model.zero_grad();
    model.loss_and_grad(b);
    opt.step();
  }
  const EvalMetrics m = model.evaluate(b);
  EXPECT_LT(m.loss, 0.1);
  EXPECT_GT(m.accuracy, 0.99);  // all within 0.5
}

TEST(MatrixFactorization, IdOutOfRangeThrows) {
  MatrixFactorization model(2, 2, 2, 3.0f, 13);
  Batch b;
  b.x = Tensor::from({1, 2}, {5, 0});
  b.y = Tensor::of({3.0f});
  EXPECT_THROW(model.loss_and_grad(b), std::out_of_range);
}

TEST(CharLstm, GradCheck) {
  CharLstm::Config cfg;
  cfg.vocab = 6;
  cfg.embedding_dim = 4;
  cfg.hidden = 5;
  cfg.layers = 2;
  CharLstm model(cfg, /*seed=*/14);
  Batch b;
  b.x = Tensor::from({2, 3}, {0, 1, 2, 3, 4, 5});
  b.labels = {1, 2, 3, 4, 5, 0};
  const auto result = grad_check_model(model, b, 1e-2);
  EXPECT_TRUE(result.ok(8e-2)) << result.max_rel_error;
}

TEST(CharLstm, LearnsDeterministicCycle) {
  // Sequence 0 -> 1 -> 2 -> 0 is perfectly predictable.
  CharLstm::Config cfg;
  cfg.vocab = 3;
  cfg.embedding_dim = 6;
  cfg.hidden = 12;
  cfg.layers = 1;
  CharLstm model(cfg, /*seed=*/15);
  Batch b;
  b.x = Tensor::from({2, 6}, {0, 1, 2, 0, 1, 2, 1, 2, 0, 1, 2, 0});
  b.labels = {1, 2, 0, 1, 2, 0, 2, 0, 1, 2, 0, 1};
  Sgd opt(model, {.learning_rate = 0.5f});
  for (int step = 0; step < 150; ++step) {
    model.zero_grad();
    model.loss_and_grad(b);
    opt.step();
  }
  const EvalMetrics m = model.evaluate(b);
  EXPECT_GT(m.accuracy, 0.9);
}

TEST(CharLstm, ParameterCountMatchesArchitecture) {
  CharLstm::Config cfg;
  cfg.vocab = 10;
  cfg.embedding_dim = 4;
  cfg.hidden = 8;
  cfg.layers = 2;
  CharLstm model(cfg, 16);
  // embedding 10*4; lstm1 4*8*(4+8)+4*8; lstm2 4*8*(8+8)+4*8; head 8*10+10.
  const std::size_t expected = 40 + (32 * 12 + 32) + (32 * 16 + 32) + 90;
  EXPECT_EQ(model.parameter_count(), expected);
}

TEST(GradCheckModel, FlagsBrokenGradients) {
  // Sanity check that the checker itself can fail: a model with a wrong
  // gradient must be caught.
  class Broken final : public SupervisedModel {
   public:
    float loss_and_grad(const Batch&) override {
      g_[0] += 999.0f;  // wrong on purpose
      return x_[0] * x_[0];
    }
    EvalMetrics evaluate(const Batch&) override {
      return {static_cast<double>(x_[0]) * x_[0], 0.0, 1};
    }
    std::vector<tensor::Tensor*> parameters() override { return {&x_}; }
    std::vector<tensor::Tensor*> gradients() override { return {&g_}; }

   private:
    Tensor x_{tensor::Shape{1}, 2.0f};
    Tensor g_{tensor::Shape{1}};
  };
  Broken model;
  Batch b;
  b.x = Tensor({1, 1});
  const auto result = grad_check_model(model, b);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace jwins::nn
