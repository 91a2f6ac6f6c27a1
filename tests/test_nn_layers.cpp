#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "nn/conv.hpp"
#include "nn/gradcheck.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"
#include "nn/rnn.hpp"

namespace jwins::nn {
namespace {

using tensor::Tensor;

Tensor random_input(tensor::Shape shape, unsigned seed) {
  std::mt19937 rng(seed);
  return Tensor::normal(std::move(shape), 0.0f, 1.0f, rng);
}

// ------------------------------------------------------------------- linear

TEST(Linear, ForwardKnownValues) {
  std::mt19937 rng(1);
  Linear layer(2, 2, rng);
  // Overwrite the random init with known weights.
  layer.params()[0]->data()[0] = 1.0f;  // W[0][0]
  layer.params()[0]->data()[1] = 2.0f;  // W[0][1]
  layer.params()[0]->data()[2] = 3.0f;
  layer.params()[0]->data()[3] = 4.0f;
  layer.params()[1]->data()[0] = 0.5f;  // b[0]
  layer.params()[1]->data()[1] = -0.5f;
  const Tensor x = Tensor::from({1, 2}, {10.0f, 20.0f});
  const Tensor y = layer.forward(x);
  EXPECT_FLOAT_EQ(y[0], 10.0f + 40.0f + 0.5f);
  EXPECT_FLOAT_EQ(y[1], 30.0f + 80.0f - 0.5f);
}

TEST(Linear, GradCheck) {
  std::mt19937 rng(2);
  Linear layer(5, 3, rng);
  const auto result = grad_check_module(layer, random_input({4, 5}, 3));
  // float32 sums over the batch leave ~1e-2 relative noise in the numeric
  // reference; real gradient bugs show up as 10-100% errors.
  EXPECT_TRUE(result.ok(5e-2)) << "max rel err = " << result.max_rel_error;
}

TEST(Linear, RejectsWrongInputShape) {
  std::mt19937 rng(1);
  Linear layer(4, 2, rng);
  EXPECT_THROW(layer.forward(Tensor({2, 3})), std::invalid_argument);
  EXPECT_THROW(layer.forward(Tensor({4})), std::invalid_argument);
}

TEST(Linear, GradientAccumulatesAcrossBackwardCalls) {
  std::mt19937 rng(4);
  Linear layer(2, 2, rng);
  const Tensor x = random_input({3, 2}, 5);
  layer.forward(x);
  layer.backward(Tensor({3, 2}, 1.0f));
  const float after_one = (*layer.grads()[0])[0];
  layer.forward(x);
  layer.backward(Tensor({3, 2}, 1.0f));
  EXPECT_NEAR((*layer.grads()[0])[0], 2.0f * after_one, 1e-4f);
  layer.zero_grad();
  EXPECT_FLOAT_EQ((*layer.grads()[0])[0], 0.0f);
}

// -------------------------------------------------------------- activations

TEST(ReLU, ForwardAndGradCheck) {
  ReLU relu;
  const Tensor x = Tensor::of({-1.0f, 0.5f, 2.0f});
  const Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  // Gradient check away from the kink at 0.
  ReLU fresh;
  Tensor input = random_input({2, 6}, 6);
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (std::fabs(input[i]) < 0.05f) input[i] = 0.2f;
  }
  const auto result = grad_check_module(fresh, input);
  EXPECT_TRUE(result.ok()) << result.max_rel_error;
}

TEST(ReLU, SignedZeroAndNaNAtTheKink) {
  // Forward zeroes x < 0 (so -0 stays -0); backward zeroes the gradient
  // where x <= 0 and lets NaN inputs through, as max(x, 0) did with the
  // cached input.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  ReLU relu;
  const Tensor y = relu.forward(Tensor::of({-1.0f, -0.0f, 0.0f, nan, 2.0f}));
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_TRUE(std::signbit(y[1]));
  EXPECT_TRUE(std::isnan(y[3]));
  EXPECT_EQ(y[4], 2.0f);
  const Tensor g = relu.backward(Tensor::of({1.0f, 2.0f, 3.0f, 4.0f, 5.0f}));
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[1], 0.0f);
  EXPECT_EQ(g[2], 0.0f);
  EXPECT_EQ(g[3], 4.0f);
  EXPECT_EQ(g[4], 5.0f);
  EXPECT_THROW(relu.backward(Tensor::of({1.0f, 2.0f})), std::invalid_argument);
  EXPECT_THROW(ReLU().backward(Tensor()), std::invalid_argument);
}

TEST(Tanh, GradCheck) {
  Tanh layer;
  const auto result = grad_check_module(layer, random_input({3, 4}, 7));
  EXPECT_TRUE(result.ok()) << result.max_rel_error;
}

TEST(Sigmoid, GradCheckAndRange) {
  Sigmoid layer;
  const Tensor y = layer.forward(random_input({2, 8}, 8));
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_GT(y[i], 0.0f);
    EXPECT_LT(y[i], 1.0f);
  }
  Sigmoid fresh;
  const auto result = grad_check_module(fresh, random_input({2, 8}, 9));
  EXPECT_TRUE(result.ok()) << result.max_rel_error;
}

TEST(Flatten, RoundTripShape) {
  Flatten layer;
  const Tensor x = random_input({2, 3, 4, 5}, 10);
  const Tensor y = layer.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 60}));
  const Tensor back = layer.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
}

// --------------------------------------------------------------------- conv

struct ConvCase {
  std::size_t in_ch, out_ch, kernel, stride, pad, size;
};

class ConvParam : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParam, GradCheck) {
  const auto c = GetParam();
  std::mt19937 rng(31);
  Conv2d layer(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad, rng);
  const auto result =
      grad_check_module(layer, random_input({2, c.in_ch, c.size, c.size}, 32));
  // float32 accumulations through many terms: allow 5% relative slack.
  EXPECT_TRUE(result.ok(5e-2)) << "max rel err = " << result.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvParam,
                         ::testing::Values(ConvCase{1, 1, 3, 1, 1, 5},
                                           ConvCase{2, 3, 3, 1, 1, 6},
                                           ConvCase{3, 2, 3, 2, 1, 8},
                                           ConvCase{1, 4, 5, 1, 2, 7},
                                           ConvCase{2, 2, 1, 1, 0, 4}));

TEST(Conv2d, IdentityKernelPreservesInput) {
  std::mt19937 rng(33);
  Conv2d layer(1, 1, 1, 1, 0, rng);
  layer.params()[0]->data()[0] = 1.0f;  // 1x1 kernel = identity
  layer.params()[1]->data()[0] = 0.0f;
  const Tensor x = random_input({1, 1, 4, 4}, 34);
  const Tensor y = layer.forward(x);
  EXPECT_TRUE(tensor::allclose(x, y.reshape(x.shape()), 1e-6f));
}

TEST(Conv2d, OutputShape) {
  std::mt19937 rng(35);
  Conv2d layer(3, 8, 3, 1, 1, rng);
  const Tensor y = layer.forward(random_input({2, 3, 8, 8}, 36));
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 8, 8, 8}));
  Conv2d strided(3, 4, 3, 2, 0, rng);
  const Tensor y2 = strided.forward(random_input({1, 3, 9, 9}, 37));
  EXPECT_EQ(y2.shape(), (tensor::Shape{1, 4, 4, 4}));
}

TEST(Conv2d, BackwardRejectsMismatchedGradShape) {
  std::mt19937 rng(38);
  Conv2d layer(3, 4, 3, 1, 1, rng);
  // Before any forward there is no cached input to match against.
  EXPECT_THROW(layer.backward(Tensor({2, 4, 6, 6})), std::invalid_argument);
  (void)layer.forward(random_input({2, 3, 6, 6}, 39));
  EXPECT_NO_THROW(layer.backward(Tensor({2, 4, 6, 6})));
  const tensor::Shape wrong[] = {
      {2, 4, 7, 6}, {2, 4, 6, 7}, {2, 4, 5, 6},  // spatial extent
      {3, 4, 6, 6}, {2, 5, 6, 6},                // batch, channels
      {2, 4, 36},   {2, 4, 6, 6, 1},             // rank
  };
  for (const tensor::Shape& shape : wrong) {
    EXPECT_THROW(layer.backward(Tensor(shape)), std::invalid_argument)
        << tensor::to_string(shape);
  }
}

TEST(MaxPool2d, ForwardSelectsMaxAndRoutesGradient) {
  MaxPool2d pool(2, 2);
  const Tensor x = Tensor::from({1, 1, 2, 4}, {1, 5, 2, 0,
                                               3, 4, 8, 7});
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
  const Tensor g = pool.backward(Tensor::from({1, 1, 1, 2}, {10.0f, 20.0f}));
  EXPECT_FLOAT_EQ(g[1], 10.0f);  // position of 5
  EXPECT_FLOAT_EQ(g[6], 20.0f);  // position of 8
  EXPECT_FLOAT_EQ(g[0], 0.0f);
}

TEST(MaxPool2d, GradCheckOnDistinctValues) {
  // Use well-separated values so the argmax is stable under epsilon nudges.
  MaxPool2d pool(2, 2);
  std::mt19937 rng(40);
  Tensor x({1, 2, 4, 4});
  std::vector<std::size_t> perm(x.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::shuffle(perm.begin(), perm.end(), rng);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(perm[i]);  // all distinct, gaps of >= 1
  }
  const auto result = grad_check_module(pool, x);
  EXPECT_TRUE(result.ok()) << result.max_rel_error;
}

TEST(GroupNorm, NormalizesPerGroup) {
  GroupNorm gn(2, 4);
  const Tensor x = random_input({2, 4, 3, 3}, 41);
  const Tensor y = gn.forward(x);
  // With gamma=1, beta=0 each (sample, group) slice has ~zero mean, unit var.
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t g = 0; g < 2; ++g) {
      double mean = 0.0, var = 0.0;
      const std::size_t group_elems = 2 * 3 * 3;
      for (std::size_t cc = 0; cc < 2; ++cc) {
        for (std::size_t i = 0; i < 9; ++i) {
          mean += y[((b * 4 + g * 2 + cc) * 9) + i];
        }
      }
      mean /= group_elems;
      for (std::size_t cc = 0; cc < 2; ++cc) {
        for (std::size_t i = 0; i < 9; ++i) {
          const double d = y[((b * 4 + g * 2 + cc) * 9) + i] - mean;
          var += d * d;
        }
      }
      var /= group_elems;
      EXPECT_NEAR(mean, 0.0, 1e-4);
      EXPECT_NEAR(var, 1.0, 1e-2);
    }
  }
}

TEST(GroupNorm, GradCheck) {
  GroupNorm gn(2, 4);
  // With the default gamma == 1 the checker's sum-of-outputs objective is
  // identically constant (normalized values sum to zero per group), so the
  // true gradient is zero and the check compares pure float noise. Distinct
  // per-channel affine parameters make the objective informative.
  const float gammas[4] = {0.5f, 1.5f, 0.8f, 1.2f};
  const float betas[4] = {0.1f, -0.2f, 0.3f, 0.0f};
  for (std::size_t c = 0; c < 4; ++c) {
    (*gn.params()[0])[c] = gammas[c];
    (*gn.params()[1])[c] = betas[c];
  }
  const auto result = grad_check_module(gn, random_input({2, 4, 2, 2}, 42));
  EXPECT_TRUE(result.ok(5e-2)) << "max rel err = " << result.max_rel_error;
}

TEST(GroupNorm, RejectsIndivisibleChannels) {
  EXPECT_THROW(GroupNorm(3, 4), std::invalid_argument);
  EXPECT_THROW(GroupNorm(0, 4), std::invalid_argument);
}

// ---------------------------------------------------------------- embedding

TEST(Embedding, LookupAndGradient) {
  std::mt19937 rng(50);
  Embedding emb(5, 3, rng);
  const Tensor tokens = Tensor::from({2, 2}, {0.0f, 4.0f, 4.0f, 1.0f});
  const Tensor out = emb.forward(tokens);
  EXPECT_EQ(out.shape(), (tensor::Shape{2, 2, 3}));
  // Row 4 appears twice.
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_FLOAT_EQ(out[(0 * 2 + 1) * 3 + d], (*emb.params()[0])[4 * 3 + d]);
    EXPECT_FLOAT_EQ(out[(1 * 2 + 0) * 3 + d], (*emb.params()[0])[4 * 3 + d]);
  }
  emb.zero_grad();
  emb.backward(Tensor({2, 2, 3}, 1.0f));
  // Token 4 used twice -> gradient 2 per dim; token 2 unused -> 0.
  EXPECT_FLOAT_EQ((*emb.grads()[0])[4 * 3], 2.0f);
  EXPECT_FLOAT_EQ((*emb.grads()[0])[2 * 3], 0.0f);
  EXPECT_FLOAT_EQ((*emb.grads()[0])[0 * 3], 1.0f);
}

TEST(Embedding, OutOfVocabThrows) {
  std::mt19937 rng(51);
  Embedding emb(3, 2, rng);
  EXPECT_THROW(emb.forward(Tensor::from({1, 1}, {7.0f})), std::out_of_range);
}

// --------------------------------------------------------------------- lstm

TEST(Lstm, OutputShapeAndRange) {
  std::mt19937 rng(60);
  Lstm lstm(3, 5, rng);
  const Tensor y = lstm.forward(random_input({2, 4, 3}, 61));
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 4, 5}));
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_GT(y[i], -1.0f);  // |h| = |o * tanh(c)| < 1
    EXPECT_LT(y[i], 1.0f);
  }
}

TEST(Lstm, GradCheckSingleStep) {
  std::mt19937 rng(62);
  Lstm lstm(2, 3, rng);
  const auto result = grad_check_module(lstm, random_input({2, 1, 2}, 63));
  EXPECT_TRUE(result.ok()) << "max rel err = " << result.max_rel_error;
}

TEST(Lstm, GradCheckMultiStepBptt) {
  std::mt19937 rng(64);
  Lstm lstm(2, 3, rng);
  const auto result = grad_check_module(lstm, random_input({2, 5, 2}, 65));
  EXPECT_TRUE(result.ok(5e-2)) << "max rel err = " << result.max_rel_error;
}

TEST(Lstm, StateCarriesAcrossTimesteps) {
  // Feeding the same input at two timesteps must NOT produce identical
  // outputs (the recurrent state evolves).
  std::mt19937 rng(66);
  Lstm lstm(2, 4, rng);
  Tensor x({1, 2, 2});
  x[0] = x[2] = 0.7f;
  x[1] = x[3] = -0.3f;
  const Tensor y = lstm.forward(x);
  bool differs = false;
  for (std::size_t j = 0; j < 4; ++j) {
    if (std::fabs(y[j] - y[4 + j]) > 1e-6f) differs = true;
  }
  EXPECT_TRUE(differs);
}

// --------------------------------------------------------------- sequential

TEST(Sequential, ComposesForwardBackward) {
  std::mt19937 rng(70);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(net.layer_count(), 3u);
  EXPECT_EQ(net.params().size(), 4u);  // two Linears x (W, b)
  const auto result = grad_check_module(net, random_input({3, 4}, 71));
  EXPECT_TRUE(result.ok()) << result.max_rel_error;
}

/// Two stacks built from the same seed: a GN-LeNet-style CNN stage (conv1 at
/// the bottom) and an MLP behind a parameter-free Flatten.
Sequential make_stack(bool cnn) {
  std::mt19937 rng(72);
  Sequential net;
  if (cnn) {
    net.emplace<Conv2d>(2, 4, 3, 1, 1, rng);
    net.emplace<GroupNorm>(2, 4);
    net.emplace<ReLU>();
    net.emplace<MaxPool2d>(2, 2);
    net.emplace<Flatten>();
    net.emplace<Linear>(4 * 2 * 2, 3, rng);
  } else {
    net.emplace<Flatten>();
    net.emplace<Linear>(4, 6, rng);
    net.emplace<ReLU>();
    net.emplace<Linear>(6, 2, rng);
  }
  return net;
}

TEST(Sequential, AccumulateGradsMatchesBackwardBitForBit) {
  // accumulate_grads() skips the bottom layer's input gradient and the
  // parameter-free layers below it; every parameter gradient is unchanged.
  for (const bool cnn : {true, false}) {
    SCOPED_TRACE(cnn ? "cnn" : "mlp");
    Sequential a = make_stack(cnn), b = make_stack(cnn);
    const Tensor x = random_input(cnn ? tensor::Shape{3, 2, 4, 4}
                                      : tensor::Shape{3, 1, 2, 2},
                                  73);
    for (int call = 0; call < 2; ++call) {  // accumulates across calls
      const Tensor ya = a.forward(x);
      (void)b.forward(x);
      const Tensor gy = random_input(ya.shape(), 74 + call);
      (void)a.backward(gy);
      b.accumulate_grads(gy);
    }
    const std::vector<Tensor*> ga = a.grads(), gb = b.grads();
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t i = 0; i < ga.size(); ++i) {
      ASSERT_EQ(ga[i]->size(), gb[i]->size());
      EXPECT_EQ(std::memcmp(ga[i]->raw(), gb[i]->raw(),
                            ga[i]->size() * sizeof(float)),
                0)
          << "gradient " << i;
    }
  }
}

}  // namespace
}  // namespace jwins::nn
