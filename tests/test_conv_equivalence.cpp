// nn::Conv2d against the direct reference loops in conv_reference.hpp: the
// forward output, the returned input gradient, grad_weight and grad_bias
// must match byte for byte. The cases cover the cifar shapes, the ConvParam
// gradcheck shapes, stride/padding/kernel mixes on odd image sizes, signed
// zero gradients (skipped, never added as zero), gradient accumulation
// across backward calls, and reuse of a layer and of the per-thread scratch
// at a smaller size after a larger one.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "conv_reference.hpp"
#include "nn/conv.hpp"

namespace jwins::nn {
namespace {

using testref::ConvShape;

::testing::AssertionResult same_bytes(const float* got, const float* want,
                                      std::size_t n) {
  if (std::memcmp(got, want, n * sizeof(float)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(got + i, want + i, sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first mismatch at " << i << " of " << n << ": got " << got[i]
             << ", want " << want[i];
    }
  }
  return ::testing::AssertionFailure();
}

/// Normal draws with every `zero_every`-th entry replaced by an exact zero,
/// alternating +0 and -0 (zero_every = 0 keeps every draw).
Tensor draws(tensor::Shape shape, unsigned seed, std::size_t zero_every) {
  std::mt19937 rng(seed);
  Tensor t = Tensor::normal(std::move(shape), 0.0f, 1.0f, rng);
  if (zero_every > 0) {
    float* p = t.raw();
    for (std::size_t i = 0; i < t.size(); i += zero_every) {
      p[i] = (i / zero_every) % 2 == 0 ? 0.0f : -0.0f;
    }
  }
  return t;
}

struct Layer {
  ConvShape shape;
  Conv2d conv;

  Layer(ConvShape s, unsigned seed) : shape(s), conv(make(s, seed)) {}

  static Conv2d make(const ConvShape& s, unsigned seed) {
    std::mt19937 rng(seed);
    return Conv2d(s.in_ch, s.out_ch, s.kernel, s.stride, s.pad, rng);
  }
  const float* weight() { return conv.params()[0]->raw(); }
  const float* bias() { return conv.params()[1]->raw(); }
  Tensor& grad_weight() { return *conv.grads()[0]; }
  Tensor& grad_bias() { return *conv.grads()[1]; }
};

/// One forward and `backward_calls` backward passes at batch `batch`, each
/// output memcmp'd against the reference. The reference's gradient
/// accumulators start from the layer's, so earlier calls carry over. With
/// `dead_channel`, output channel 0 gets an all-zero (+0/-0) gradient.
void check(Layer& layer, std::size_t batch, unsigned seed,
           std::size_t zero_every, int backward_calls = 1,
           bool dead_channel = false) {
  ConvShape s = layer.shape;
  s.batch = batch;
  const Tensor x = draws({batch, s.in_ch, s.ih, s.iw}, seed, zero_every);
  const Tensor y = layer.conv.forward(x);
  const std::vector<float> y_ref =
      testref::ref_conv_forward(s, x.raw(), layer.weight(), layer.bias());
  ASSERT_EQ(y.shape(), (tensor::Shape{batch, s.out_ch, s.oh(), s.ow()}));
  EXPECT_TRUE(same_bytes(y.raw(), y_ref.data(), y_ref.size())) << "forward";

  std::vector<float> gw_ref(layer.grad_weight().raw(),
                            layer.grad_weight().raw() + layer.grad_weight().size());
  std::vector<float> gb_ref(layer.grad_bias().raw(),
                            layer.grad_bias().raw() + layer.grad_bias().size());
  for (int call = 0; call < backward_calls; ++call) {
    SCOPED_TRACE("backward call " + std::to_string(call));
    Tensor gy =
        draws(y.shape(), seed + 100 + static_cast<unsigned>(call), zero_every);
    const std::size_t plane = s.oh() * s.ow();
    for (std::size_t b = 0; dead_channel && b < batch; ++b) {
      for (std::size_t px = 0; px < plane; ++px) {
        gy.raw()[b * s.out_ch * plane + px] = px % 2 == 0 ? 0.0f : -0.0f;
      }
    }
    const Tensor gx = layer.conv.backward(gy);
    const std::vector<float> gx_ref = testref::ref_conv_backward(
        s, x.raw(), layer.weight(), gy.raw(), gw_ref.data(), gb_ref.data());
    ASSERT_EQ(gx.shape(), x.shape());
    EXPECT_TRUE(same_bytes(gx.raw(), gx_ref.data(), gx_ref.size()))
        << "grad_input";
    EXPECT_TRUE(same_bytes(layer.grad_weight().raw(), gw_ref.data(),
                           gw_ref.size()))
        << "grad_weight";
    EXPECT_TRUE(same_bytes(layer.grad_bias().raw(), gb_ref.data(),
                           gb_ref.size()))
        << "grad_bias";
  }
}

void check_fresh(const ConvShape& s, unsigned seed, std::size_t zero_every = 0) {
  SCOPED_TRACE(::testing::Message()
               << "B=" << s.batch << " ic=" << s.in_ch << " oc=" << s.out_ch
               << " " << s.ih << "x" << s.iw << " k=" << s.kernel
               << " s=" << s.stride << " p=" << s.pad);
  Layer layer(s, seed);
  check(layer, s.batch, seed + 1, zero_every);
}

TEST(ConvEquivalence, CifarShapes) {
  check_fresh({16, 3, 8, 8, 8, 3, 1, 1}, 1);
  check_fresh({16, 8, 16, 4, 4, 3, 1, 1}, 2);
}

TEST(ConvEquivalence, ConvParamShapes) {
  // The five ConvParam gradcheck cases: {in, out, kernel, stride, pad, size}.
  check_fresh({2, 1, 1, 5, 5, 3, 1, 1}, 3);
  check_fresh({2, 2, 3, 6, 6, 3, 1, 1}, 4);
  check_fresh({2, 3, 2, 8, 8, 3, 2, 1}, 5);
  check_fresh({2, 1, 4, 7, 7, 5, 1, 2}, 6);
  check_fresh({2, 2, 2, 4, 4, 1, 1, 0}, 7);
}

TEST(ConvEquivalence, StridePaddingAndKernelMixes) {
  check_fresh({3, 3, 5, 9, 7, 3, 2, 0}, 10);   // stride 2, no padding
  check_fresh({1, 2, 3, 7, 9, 3, 2, 2}, 11);   // stride 2, padding 2
  check_fresh({3, 4, 9, 5, 5, 1, 1, 0}, 12);   // 1x1 kernel
  check_fresh({1, 3, 2, 11, 11, 1, 2, 0}, 13);  // 1x1 kernel, stride 2
  check_fresh({3, 2, 6, 9, 9, 5, 1, 2}, 14);   // 5x5 kernel
  check_fresh({1, 5, 3, 13, 11, 5, 2, 1}, 15);  // 5x5 kernel, stride 2
  check_fresh({3, 1, 17, 3, 3, 3, 1, 2}, 16);  // padding wider than the image
  check_fresh({1, 9, 1, 5, 3, 3, 3, 1}, 17);   // stride 3
  check_fresh({2, 2, 3, 2, 2, 3, 1, 3}, 18);   // output rows with no taps
}

TEST(ConvEquivalence, SignedZeroGradientsAreSkipped) {
  // Every third gradient entry and every fifth input entry is an exact
  // +0 or -0, and output channel 0 gets no non-zero gradient at all. With
  // the accumulators seeded at -0, a skipped term keeps them at -0 while an
  // added +0 product would flip them to +0.
  for (const ConvShape& s : {ConvShape{4, 3, 8, 8, 8, 3, 1, 1},
                             ConvShape{2, 8, 16, 4, 4, 3, 1, 1},
                             ConvShape{3, 2, 5, 7, 9, 3, 2, 2}}) {
    Layer layer(s, 20);
    layer.grad_weight().fill(-0.0f);
    layer.grad_bias().fill(-0.0f);
    check(layer, s.batch, 21, /*zero_every=*/3, 1, /*dead_channel=*/true);
    Layer sparse_input(s, 22);
    check(sparse_input, s.batch, 23, /*zero_every=*/5);
  }
}

TEST(ConvEquivalence, NonFiniteValuesMatchTheReference) {
  // 0 * inf is NaN, so a zero gradient against an infinite weight or input
  // must still be skipped, and NaN payloads must propagate the same way.
  for (const ConvShape& s : {ConvShape{16, 3, 8, 8, 8, 3, 1, 1},
                             ConvShape{3, 4, 3, 5, 7, 3, 2, 1}}) {
    Layer layer(s, 24);
    float* w = layer.conv.params()[0]->raw();
    w[0] = std::numeric_limits<float>::infinity();
    w[4] = -std::numeric_limits<float>::infinity();
    w[7] = std::numeric_limits<float>::quiet_NaN();
    check(layer, s.batch, 25, /*zero_every=*/3);
  }
}

TEST(ConvEquivalence, BackwardAccumulatesWithoutZeroGrad) {
  Layer cifar(ConvShape{16, 8, 16, 4, 4, 3, 1, 1}, 30);
  check(cifar, 16, 31, 0, /*backward_calls=*/2);
  Layer odd(ConvShape{3, 3, 4, 9, 7, 5, 2, 2}, 32);
  check(odd, 3, 33, 4, /*backward_calls=*/2);
}

TEST(ConvEquivalence, DirtyReuseLargerThenSmaller) {
  // The same layer at a larger batch, then a smaller one; then a smaller
  // layer on scratch a wider one has just used.
  Layer layer(ConvShape{16, 3, 8, 8, 8, 3, 1, 1}, 40);
  check(layer, 16, 41, 0);
  check(layer, 3, 42, 0);
  check(layer, 1, 43, 7);
  Layer wide(ConvShape{5, 9, 19, 6, 6, 3, 1, 1}, 44);
  check(wide, 5, 45, 0);
  Layer narrow(ConvShape{2, 2, 3, 5, 5, 3, 2, 1}, 46);
  check(narrow, 2, 47, 0);
}

}  // namespace
}  // namespace jwins::nn
