#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <utility>

namespace jwins::tensor {
namespace {

TEST(TensorShape, NumelAndToString) {
  EXPECT_EQ(numel({}), 1u);
  EXPECT_EQ(numel({4}), 4u);
  EXPECT_EQ(numel({2, 3, 4}), 24u);
  EXPECT_EQ(to_string({2, 3}), "[2, 3]");
  EXPECT_EQ(to_string({}), "[]");
}

TEST(TensorConstruct, DefaultIsScalarZero) {
  Tensor t;
  EXPECT_EQ(t.rank(), 0u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FLOAT_EQ(t[0], 0.0f);
}

TEST(TensorConstruct, ZeroInitialized) {
  Tensor t({3, 4});
  EXPECT_EQ(t.size(), 12u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(TensorConstruct, FillValue) {
  Tensor t({2, 2}, 3.5f);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(t[i], 3.5f);
}

TEST(TensorConstruct, FromVectorChecksSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}),
               std::invalid_argument);
}

TEST(TensorConstruct, OfAndFrom) {
  Tensor a = Tensor::of({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(a.shape(), (Shape{3}));
  Tensor b = Tensor::from({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_FLOAT_EQ(b.at({1, 0}), 3.0f);
}

TEST(TensorConstruct, RandomFills) {
  std::mt19937 rng(7);
  Tensor u = Tensor::uniform({1000}, -1.0f, 1.0f, rng);
  EXPECT_GE(u.min(), -1.0f);
  EXPECT_LE(u.max(), 1.0f);
  EXPECT_NEAR(u.mean(), 0.0f, 0.1f);
  Tensor n = Tensor::normal({1000}, 2.0f, 0.5f, rng);
  EXPECT_NEAR(n.mean(), 2.0f, 0.1f);
}

TEST(TensorConstruct, DeterministicGivenSeed) {
  std::mt19937 rng1(42), rng2(42);
  Tensor a = Tensor::normal({64}, 0.0f, 1.0f, rng1);
  Tensor b = Tensor::normal({64}, 0.0f, 1.0f, rng2);
  EXPECT_TRUE(allclose(a, b, 0.0f));
}

TEST(TensorAccess, MultiDimOffsets) {
  Tensor t = Tensor::from({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_FLOAT_EQ(t.at({0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(t.at({0, 2}), 2.0f);
  EXPECT_FLOAT_EQ(t.at({1, 1}), 4.0f);
  EXPECT_THROW(t.at({2, 0}), std::out_of_range);
  EXPECT_THROW(t.at({0}), std::invalid_argument);
}

TEST(TensorReshape, PreservesData) {
  Tensor t = Tensor::from({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r = t.reshape({3, 2});
  EXPECT_FLOAT_EQ(r.at({2, 1}), 5.0f);
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(TensorTranspose, TwoByThree) {
  Tensor t = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor tt = t.transposed();
  EXPECT_EQ(tt.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(tt.at({0, 1}), 4.0f);
  EXPECT_FLOAT_EQ(tt.at({2, 0}), 3.0f);
  EXPECT_THROW(Tensor({2, 2, 2}).transposed(), std::invalid_argument);
}

TEST(TensorArithmetic, ElementwiseOps) {
  Tensor a = Tensor::of({1, 2, 3});
  Tensor b = Tensor::of({4, 5, 6});
  Tensor sum = a + b;
  EXPECT_TRUE(allclose(sum, Tensor::of({5, 7, 9})));
  Tensor diff = b - a;
  EXPECT_TRUE(allclose(diff, Tensor::of({3, 3, 3})));
  Tensor prod = a * b;
  EXPECT_TRUE(allclose(prod, Tensor::of({4, 10, 18})));
  Tensor scaled = a * 2.0f;
  EXPECT_TRUE(allclose(scaled, Tensor::of({2, 4, 6})));
  Tensor scaled2 = 3.0f * a;
  EXPECT_TRUE(allclose(scaled2, Tensor::of({3, 6, 9})));
}

TEST(TensorArithmetic, ShapeMismatchThrows) {
  Tensor a({2}), b({3});
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW(a *= b, std::invalid_argument);
  EXPECT_THROW(a.axpy(1.0f, b), std::invalid_argument);
}

TEST(TensorArithmetic, Axpy) {
  Tensor a = Tensor::of({1, 2});
  Tensor b = Tensor::of({10, 20});
  a.axpy(0.5f, b);
  EXPECT_TRUE(allclose(a, Tensor::of({6, 12})));
}

TEST(TensorReductions, SumMeanMinMaxNorm) {
  Tensor t = Tensor::of({-3, 1, 2});
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
  EXPECT_FLOAT_EQ(t.mean(), 0.0f);
  EXPECT_FLOAT_EQ(t.min(), -3.0f);
  EXPECT_FLOAT_EQ(t.max(), 2.0f);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.0f);
  EXPECT_FLOAT_EQ(t.squared_norm(), 14.0f);
  EXPECT_NEAR(t.norm(), std::sqrt(14.0f), 1e-5f);
  EXPECT_EQ(t.argmax(), 2u);
}

TEST(TensorApply, InPlaceFunction) {
  Tensor t = Tensor::of({1, -2, 3});
  t.apply([](float v) { return v * v; });
  EXPECT_TRUE(allclose(t, Tensor::of({1, 4, 9})));
}

TEST(TensorZeroFill, Works) {
  Tensor t = Tensor::of({1, 2, 3});
  t.zero();
  EXPECT_FLOAT_EQ(t.abs_max(), 0.0f);
  t.fill(7.0f);
  EXPECT_FLOAT_EQ(t.min(), 7.0f);
}

TEST(TensorMatmul, KnownProduct) {
  Tensor a = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_TRUE(allclose(c, Tensor::from({2, 2}, {58, 64, 139, 154})));
}

TEST(TensorMatmul, TransposedVariantsAgree) {
  std::mt19937 rng(3);
  Tensor a = Tensor::normal({4, 5}, 0, 1, rng);
  Tensor b = Tensor::normal({5, 6}, 0, 1, rng);
  Tensor direct = matmul(a, b);
  Tensor via_tn = matmul_tn(a.transposed(), b);
  Tensor via_nt = matmul_nt(a, b.transposed());
  EXPECT_TRUE(allclose(direct, via_tn, 1e-4f));
  EXPECT_TRUE(allclose(direct, via_nt, 1e-4f));
}

TEST(TensorMatmul, MismatchThrows) {
  Tensor a({2, 3}), b({2, 3});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

struct MatmulSize {
  std::size_t m, k, n;
};

class MatmulParam : public ::testing::TestWithParam<MatmulSize> {};

TEST_P(MatmulParam, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  std::mt19937 rng(m * 100 + k * 10 + n);
  Tensor a = Tensor::normal({m, k}, 0, 1, rng);
  Tensor b = Tensor::normal({k, n}, 0, 1, rng);
  Tensor c = matmul(a, b);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at({i, p})) * b.at({p, j});
      }
      EXPECT_NEAR(c.at({i, j}), acc, 1e-3) << "at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulParam,
                         ::testing::Values(MatmulSize{1, 1, 1},
                                           MatmulSize{2, 7, 3},
                                           MatmulSize{5, 5, 5},
                                           MatmulSize{8, 3, 13},
                                           MatmulSize{16, 16, 16}));

TEST(TensorDot, MatchesManual) {
  Tensor a = Tensor::of({1, 2, 3});
  Tensor b = Tensor::of({4, 5, 6});
  EXPECT_FLOAT_EQ(dot(a, b), 32.0f);
}

TEST(TensorMse, KnownValue) {
  Tensor a = Tensor::of({1, 2, 3});
  Tensor b = Tensor::of({1, 4, 3});
  EXPECT_NEAR(mse(a, b), 4.0f / 3.0f, 1e-6f);
}

TEST(TensorAllclose, RespectsTolerance) {
  Tensor a = Tensor::of({1.0f});
  Tensor b = Tensor::of({1.0005f});
  EXPECT_TRUE(allclose(a, b, 1e-3f));
  EXPECT_FALSE(allclose(a, b, 1e-5f));
  EXPECT_FALSE(allclose(a, Tensor({2})));
}

// ---------------------------------------------------------------- views

TEST(TensorView, BindsWithoutCopyingAndKeepsShape) {
  float buffer[6] = {1, 2, 3, 4, 5, 6};
  Tensor v({2, 3});
  v.bind(buffer);
  EXPECT_EQ(v.raw(), buffer);
  EXPECT_EQ(v.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(v.at({1, 2}), 6.0f);
  v[0] = 10.0f;  // element writes land in the buffer
  EXPECT_FLOAT_EQ(buffer[0], 10.0f);
  float other[6] = {7, 8, 9, 10, 11, 12};
  v.bind(other);  // rebinding is the same call
  EXPECT_EQ(v.raw(), other);
  EXPECT_FLOAT_EQ(v.at({0, 1}), 8.0f);
  EXPECT_FLOAT_EQ(buffer[0], 10.0f);
}

TEST(TensorView, CopyOfViewOwnsItsStorage) {
  float buffer[3] = {1, 2, 3};
  Tensor v({3});
  v.bind(buffer);
  const Tensor copy = v;
  EXPECT_NE(copy.raw(), buffer);
  Tensor moved = std::move(v);  // moving a view copies too; v still views
  EXPECT_NE(moved.raw(), buffer);
  EXPECT_EQ(v.raw(), buffer);
  buffer[1] = 20.0f;
  EXPECT_FLOAT_EQ(copy[1], 2.0f);
  EXPECT_FLOAT_EQ(moved[1], 2.0f);
  EXPECT_FLOAT_EQ(v[1], 20.0f);
}

TEST(TensorView, AssignmentWritesThrough) {
  float buffer[4] = {0, 0, 0, 0};
  Tensor v({2, 2});
  v.bind(buffer);
  v = Tensor::from({2, 2}, {1, 2, 3, 4});  // move-assign
  EXPECT_EQ(v.raw(), buffer);
  EXPECT_FLOAT_EQ(buffer[3], 4.0f);
  const Tensor other = Tensor::from({2, 2}, {5, 6, 7, 8});
  v = other;  // copy-assign
  EXPECT_FLOAT_EQ(buffer[0], 5.0f);
  v += other;
  EXPECT_FLOAT_EQ(buffer[0], 10.0f);
  v.zero();
  EXPECT_FLOAT_EQ(buffer[2], 0.0f);
  EXPECT_THROW(v = Tensor({5}), std::logic_error);  // wrong element count
  EXPECT_FLOAT_EQ(buffer[1], 0.0f);
}

TEST(TensorView, EnsureShapeNeverReallocates) {
  float buffer[6] = {1, 2, 3, 4, 5, 6};
  Tensor v({6});
  v.bind(buffer);
  v.ensure_shape(2, 3);  // same element count: reshaped in place
  EXPECT_EQ(v.shape(), (Shape{2, 3}));
  v.ensure_shape(Shape{3, 2});
  EXPECT_EQ(v.raw(), buffer);
  EXPECT_THROW(v.ensure_shape(Shape{7}), std::logic_error);
  EXPECT_THROW(v.ensure_shape(2, 2), std::logic_error);
  EXPECT_EQ(v.shape(), (Shape{3, 2}));  // a failed call changes nothing
  EXPECT_EQ(v.raw(), buffer);
  EXPECT_EQ(v.size(), 6u);
}

}  // namespace
}  // namespace jwins::tensor
