#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
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
  const auto [lo, hi] = std::minmax_element(u.data().begin(), u.data().end());
  EXPECT_GE(*lo, -1.0f);
  EXPECT_LE(*hi, 1.0f);
  EXPECT_NEAR(u.sum() / 1000.0f, 0.0f, 0.1f);
  Tensor n = Tensor::normal({1000}, 2.0f, 0.5f, rng);
  EXPECT_NEAR(n.sum() / 1000.0f, 2.0f, 0.1f);
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

TEST(TensorArithmetic, ElementwiseOps) {
  Tensor a = Tensor::of({1, 2, 3});
  a += Tensor::of({4, 5, 6});
  EXPECT_TRUE(allclose(a, Tensor::of({5, 7, 9})));
  a *= 2.0f;
  EXPECT_TRUE(allclose(a, Tensor::of({10, 14, 18})));
}

TEST(TensorArithmetic, ShapeMismatchThrows) {
  Tensor a({2}), b({3});
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(TensorZeroFill, Works) {
  Tensor t = Tensor::of({1, 2, 3});
  t.zero();
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
  t.fill(7.0f);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 7.0f);
}

TEST(TensorMatmul, KnownProduct) {
  Tensor a = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c;
  matmul_into(c, a, b);
  EXPECT_TRUE(allclose(c, Tensor::from({2, 2}, {58, 64, 139, 154})));
}

// Element (r, c) of a deterministic test matrix, so an operand and its
// transpose can be built side by side.
float entry(std::size_t r, std::size_t c) {
  return std::sin(static_cast<float>(7 * r + 3 * c + 1));
}

Tensor filled(std::size_t rows, std::size_t cols, bool transpose) {
  Tensor t({rows, cols});
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      t.at({r, c}) = transpose ? entry(c, r) : entry(r, c);
    }
  }
  return t;
}

TEST(TensorMatmul, TransposedVariantsAgree) {
  const Tensor a = filled(4, 5, false), at = filled(5, 4, true);
  const Tensor b = filled(5, 6, false), bt = filled(6, 5, true);
  Tensor direct, via_tn, via_nt;
  matmul_into(direct, a, b);
  matmul_tn_into(via_tn, at, b);
  matmul_nt_into(via_nt, a, bt);
  EXPECT_TRUE(allclose(direct, via_tn, 1e-4f));
  EXPECT_TRUE(allclose(direct, via_nt, 1e-4f));
}

TEST(TensorMatmul, MismatchThrows) {
  Tensor a({2, 3}), b({2, 3}), out;
  EXPECT_THROW(matmul_into(out, a, b), std::invalid_argument);
  EXPECT_THROW(matmul_tn_into(out, a, Tensor({3, 2})), std::invalid_argument);
  EXPECT_THROW(matmul_nt_into(out, a, Tensor({3, 2})), std::invalid_argument);
}

TEST(TensorMatmul, WarmWorkspaceWritesTheSameBytesAsAFreshOne) {
  // nn::Linear and nn::Lstm keep their matmul outputs as workspaces across
  // steps and shapes; whatever a workspace held before must not leak into
  // the result.
  using Kernel = void (*)(Tensor&, const Tensor&, const Tensor&);
  struct Case {
    const char* name;
    Kernel kernel;
    Tensor a, b;
  };
  const Case cases[] = {
      {"matmul_into", matmul_into, filled(3, 4, false), filled(4, 5, false)},
      {"matmul_tn_into", matmul_tn_into, filled(4, 3, false),
       filled(4, 5, false)},
      {"matmul_nt_into", matmul_nt_into, filled(3, 4, false),
       filled(5, 4, false)},
  };
  for (const Case& c : cases) {
    Tensor fresh;
    c.kernel(fresh, c.a, c.b);
    ASSERT_EQ(fresh.shape(), (Shape{3, 5})) << c.name;
    for (const Shape& held : {Shape{2, 2}, Shape{4, 6}, Shape{15}}) {
      Tensor warm(held, 123.0f);
      c.kernel(warm, c.a, c.b);
      EXPECT_EQ(warm.shape(), fresh.shape()) << c.name;
      EXPECT_EQ(std::memcmp(warm.raw(), fresh.raw(),
                            fresh.size() * sizeof(float)),
                0)
          << c.name << " after " << to_string(held);
    }
  }
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
  Tensor c;
  matmul_into(c, a, b);
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
