#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace jwins::tensor {

std::size_t numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

namespace {

[[noreturn]] void throw_shape_mismatch(const Shape& a, const Shape& b,
                                       const char* op) {
  throw std::invalid_argument(std::string("tensor shape mismatch in ") + op +
                              ": " + to_string(a) + " vs " + to_string(b));
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.same_shape(b)) throw_shape_mismatch(a.shape(), b.shape(), op);
}

}  // namespace

Tensor::Tensor() : shape_{}, storage_(1, 0.0f) { point_at_storage(); }

Tensor::Tensor(Shape shape) : Tensor(std::move(shape), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), storage_(numel(shape_), fill) {
  point_at_storage();
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), storage_(std::move(values)) {
  if (storage_.size() != numel(shape_)) {
    throw std::invalid_argument("tensor data size " +
                                std::to_string(storage_.size()) +
                                " does not match shape " + to_string(shape_));
  }
  point_at_storage();
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  own_copy_of(other.data());
}

Tensor::Tensor(Tensor&& other) noexcept {
  if (other.view_) {  // the source keeps viewing; the result owns a copy
    shape_ = other.shape_;
    own_copy_of(other.data());
  } else {
    take_storage(other);
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (view_) {
    if (other.size_ != size_) {
      throw std::logic_error("tensor view of " + std::to_string(size_) +
                             " elements assigned " +
                             std::to_string(other.size_));
    }
    std::copy_n(other.data_, size_, data_);
  } else {
    own_copy_of(other.data());
  }
  shape_ = other.shape_;
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) {
  if (view_ || other.view_) return *this = static_cast<const Tensor&>(other);
  if (this != &other) take_storage(other);
  return *this;
}

void Tensor::point_at_storage() noexcept {
  data_ = storage_.data();
  size_ = storage_.size();
}

void Tensor::take_storage(Tensor& other) noexcept {
  shape_ = std::move(other.shape_);
  storage_ = std::move(other.storage_);
  point_at_storage();
  other.point_at_storage();
}

void Tensor::own_copy_of(std::span<const float> values) {
  storage_.assign(values.begin(), values.end());
  point_at_storage();
  view_ = false;
}

void Tensor::resize_storage(std::size_t n) {
  if (n == size_) return;
  if (view_) {
    throw std::logic_error("tensor view of " + std::to_string(size_) +
                           " elements cannot hold " + std::to_string(n));
  }
  storage_.resize(n, 0.0f);
  point_at_storage();
}

void Tensor::bind(float* data) noexcept {
  if (!view_) {
    std::vector<float>().swap(storage_);
    view_ = true;
  }
  data_ = data;
}

Tensor Tensor::of(std::initializer_list<float> values) {
  return Tensor({values.size()}, std::vector<float>(values));
}

Tensor Tensor::from(Shape shape, std::initializer_list<float> values) {
  return Tensor(std::move(shape), std::vector<float>(values));
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }

Tensor Tensor::full(Shape shape, float value) {
  return Tensor(std::move(shape), value);
}

Tensor Tensor::uniform(Shape shape, float lo, float hi, std::mt19937& rng) {
  Tensor t(std::move(shape));
  std::uniform_real_distribution<float> dist(lo, hi);
  for (float& v : t.data()) v = dist(rng);
  return t;
}

Tensor Tensor::normal(Shape shape, float mean, float stddev,
                      std::mt19937& rng) {
  Tensor t(std::move(shape));
  std::normal_distribution<float> dist(mean, stddev);
  for (float& v : t.data()) v = dist(rng);
  return t;
}

std::size_t Tensor::dim(std::size_t axis) const {
  if (axis >= shape_.size()) {
    throw std::out_of_range("tensor axis " + std::to_string(axis) +
                            " out of range for shape " + to_string(shape_));
  }
  return shape_[axis];
}

namespace {

void check_index(std::size_t index, std::size_t size) {
  if (index >= size) {
    throw std::out_of_range("tensor index " + std::to_string(index) +
                            " out of range for " + std::to_string(size) +
                            " elements");
  }
}

}  // namespace

float& Tensor::operator[](std::size_t flat_index) {
  check_index(flat_index, size_);
  return data_[flat_index];
}

float Tensor::operator[](std::size_t flat_index) const {
  check_index(flat_index, size_);
  return data_[flat_index];
}

std::size_t Tensor::offset(std::initializer_list<std::size_t> idx) const {
  if (idx.size() != shape_.size()) {
    throw std::invalid_argument("index rank " + std::to_string(idx.size()) +
                                " does not match tensor rank " +
                                std::to_string(shape_.size()));
  }
  std::size_t off = 0;
  std::size_t axis = 0;
  for (std::size_t i : idx) {
    if (i >= shape_[axis]) {
      throw std::out_of_range("index " + std::to_string(i) +
                              " out of range on axis " + std::to_string(axis) +
                              " for shape " + to_string(shape_));
    }
    off = off * shape_[axis] + i;
    ++axis;
  }
  return off;
}

float& Tensor::at(std::initializer_list<std::size_t> idx) {
  return data_[offset(idx)];
}

float Tensor::at(std::initializer_list<std::size_t> idx) const {
  return data_[offset(idx)];
}

Tensor Tensor::reshape(Shape new_shape) const {
  if (numel(new_shape) != size_) {
    throw std::invalid_argument("reshape from " + to_string(shape_) + " to " +
                                to_string(new_shape) +
                                " changes the element count");
  }
  return Tensor(std::move(new_shape),
                std::vector<float>(data_, data_ + size_));
}

void Tensor::ensure_shape(const Shape& shape) {
  resize_storage(numel(shape));
  if (shape_ != shape) shape_ = shape;
}

void Tensor::ensure_shape(std::size_t rows, std::size_t cols) {
  resize_storage(rows * cols);
  if (shape_.size() != 2) shape_.assign(2, 0);
  shape_[0] = rows;
  shape_[1] = cols;
}

Tensor Tensor::transposed() const {
  if (rank() != 2) {
    throw std::invalid_argument("transposed() requires a rank-2 tensor, got " +
                                to_string(shape_));
  }
  const std::size_t rows = shape_[0], cols = shape_[1];
  Tensor out({cols, rows});
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      out.data_[c * rows + r] = data_[r * cols + c];
  return out;
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
  check_same_shape(*this, rhs, "+=");
  for (std::size_t i = 0; i < size_; ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  check_same_shape(*this, rhs, "-=");
  for (std::size_t i = 0; i < size_; ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& rhs) {
  check_same_shape(*this, rhs, "*=");
  for (std::size_t i = 0; i < size_; ++i) data_[i] *= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator+=(float scalar) {
  for (float& v : data()) v += scalar;
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (float& v : data()) v *= scalar;
  return *this;
}

void Tensor::axpy(float alpha, const Tensor& rhs) {
  check_same_shape(*this, rhs, "axpy");
  for (std::size_t i = 0; i < size_; ++i) data_[i] += alpha * rhs.data_[i];
}

void Tensor::zero() noexcept { std::fill_n(data_, size_, 0.0f); }

void Tensor::fill(float value) noexcept { std::fill_n(data_, size_, value); }

float Tensor::sum() const noexcept {
  double acc = 0.0;
  for (float v : data()) acc += v;
  return static_cast<float>(acc);
}

float Tensor::mean() const noexcept {
  return size_ == 0 ? 0.0f : sum() / static_cast<float>(size_);
}

float Tensor::min() const {
  if (size_ == 0) throw std::logic_error("min() of empty tensor");
  return *std::min_element(data_, data_ + size_);
}

float Tensor::max() const {
  if (size_ == 0) throw std::logic_error("max() of empty tensor");
  return *std::max_element(data_, data_ + size_);
}

float Tensor::abs_max() const noexcept {
  float m = 0.0f;
  for (float v : data()) m = std::max(m, std::fabs(v));
  return m;
}

float Tensor::squared_norm() const noexcept {
  double acc = 0.0;
  for (float v : data()) acc += static_cast<double>(v) * v;
  return static_cast<float>(acc);
}

float Tensor::norm() const noexcept {
  return std::sqrt(squared_norm());
}

std::size_t Tensor::argmax() const {
  if (size_ == 0) throw std::logic_error("argmax() of empty tensor");
  return static_cast<std::size_t>(std::max_element(data_, data_ + size_) -
                                  data_);
}

void Tensor::apply(const std::function<float(float)>& fn) {
  for (float& v : data()) v = fn(v);
}

bool Tensor::same_shape(const Tensor& other) const noexcept {
  return shape_ == other.shape_;
}

Tensor operator+(Tensor lhs, const Tensor& rhs) {
  lhs += rhs;
  return lhs;
}

Tensor operator-(Tensor lhs, const Tensor& rhs) {
  lhs -= rhs;
  return lhs;
}

Tensor operator*(Tensor lhs, const Tensor& rhs) {
  lhs *= rhs;
  return lhs;
}

Tensor operator*(Tensor lhs, float scalar) {
  lhs *= scalar;
  return lhs;
}

Tensor operator*(float scalar, Tensor rhs) {
  rhs *= scalar;
  return rhs;
}

void matmul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw_shape_mismatch(a.shape(), b.shape(), "matmul");
  }
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  out.ensure_shape(m, n);
  out.zero();
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = pa[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = pb + p * n;
      float* orow = po + i * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw_shape_mismatch(a.shape(), b.shape(), "matmul");
  }
  Tensor out({a.dim(0), b.dim(1)});  // single allocation, already zeroed
  matmul_into(out, a, b);
  return out;
}

void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(0) != b.dim(0)) {
    throw_shape_mismatch(a.shape(), b.shape(), "matmul_tn");
  }
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  out.ensure_shape(m, n);
  out.zero();
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = pa + p * m;
    const float* brow = pb + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* orow = po + i * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(0) != b.dim(0)) {
    throw_shape_mismatch(a.shape(), b.shape(), "matmul_tn");
  }
  Tensor out({a.dim(1), b.dim(1)});
  matmul_tn_into(out, a, b);
  return out;
}

void matmul_nt_into(Tensor& out, const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(1)) {
    throw_shape_mismatch(a.shape(), b.shape(), "matmul_nt");
  }
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  out.ensure_shape(m, n);
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += double(arow[p]) * brow[p];
      po[i * n + j] = static_cast<float>(acc);
    }
  }
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(1)) {
    throw_shape_mismatch(a.shape(), b.shape(), "matmul_nt");
  }
  Tensor out({a.dim(0), b.dim(0)});
  matmul_nt_into(out, a, b);
  return out;
}

float dot(const Tensor& a, const Tensor& b) {
  if (a.size() != b.size()) throw_shape_mismatch(a.shape(), b.shape(), "dot");
  double acc = 0.0;
  const float* pa = a.raw();
  const float* pb = b.raw();
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += static_cast<double>(pa[i]) * pb[i];
  return static_cast<float>(acc);
}

float mse(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mse");
  if (a.size() == 0) return 0.0f;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return static_cast<float>(acc / static_cast<double>(a.size()));
}

bool allclose(const Tensor& a, const Tensor& b, float atol) {
  if (!a.same_shape(b)) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > atol) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  os << "Tensor" << to_string(t.shape()) << "{";
  const std::size_t show = std::min<std::size_t>(t.size(), 8);
  for (std::size_t i = 0; i < show; ++i) {
    if (i) os << ", ";
    os << t[i];
  }
  if (t.size() > show) os << ", ...";
  return os << "}";
}

}  // namespace jwins::tensor
