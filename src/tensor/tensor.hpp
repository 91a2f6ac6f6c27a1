// Dense row-major float tensor: the numeric substrate under the neural
// network layers (src/nn) and the JWINS flat-parameter machinery.
//
// Design notes:
//  * Value semantics (copy = deep copy); storage is a std::vector<float>.
//  * A tensor can instead be a non-owning view of a caller's buffer
//    (bind()): a model's parameter and gradient tensors view its two flat
//    buffers (nn/model.hpp). Copying or moving a view yields an owning deep
//    copy, assigning into a view writes through, and a view never
//    reallocates (changing its element count throws).
//  * Shapes are small vectors of std::size_t; rank is dynamic.
//  * Only the ops the layers run are provided: in-place elementwise
//    arithmetic, the three matmul kernels into a workspace, a sum and random
//    fills; no lazy evaluation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace jwins::tensor {

/// Shape of a tensor: extent per dimension. An empty shape denotes a scalar.
using Shape = std::vector<std::size_t>;

/// Total number of elements for a shape.
std::size_t numel(const Shape& shape);

/// Human-readable "[2, 3, 4]" form for error messages.
std::string to_string(const Shape& shape);

/// Dense row-major float tensor.
class Tensor {
 public:
  /// Empty scalar-shaped tensor with a single zero element.
  Tensor();

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape with every element set to `fill`.
  Tensor(Shape shape, float fill);

  /// Tensor adopting `values` (size must equal numel(shape)).
  Tensor(Shape shape, std::vector<float> values);

  /// Copies (and moves) of an owning tensor or of a view are owning deep
  /// copies. Moving a view copies its values (an allocation failure there
  /// terminates: the move stays noexcept for std::vector<Tensor>).
  /// Assigning into a view writes the values through to the viewed buffer;
  /// the element counts must match.
  Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&& other);
  ~Tensor() = default;

  /// 1-D tensor from an initializer list, e.g. Tensor::of({1.f, 2.f}).
  static Tensor of(std::initializer_list<float> values);

  /// Tensor of the given shape filled from a flat initializer list.
  static Tensor from(Shape shape, std::initializer_list<float> values);

  /// I.i.d. uniform [lo, hi) fill using the caller's RNG.
  static Tensor uniform(Shape shape, float lo, float hi, std::mt19937& rng);

  /// I.i.d. normal(mean, stddev) fill using the caller's RNG.
  static Tensor normal(Shape shape, float mean, float stddev,
                       std::mt19937& rng);

  // -- Introspection ---------------------------------------------------------
  const Shape& shape() const noexcept { return shape_; }
  std::size_t rank() const noexcept { return shape_.size(); }
  std::size_t size() const noexcept { return size_; }
  std::size_t dim(std::size_t axis) const;

  std::span<float> data() noexcept { return {data_, size_}; }
  std::span<const float> data() const noexcept { return {data_, size_}; }

  float* raw() noexcept { return data_; }
  const float* raw() const noexcept { return data_; }

  /// Turns this tensor into a view of data[0, size()): the shape is kept,
  /// nothing is copied, and any owned storage is released. Rebinding a view
  /// to another buffer is the same call.
  void bind(float* data) noexcept;

  // -- Element access --------------------------------------------------------
  float& operator[](std::size_t flat_index);
  float operator[](std::size_t flat_index) const;

  /// Multi-dimensional access; the number of indices must equal rank().
  float& at(std::initializer_list<std::size_t> idx);
  float at(std::initializer_list<std::size_t> idx) const;

  /// Flat offset of a multi-dimensional index.
  std::size_t offset(std::initializer_list<std::size_t> idx) const;

  // -- Shape manipulation ----------------------------------------------------
  /// Returns a copy with a new shape; numel must be preserved.
  Tensor reshape(Shape new_shape) const;

  /// Workspace helper: re-shapes this tensor in place, reusing the existing
  /// storage when the element count already matches (no heap traffic in
  /// steady state). Element values are preserved for the common prefix and
  /// zero-filled for any growth; callers treating this as an output buffer
  /// should overwrite or zero() it. A view only takes shapes of its own
  /// element count (anything else throws std::logic_error).
  void ensure_shape(const Shape& shape);

  /// Rank-2 ensure_shape that avoids materializing a temporary Shape (the
  /// hot path for matmul workspaces — keeps warm reuse truly allocation-free).
  void ensure_shape(std::size_t rows, std::size_t cols);

  // -- In-place arithmetic ---------------------------------------------------
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator*=(float scalar);

  /// Sets every element to zero without reallocating.
  void zero() noexcept;

  /// Sets every element to `value`.
  void fill(float value) noexcept;

  /// Sum of all elements, accumulated in double.
  float sum() const noexcept;

  bool same_shape(const Tensor& other) const noexcept;

 private:
  /// data_/size_ follow storage_ (an owning tensor's invariant).
  void point_at_storage() noexcept;
  /// Moves an owning `other`'s shape and storage here.
  void take_storage(Tensor& other) noexcept;
  /// Replaces the owned storage with a copy of `values`.
  void own_copy_of(std::span<const float> values);
  /// Resizes the owned storage (throws on a view).
  void resize_storage(std::size_t n);

  Shape shape_;
  std::vector<float> storage_;  ///< empty for a view
  float* data_ = nullptr;       ///< storage_.data(), or the viewed buffer
  std::size_t size_ = 0;
  bool view_ = false;
};

// -- Matrix products ----------------------------------------------------------
// Each computes into `out`, reshaped via ensure_shape, so a warm workspace
// makes the call allocation-free; `out` must not alias an operand.

/// Row-major matrix product: a is [m,k], b is [k,n], out is [m,n].
void matmul_into(Tensor& out, const Tensor& a, const Tensor& b);

/// Product with the first operand transposed: aᵀ·b where a is [k,m].
void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b);

/// Product with the second operand transposed: a·bᵀ where b is [n,k].
void matmul_nt_into(Tensor& out, const Tensor& a, const Tensor& b);

/// True if all elements differ by at most `atol`.
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

}  // namespace jwins::tensor
