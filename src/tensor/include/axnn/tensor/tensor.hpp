// axnn — dense row-major tensor with value semantics.
//
// Design notes:
//  * BasicTensor<T> owns its storage in a pool-allocated vector
//    (axnn/tensor/buffer_pool.hpp): copies are deep, moves are cheap, and
//    repeated construction of the same shapes — the serving steady state —
//    recycles blocks from the pool's freelists instead of hitting the heap.
//    No views/strides — the kernels this library needs (im2col GEMM,
//    elementwise, reductions) all operate on contiguous data, and value
//    semantics keeps the autograd caches trivially correct.
//  * Indexing is bounds-checked in debug builds only (operator() uses
//    unchecked math; at() always checks).
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "axnn/tensor/buffer_pool.hpp"
#include "axnn/tensor/rng.hpp"
#include "axnn/tensor/shape.hpp"

namespace axnn {

/// Tag of BasicTensor's uninitialised-storage constructor.
struct Uninit {
  explicit Uninit() = default;
};
inline constexpr Uninit kUninit{};

template <typename T>
class BasicTensor {
public:
  using value_type = T;
  using storage_type = std::vector<T, PoolAllocator<T>>;

  BasicTensor() = default;

  explicit BasicTensor(Shape shape, T fill = T{})
      : shape_(shape), data_(static_cast<size_t>(shape.numel()), fill) {}

  /// Storage left uninitialised: only for a tensor whose every element the
  /// caller writes before reading any (a store-mode GEMM output, a full
  /// copy).
  BasicTensor(Shape shape, Uninit) : shape_(shape), data_(static_cast<size_t>(shape.numel())) {}

  BasicTensor(Shape shape, storage_type data) : shape_(shape), data_(std::move(data)) {
    if (static_cast<int64_t>(data_.size()) != shape_.numel())
      throw std::invalid_argument("BasicTensor: data size does not match shape");
  }

  /// Compatibility overload: copies a plain vector into pooled storage.
  BasicTensor(Shape shape, const std::vector<T>& data)
      : shape_(shape), data_(data.begin(), data.end()) {
    if (static_cast<int64_t>(data_.size()) != shape_.numel())
      throw std::invalid_argument("BasicTensor: data size does not match shape");
  }

  const Shape& shape() const { return shape_; }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  storage_type& vec() { return data_; }
  const storage_type& vec() const { return data_; }

  T& operator[](int64_t i) {
    assert(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }
  T operator[](int64_t i) const {
    assert(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }

  /// 2-D accessors (GEMM views).
  T& operator()(int64_t i, int64_t j) {
    assert(shape_.rank() == 2);
    return data_[static_cast<size_t>(i * shape_[1] + j)];
  }
  T operator()(int64_t i, int64_t j) const {
    assert(shape_.rank() == 2);
    return data_[static_cast<size_t>(i * shape_[1] + j)];
  }

  /// 4-D accessors (NCHW feature maps / OIHW weights).
  T& operator()(int64_t n, int64_t c, int64_t h, int64_t w) {
    assert(shape_.rank() == 4);
    return data_[static_cast<size_t>(((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }
  T operator()(int64_t n, int64_t c, int64_t h, int64_t w) const {
    assert(shape_.rank() == 4);
    return data_[static_cast<size_t>(((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }

  /// Bounds-checked linear access.
  T& at(int64_t i) {
    if (i < 0 || i >= numel()) throw std::out_of_range("BasicTensor::at");
    return data_[static_cast<size_t>(i)];
  }
  T at(int64_t i) const {
    if (i < 0 || i >= numel()) throw std::out_of_range("BasicTensor::at");
    return data_[static_cast<size_t>(i)];
  }

  void fill(T v) {
    for (auto& x : data_) x = v;
  }

  /// Reinterpret under a new shape with the same element count.
  BasicTensor reshaped(Shape s) const {
    if (s.numel() != numel()) throw std::invalid_argument("reshaped: element count mismatch");
    BasicTensor out = *this;
    out.shape_ = s;
    return out;
  }

  /// In-place reshape.
  void reshape(Shape s) {
    if (s.numel() != numel()) throw std::invalid_argument("reshape: element count mismatch");
    shape_ = s;
  }

  bool same_shape(const BasicTensor& o) const { return shape_ == o.shape_; }

private:
  Shape shape_;
  storage_type data_;
};

using Tensor = BasicTensor<float>;
using TensorI32 = BasicTensor<int32_t>;
using TensorI8 = BasicTensor<int8_t>;

/// Tensor filled with N(mean, stddev) draws from rng.
Tensor randn(Shape shape, Rng& rng, float mean = 0.0f, float stddev = 1.0f);

/// Tensor filled with U[lo, hi) draws from rng.
Tensor rand_uniform(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);

/// Kaiming/He-normal initialisation for conv/linear weights with the given
/// fan-in (stddev = sqrt(2 / fan_in)).
Tensor kaiming_normal(Shape shape, int64_t fan_in, Rng& rng);

}  // namespace axnn
