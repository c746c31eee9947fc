#include "axnn/nn/pooling.hpp"

#include <stdexcept>

namespace axnn::nn {

namespace {

Tensor global_avg_pool(const Tensor& x) {
  if (x.shape().rank() != 4) throw std::invalid_argument("GlobalAvgPool: expected NCHW");
  const int64_t n = x.shape()[0], c = x.shape()[1], hw = x.shape()[2] * x.shape()[3];
  Tensor y(Shape{n, c});
  const float inv = 1.0f / static_cast<float>(hw);
  for (int64_t b = 0; b < n; ++b)
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* p = x.data() + (b * c + ch) * hw;
      double s = 0.0;
      for (int64_t i = 0; i < hw; ++i) s += p[i];
      y(b, ch) = static_cast<float>(s) * inv;
    }
  return y;
}

Tensor avg_pool_2x2(const Tensor& x) {
  if (x.shape().rank() != 4) throw std::invalid_argument("AvgPool2x2: expected NCHW");
  if (x.shape()[2] % 2 || x.shape()[3] % 2)
    throw std::invalid_argument("AvgPool2x2: spatial dims must be even");
  const int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], w = x.shape()[3];
  Tensor y(Shape{n, c, h / 2, w / 2});
  for (int64_t b = 0; b < n; ++b)
    for (int64_t ch = 0; ch < c; ++ch)
      for (int64_t i = 0; i < h / 2; ++i)
        for (int64_t j = 0; j < w / 2; ++j)
          y(b, ch, i, j) = 0.25f * (x(b, ch, 2 * i, 2 * j) + x(b, ch, 2 * i, 2 * j + 1) +
                                    x(b, ch, 2 * i + 1, 2 * j) + x(b, ch, 2 * i + 1, 2 * j + 1));
  return y;
}

}  // namespace

Tensor GlobalAvgPool::forward(const Tensor& x, const ExecContext&) {
  Tensor y = global_avg_pool(x);
  in_shape_ = x.shape();
  return y;
}

Tensor GlobalAvgPool::infer(const Tensor& x, const ExecContext& ctx) const {
  require_inference_context(*this, ctx);
  return global_avg_pool(x);
}

Tensor GlobalAvgPool::backward(const Tensor& dy) {
  const int64_t n = in_shape_[0], c = in_shape_[1], hw = in_shape_[2] * in_shape_[3];
  if (dy.shape() != Shape{n, c})
    throw std::invalid_argument("GlobalAvgPool::backward: dy shape mismatch");
  Tensor dx(in_shape_);
  const float inv = 1.0f / static_cast<float>(hw);
  for (int64_t b = 0; b < n; ++b)
    for (int64_t ch = 0; ch < c; ++ch) {
      const float g = dy(b, ch) * inv;
      float* p = dx.data() + (b * c + ch) * hw;
      for (int64_t i = 0; i < hw; ++i) p[i] = g;
    }
  return dx;
}

Tensor AvgPool2x2::forward(const Tensor& x, const ExecContext&) {
  Tensor y = avg_pool_2x2(x);
  in_shape_ = x.shape();
  return y;
}

Tensor AvgPool2x2::infer(const Tensor& x, const ExecContext& ctx) const {
  require_inference_context(*this, ctx);
  return avg_pool_2x2(x);
}

Tensor AvgPool2x2::backward(const Tensor& dy) {
  const int64_t n = in_shape_[0], c = in_shape_[1], h = in_shape_[2], w = in_shape_[3];
  if (dy.shape() != Shape{n, c, h / 2, w / 2})
    throw std::invalid_argument("AvgPool2x2::backward: dy shape mismatch");
  Tensor dx(in_shape_);
  for (int64_t b = 0; b < n; ++b)
    for (int64_t ch = 0; ch < c; ++ch)
      for (int64_t i = 0; i < h / 2; ++i)
        for (int64_t j = 0; j < w / 2; ++j) {
          const float g = 0.25f * dy(b, ch, i, j);
          dx(b, ch, 2 * i, 2 * j) = g;
          dx(b, ch, 2 * i, 2 * j + 1) = g;
          dx(b, ch, 2 * i + 1, 2 * j) = g;
          dx(b, ch, 2 * i + 1, 2 * j + 1) = g;
        }
  return dx;
}

}  // namespace axnn::nn
