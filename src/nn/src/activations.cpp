#include "axnn/nn/activations.hpp"

#include <stdexcept>

namespace axnn::nn {

namespace {

/// y[i] = f(x[i]); mask[i] = 1 where the activation passes gradient.
template <typename F, typename Open>
Tensor apply(const Tensor& x, F f, Open open, Tensor* mask) {
  Tensor y(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) y[i] = f(x[i]);
  if (mask != nullptr) {
    *mask = Tensor(x.shape());
    for (int64_t i = 0; i < x.numel(); ++i) (*mask)[i] = open(x[i]) ? 1.0f : 0.0f;
  }
  return y;
}

Tensor masked_backward(const Tensor& dy, const Tensor& mask, const char* who) {
  if (dy.shape() != mask.shape())
    throw std::invalid_argument(std::string(who) + "::backward: shape mismatch");
  Tensor dx(dy.shape());
  for (int64_t i = 0; i < dy.numel(); ++i) dx[i] = dy[i] * mask[i];
  return dx;
}

float relu(float v) { return v > 0.0f ? v : 0.0f; }
bool relu_open(float v) { return v > 0.0f; }
float relu6(float v) { return v <= 0.0f ? 0.0f : (v >= 6.0f ? 6.0f : v); }
bool relu6_open(float v) { return v > 0.0f && v < 6.0f; }

}  // namespace

Tensor ReLU::forward(const Tensor& x, const ExecContext&) {
  return apply(x, relu, relu_open, &mask_);
}

Tensor ReLU::infer(const Tensor& x, const ExecContext& ctx) const {
  require_inference_context(*this, ctx);
  return apply(x, relu, relu_open, nullptr);
}

Tensor ReLU::backward(const Tensor& dy) { return masked_backward(dy, mask_, "ReLU"); }

Tensor ReLU6::forward(const Tensor& x, const ExecContext&) {
  return apply(x, relu6, relu6_open, &mask_);
}

Tensor ReLU6::infer(const Tensor& x, const ExecContext& ctx) const {
  require_inference_context(*this, ctx);
  return apply(x, relu6, relu6_open, nullptr);
}

Tensor ReLU6::backward(const Tensor& dy) { return masked_backward(dy, mask_, "ReLU6"); }

}  // namespace axnn::nn
