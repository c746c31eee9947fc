// axnn — activation layers (ReLU, ReLU6).
#pragma once

#include "axnn/nn/layer.hpp"

namespace axnn::nn {

/// y = max(x, 0).
class ReLU final : public Layer {
public:
  std::string name() const override { return "relu"; }
  Tensor forward(const Tensor& x, const ExecContext& ctx) override;
  Tensor infer(const Tensor& x, const ExecContext& ctx) const override;
  Tensor backward(const Tensor& dy) override;

private:
  Tensor mask_;
};

/// y = min(max(x, 0), 6) — MobileNetV2's bounded activation; the bound keeps
/// 8-bit activation ranges tight.
class ReLU6 final : public Layer {
public:
  std::string name() const override { return "relu6"; }
  Tensor forward(const Tensor& x, const ExecContext& ctx) override;
  Tensor infer(const Tensor& x, const ExecContext& ctx) const override;
  Tensor backward(const Tensor& dy) override;

private:
  Tensor mask_;
};

}  // namespace axnn::nn
