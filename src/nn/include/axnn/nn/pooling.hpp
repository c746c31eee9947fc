// axnn — pooling layers.
#pragma once

#include "axnn/nn/layer.hpp"

namespace axnn::nn {

/// Global average pooling over spatial dimensions, producing [N, C]
/// (pool + flatten, the classifier head used by all evaluated CNNs).
class GlobalAvgPool final : public Layer {
public:
  std::string name() const override { return "global_avg_pool"; }
  Tensor forward(const Tensor& x, const ExecContext& ctx) override;
  Tensor infer(const Tensor& x, const ExecContext& ctx) const override;
  Tensor backward(const Tensor& dy) override;

private:
  Shape in_shape_;
};

/// Non-overlapping 2x2 average pooling (utility layer for examples/tests).
class AvgPool2x2 final : public Layer {
public:
  std::string name() const override { return "avg_pool_2x2"; }
  Tensor forward(const Tensor& x, const ExecContext& ctx) override;
  Tensor infer(const Tensor& x, const ExecContext& ctx) const override;
  Tensor backward(const Tensor& dy) override;

private:
  Shape in_shape_;
};

}  // namespace axnn::nn
