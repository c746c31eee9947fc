// axnn — fully-connected layer: the GemmLayer with a single group.
//
// y[N, O] = x[N, F] · W[O, F]ᵀ + b. The quantization, approximation and GE
// machinery is GemmLayer's (axnn/nn/gemm_layer.hpp); in kQuantApprox mode
// the activations are transposed to [F, N] so they take the LUT's 8-bit
// operand role, and the epilogue transposes the accumulators back.
#pragma once

#include "axnn/nn/gemm_layer.hpp"

namespace axnn::nn {

class Linear final : public GemmLayer {
public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias = true);

  std::string name() const override;
  Tensor backward(const Tensor& dy) override;
  int64_t groups() const override { return 1; }
  int64_t dot_length() const override { return in_; }
  int64_t macs_for(const Shape& in) const override { return in[0] * in_ * out_; }

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }

private:
  Tensor run(const Tensor& x, const ExecContext& ctx, const std::string& obs_path,
             Caches* keep) const override;
  Tensor float_gemm(const float* w, const Tensor& x) const override;

  int64_t in_ = 0, out_ = 0;
};

}  // namespace axnn::nn
