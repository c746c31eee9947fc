// axnn — 2-D convolution: the GemmLayer that lowers through im2col.
//
// Forward lowers to GEMM via im2col: out[O, P] = W[O, K] · cols[K, P] per
// group. The quantization, approximation and GE machinery is GemmLayer's
// (axnn/nn/gemm_layer.hpp); this class owns the convolution layout — im2col,
// col2im, the NCHW epilogues — and BatchNorm folding.
#pragma once

#include "axnn/nn/gemm_layer.hpp"
#include "axnn/nn/im2col.hpp"

namespace axnn::nn {

struct Conv2dConfig {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t padding = 1;
  int64_t groups = 1;   ///< in/out channels must be divisible; groups == in
                        ///< channels gives a depthwise convolution
  bool bias = true;
};

class Conv2d final : public GemmLayer {
public:
  Conv2d(Conv2dConfig cfg, Rng& rng);

  std::string name() const override;
  Tensor backward(const Tensor& dy) override;
  int64_t groups() const override { return cfg_.groups; }
  int64_t dot_length() const override {
    return cfg_.in_channels / cfg_.groups * cfg_.kernel * cfg_.kernel;
  }
  int64_t macs_for(const Shape& in) const override {
    return in[0] * macs_per_sample(in[2], in[3]);
  }

  const Conv2dConfig& config() const { return cfg_; }

  /// Per-output-channel affine fold (BatchNorm folding):
  /// W[o,...] *= scale[o]; b[o] = b[o]*scale[o] + shift[o].
  /// Enables the bias term if it was disabled.
  void fold_scale_shift(const std::vector<float>& scale, const std::vector<float>& shift);

  /// Analytic MACs for one sample with the given input spatial dims.
  int64_t macs_per_sample(int64_t h, int64_t w) const;

private:
  Tensor run(const Tensor& x, const ExecContext& ctx, const std::string& obs_path,
             Caches* keep) const override;
  Tensor float_gemm(const float* w, const Tensor& cols) const override;
  Tensor output_from_mat(const Tensor& out_mat, const ConvGeom& g) const;
  Tensor output_from_acc(const TensorI32& acc, const ConvGeom& g) const;
  ConvGeom geom_of(const Shape& x) const {
    return ConvGeom::of(x, cfg_.kernel, cfg_.stride, cfg_.padding);
  }

  Conv2dConfig cfg_;
};

}  // namespace axnn::nn
