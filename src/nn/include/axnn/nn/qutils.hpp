// axnn — small quantization helpers shared by the GEMM layers.
#pragma once

#include "axnn/quant/quantizer.hpp"
#include "axnn/tensor/tensor.hpp"

namespace axnn::nn {

/// Quantize a float tensor directly into int8 storage: saturating
/// round-to-nearest-even into the symmetric range of `p` (which always fits
/// int8 for bits <= 8); see quant::quantize_into.
inline TensorI8 quantize_i8(const Tensor& x, const quant::QuantParams& p) {
  TensorI8 q(x.shape());
  quant::quantize_into(x.data(), x.numel(), p, q.data());
  return q;
}

/// Dequantize int8 values back to float: x~ = q * step.
inline Tensor dequantize_i8(const TensorI8& q, const quant::QuantParams& p) {
  Tensor x(q.shape());
  for (int64_t i = 0; i < q.numel(); ++i) x[i] = static_cast<float>(q[i]) * p.step;
  return x;
}

}  // namespace axnn::nn
