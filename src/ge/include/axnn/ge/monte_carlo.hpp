// axnn — Monte-Carlo estimation of the accumulated approximation error
// (paper Sec. IV-B: "f(y_q) was estimated using 50 MonteCarlo simulations of
// a single convolution with values drawn from normal distributions, within
// the corresponding quantization ranges").
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "axnn/ge/error_fit.hpp"
#include "axnn/kernels/signed_lut.hpp"

namespace axnn::ge {

struct McConfig {
  int num_sims = 50;        ///< independent simulated convolutions
  int outputs_per_sim = 64; ///< dot products sampled per simulation
  int dot_length = 72;      ///< accumulation length (C*kH*kW of a typical conv)
  /// Operand distributions: weights ~ N(0, wgt_sigma) clamped to [-7, 7];
  /// activations ~ |N(0, act_sigma)| clamped to [0, 127] (post-ReLU shape).
  double wgt_sigma = 2.5;
  double act_sigma = 42.0;
  bool signed_activations = false;  ///< draw signed activations instead
  uint64_t seed = 0xC0FFEE;
};

/// Sample (y_exact, eps = y_approx - y_exact) pairs in integer accumulator
/// units by simulating convolutions through the given multiplier table.
std::vector<std::pair<double, double>> sample_accumulated_error(const approx::SignedMulTable& tab,
                                                                const McConfig& cfg = {});

/// End-to-end: sample and fit the piecewise-linear error model.
ErrorFit fit_multiplier_error(const approx::SignedMulTable& tab, const McConfig& cfg = {});

}  // namespace axnn::ge
