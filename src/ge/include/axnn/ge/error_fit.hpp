// axnn — piecewise-linear model of the accumulated approximation error
// (paper Sec. III-B, Eq. 11-13).
//
// The accumulated error of an approximate GEMM output, eps = y~ - y, is
// modelled as a clamped line in the exact accumulator value y:
//
//     f(y) = min(a, max(k*y + c, b)),   a >= b
//
// Its derivative is k inside the linear region and 0 in the clamped regions;
// the backward pass scales the weight gradient by (1 + K) elementwise
// (Eq. 12). A fit with k == 0 makes GE identical to the plain STE — the
// paper observes exactly this for the (unbiased) EvoApprox multipliers.
//
// Units: y and eps are in integer accumulator units (products of quantized
// operands). The derivative k is dimensionless, so the same K applies
// unchanged to gradients in real units.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace axnn::ge {

struct ErrorFit {
  double a = 0.0;  ///< upper clamp of f
  double b = 0.0;  ///< lower clamp of f
  double k = 0.0;  ///< slope of the linear region
  double c = 0.0;  ///< intercept of the linear region

  /// f(y) = min(a, max(k*y + c, b)).
  double eval(double y) const {
    const double lin = k * y + c;
    return lin > a ? a : (lin < b ? b : lin);
  }

  /// df/dy: k in the linear region, 0 where clamped (Eq. 13).
  /// True where f is in its linear region (not clamped) at y.
  bool linear_at(double y) const {
    const double lin = k * y + c;
    return lin < a && lin > b;
  }

  double derivative(double y) const { return linear_at(y) ? k : 0.0; }

  /// True when the fitted error carries no usable slope; GE then degenerates
  /// to the straight-through estimator (paper Sec. III-C).
  bool is_constant() const { return k == 0.0; }

  std::string to_string() const;
};

/// Ordinary least squares + quantile clamps over (y, eps) samples.
/// `slope_significance` collapses the fit to a constant when the slope's
/// total effect across the sampled y-range is below that fraction of the
/// residual spread — this is what detects unbiased (EvoApprox-like) errors.
ErrorFit fit_piecewise_linear(const std::vector<std::pair<double, double>>& samples,
                              double slope_significance = 0.25);

}  // namespace axnn::ge
