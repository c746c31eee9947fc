#include "axnn/nn/gemm_layer.hpp"

#include <stdexcept>

#include "axnn/kernels/int_gemm.hpp"
#include "axnn/nn/monitor.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/tensor/ops.hpp"
#include "obs_hooks.hpp"

namespace axnn::nn {

GemmLayer::GemmLayer(Tensor weight, bool bias) : weight_(std::move(weight)) {
  if (bias) bias_ = Param(Tensor(Shape{weight_.value.shape()[0]}, 0.0f));
}

std::vector<Param*> GemmLayer::params() {
  std::vector<Param*> p{&weight_};
  if (has_bias()) p.push_back(&bias_);
  return p;
}

void GemmLayer::set_qparams(const quant::QuantParams& wgt, const quant::QuantParams& act) {
  wgt_qp_ = wgt;
  act_qp_ = act;
  wgt_bits_ = wgt.bits;
  act_bits_ = act.bits;
  calibrated_ = true;
}

void GemmLayer::set_bit_widths(int weight_bits, int activation_bits) {
  if (weight_bits < 2 || weight_bits > 8 || activation_bits < 2 || activation_bits > 8)
    throw std::invalid_argument(name() + ": set_bit_widths: widths must be in [2, 8]");
  wgt_bits_ = weight_bits;
  act_bits_ = activation_bits;
  calibrated_ = false;  // existing steps were chosen for the old widths
}

Tensor GemmLayer::forward(const Tensor& x, const ExecContext& ctx) {
  // Telemetry (zero-overhead when disabled): capture the metric path once —
  // the backward pass runs outside the container scopes and reuses it.
  if (obs::enabled()) obs_path_ = detail::leaf_obs_path(*this);
  Caches keep;
  Tensor y = run(x, ctx, obs_path_, &keep);
  in_shape_ = x.shape();
  last_macs_ = macs_for(x.shape());
  calib_forward_ = ctx.mode == ExecMode::kCalibrate;
  if (calib_forward_) {
    // MinPropQE needs the GEMM operand and the float output; backward needs
    // nothing from a calibration pass, so it keeps no caches (one copy of
    // the operand, not two).
    act_obs_.observe(x);
    calib_in_ = std::move(keep.in);
    calib_out_fp_ = std::move(keep.calib_out);
    keep = Caches{};
  }
  cached_in_ = std::move(keep.in);
  cached_w_ = std::move(keep.w);
  cached_act_mask_ = std::move(keep.act_mask);
  cached_acc_ = std::move(keep.acc);
  cached_fit_ = keep.fit;
  return y;
}

Tensor GemmLayer::infer(const Tensor& x, const ExecContext& ctx) const {
  require_inference_context(*this, ctx);
  return run(x, ctx, obs::enabled() ? detail::leaf_obs_path(*this) : std::string{}, nullptr);
}

void GemmLayer::begin_quantized(const ExecContext& ctx, const LeafExec& ex,
                                const Tensor& x) const {
  if (!calibrated_) throw std::logic_error(name() + ": quantized forward before calibration");
  if (ex.mode == ExecMode::kQuantApprox) {
    if (ex.mul == nullptr)
      throw std::logic_error(name() + ": kQuantApprox requires a multiplier table");
    if (wgt_qp_.bits > 4)
      throw std::logic_error(
          name() + ": approximate execution requires weight_bits <= 4 (LUT operand)");
  }
  if (ctx.monitor != nullptr) ctx.monitor->on_leaf_input(*this, x);
}

TensorI32 GemmLayer::approx_gemm(const ExecContext& ctx, const LeafExec& ex, const TensorI8& qw,
                                 const int8_t* qx, int64_t n,
                                 const std::string& obs_path) const {
  const int64_t grp = groups();
  const int64_t o = weight_.value.shape()[0];
  const int64_t og = o / grp;
  const int64_t kg = dot_length();
  const approx::SignedMulTable& mul = *ex.mul;
  // The adder path fixes its own reduction order, so the monitor neither
  // forces it exact nor checks it (see ForwardMonitor).
  ForwardMonitor* mon = ex.adder == nullptr ? ctx.monitor : nullptr;
  const bool forced_exact = mon != nullptr && mon->force_exact(*this);
  TensorI32 acc(Shape{o, n});
  for (int64_t g = 0; g < grp; ++g) {
    const int8_t* wg = qw.data() + g * og * kg;
    const int8_t* xg = qx + g * kg * n;
    int32_t* cg = acc.data() + g * og * n;
    if (ex.adder != nullptr)
      kernels::gemm_approx_accum({}, wg, xg, cg, og, kg, n, mul, *ex.adder);
    else if (forced_exact)
      kernels::gemm_exact({}, wg, xg, cg, og, kg, n, kernels::auto_backend(og, kg, n), nullptr,
                          &plan_memo_);
    else
      kernels::gemm_approx({}, wg, xg, cg, og, kg, n, mul, kernels::auto_backend(og, kg, n),
                           nullptr, &plan_memo_);
    if (mon != nullptr)
      mon->on_leaf_gemm(*this, g, !forced_exact, wg, xg, cg, og, kg, n,
                        forced_exact ? nullptr : &mul);
  }
  if (obs::enabled()) {
    obs::Collector* c = obs::collector();
    if (c != nullptr && c->config().ge_residual) {
      // Diagnostics: re-run the GEMM exactly to observe eps = y~ - y and its
      // residual against the GE fit (roughly doubles forward cost).
      TensorI32 exact(Shape{o, n});
      for (int64_t g = 0; g < grp; ++g)
        kernels::gemm_exact({}, qw.data() + g * og * kg, qx + g * kg * n,
                            exact.data() + g * og * n, og, kg, n,
                            kernels::auto_backend(og, kg, n), nullptr, &plan_memo_);
      detail::record_ge_residual(obs_path, ex.fit, acc.data(), exact.data(), acc.numel());
    }
  }
  return acc;
}

void GemmLayer::require_backward_caches() const {
  if (calib_forward_)
    throw std::logic_error(name() + ": backward after a calibration forward (no caches kept)");
}

const Tensor& GemmLayer::ge_scaled(const Tensor& dy, Tensor& scaled) const {
  // Gradient estimation (Eq. 12): scale the weight-gradient path by (1 + K),
  // where K is the derivative of the fitted error function evaluated at the
  // integer accumulator value of each output element.
  // 1 + K takes two values: float(1 + k) in the fit's linear region, 1.0f
  // where it is clamped.
  if (cached_fit_ == nullptr) return dy;
  const ge::ErrorFit& fit = *cached_fit_;
  const float up = static_cast<float>(1.0 + fit.k);
  scaled = Tensor(dy.shape(), kUninit);
  const float* acc = cached_acc_.data();
  for (int64_t i = 0; i < scaled.numel(); ++i)
    scaled[i] = dy[i] * (fit.linear_at(acc[i]) ? up : 1.0f);
  if (obs::enabled()) detail::record_ge_backward(obs_path_, *cached_fit_, cached_acc_);
  return scaled;
}

void GemmLayer::finalize_calibration(quant::Calibration method) {
  if (!act_obs_.seen())
    throw std::logic_error(name() + ": finalize_calibration without calibration passes");
  act_qp_ = act_obs_.params_min_mse(act_bits_);

  switch (method) {
    case quant::Calibration::kMaxAbs:
      wgt_qp_ = quant::calibrate_max_abs(weight_.value, wgt_bits_);
      break;
    case quant::Calibration::kMinMse:
      wgt_qp_ = quant::calibrate_min_mse(weight_.value, wgt_bits_);
      break;
    case quant::Calibration::kMinPropQE: {
      if (!calib_in_ || !calib_out_fp_) {
        wgt_qp_ = quant::calibrate_min_mse(weight_.value, wgt_bits_);
        break;
      }
      wgt_qp_ = quant::calibrate_min_prop_qe(
          weight_.value, wgt_bits_, [&](const quant::QuantParams& p) {
            const Tensor wq = quant::fake_quantize(weight_.value, p);
            return ops::mse(float_gemm(wq.data(), *calib_in_), *calib_out_fp_);
          });
      break;
    }
  }
  calibrated_ = true;
  calib_in_.reset();
  calib_out_fp_.reset();
}

}  // namespace axnn::nn
