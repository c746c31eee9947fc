#include "axnn/nn/linear.hpp"

#include <stdexcept>

#include "axnn/kernels/gemm.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/nn/qutils.hpp"
#include "axnn/obs/telemetry.hpp"
#include "obs_hooks.hpp"

namespace axnn::nn {

namespace {

/// The Kaiming-initialised weight [O, F] of validated feature counts.
Tensor init_weight(int64_t in, int64_t out, Rng& rng) {
  if (in <= 0 || out <= 0) throw std::invalid_argument("Linear: features must be positive");
  return kaiming_normal(Shape{out, in}, in, rng);
}

}  // namespace

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : GemmLayer(init_weight(in_features, out_features, rng), bias),
      in_(in_features),
      out_(out_features) {}

std::string Linear::name() const {
  return "linear_" + std::to_string(in_) + "->" + std::to_string(out_);
}

Tensor Linear::float_gemm(const float* w, const Tensor& x) const {
  const int64_t n = x.shape()[0];
  Tensor y(Shape{n, out_});
  const kernels::GemmDesc desc{.trans_b = true};
  kernels::gemm(desc, x.data(), w, y.data(), n, in_, out_,
                kernels::auto_backend_f32(desc, n, in_, out_), nullptr, &plan_memo_);
  return y;
}

Tensor Linear::run(const Tensor& x, const ExecContext& ctx, const std::string& obs_path,
                   Caches* keep) const {
  if (x.shape().rank() != 2 || x.shape()[1] != in_)
    throw std::invalid_argument("Linear::forward: bad input shape " + x.shape().to_string());
  const int64_t n = x.shape()[0];
  const int64_t macs = macs_for(x.shape());
  const LeafExec ex = plan_leaf_exec(ctx, *this);
  const auto add_bias = [&](Tensor& y) {
    if (has_bias())
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < out_; ++j) y(i, j) += bias_.value[j];
  };

  const bool obs_on = obs::enabled();
  obs::ScopedTimer timer("forward.ns", obs_path);

  switch (ex.mode) {
    case ExecMode::kFloat:
    case ExecMode::kCalibrate: {
      Tensor y = float_gemm(weight_.value.data(), x);
      if (keep != nullptr) {
        if (ex.mode == ExecMode::kCalibrate) keep->calib_out = y;
        keep->in = x;
        keep->w = weight_.value;
      }
      add_bias(y);
      if (obs_on) detail::record_leaf_forward(obs_path, ex.mode, macs, x, nullptr);
      return y;
    }

    case ExecMode::kQuantExact: {
      begin_quantized(ctx, ex, x);
      Tensor xq = quant::fake_quantize(x, act_qp_);
      Tensor wq = quant::fake_quantize(weight_.value, wgt_qp_);
      Tensor y = float_gemm(wq.data(), xq);
      add_bias(y);
      if (keep != nullptr) {
        keep->act_mask = quant::ste_mask(x, act_qp_);
        keep->in = std::move(xq);
        keep->w = std::move(wq);
      }
      if (obs_on) detail::record_leaf_forward(obs_path, ex.mode, macs, x, &act_qp_);
      return y;
    }

    case ExecMode::kQuantApprox: {
      begin_quantized(ctx, ex, x);
      const TensorI8 qx = quantize_i8(x, act_qp_);
      const TensorI8 qw = quantize_i8(weight_.value, wgt_qp_);
      // The GEMM computes W[O,F] ·~ X[F,N]: transpose the activations so they
      // take the 8-bit operand role.
      TensorI8 qxt(Shape{in_, n});
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < in_; ++j) qxt(j, i) = qx(i, j);
      const TensorI32 acc = approx_gemm(ctx, ex, qw, qxt.data(), n, obs_path);

      // Fused dequant epilogue, transposing [O, N] back to [N, O].
      const float s = act_qp_.step * wgt_qp_.step;
      Tensor y(Shape{n, out_});
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < out_; ++j)
          y(i, j) = static_cast<float>(acc(j, i)) * s + (has_bias() ? bias_.value[j] : 0.0f);

      if (keep != nullptr) {
        keep->act_mask = quant::ste_mask(x, act_qp_);
        keep->in = dequantize_i8(qx, act_qp_);
        keep->w = dequantize_i8(qw, wgt_qp_);
        if (ex.fit != nullptr && !ex.fit->is_constant()) {
          keep->fit = ex.fit;
          keep->acc = Tensor(Shape{n, out_});
          for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < out_; ++j) keep->acc(i, j) = static_cast<float>(acc(j, i));
        }
      }
      if (obs_on) detail::record_leaf_forward(obs_path, ex.mode, macs, x, &act_qp_);
      return y;
    }
  }
  throw std::logic_error("Linear::forward: unknown mode");
}

Tensor Linear::backward(const Tensor& dy) {
  require_backward_caches();
  obs::ScopedTimer timer("backward.ns", obs_path_);
  const int64_t n = in_shape_[0];
  if (dy.shape() != Shape{n, out_})
    throw std::invalid_argument("Linear::backward: dy shape mismatch");

  if (has_bias()) {
    for (int64_t j = 0; j < out_; ++j) {
      double s = 0.0;
      for (int64_t i = 0; i < n; ++i) s += dy(i, j);
      bias_.grad[j] += static_cast<float>(s);
    }
  }

  Tensor dy_scaled;
  const Tensor& dyw = ge_scaled(dy, dy_scaled);
  {
    // dW[O,F] += dyᵀ · x
    obs::ScopedTimer t("backward.dw_gemm.ns", obs_path_);
    const kernels::GemmDesc desc{.trans_a = true, .accumulate = true};
    kernels::gemm(desc, dyw.data(), cached_in_.data(), weight_.grad.data(), out_, n, in_,
                  kernels::auto_backend_f32(desc, out_, n, in_), nullptr, &plan_memo_);
  }

  // dx[N,F] = dy · W
  Tensor dx(Shape{n, in_}, kUninit);
  {
    obs::ScopedTimer t("backward.dx_gemm.ns", obs_path_);
    kernels::gemm({}, dy.data(), cached_w_.data(), dx.data(), n, out_, in_,
                  kernels::auto_backend_f32({}, n, out_, in_), nullptr, &plan_memo_);
  }
  if (!cached_act_mask_.empty()) {
    obs::ScopedTimer t("backward.ste_mask.ns", obs_path_);
    for (int64_t i = 0; i < dx.numel(); ++i) dx[i] *= cached_act_mask_[i];
  }
  return dx;
}

}  // namespace axnn::nn
