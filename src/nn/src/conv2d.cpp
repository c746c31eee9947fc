#include "axnn/nn/conv2d.hpp"

#include <stdexcept>

#include "axnn/kernels/gemm.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/nn/qutils.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/tensor/ops.hpp"
#include "obs_hooks.hpp"

namespace axnn::nn {

namespace {

/// [N,O,oh,ow] feature map -> [O, N*oh*ow] GEMM layout.
Tensor to_mat(const Tensor& fmap) {
  const int64_t n = fmap.shape()[0], o = fmap.shape()[1];
  const int64_t hw = fmap.shape()[2] * fmap.shape()[3];
  Tensor mat(Shape{o, n * hw}, kUninit);
  for (int64_t b = 0; b < n; ++b)
    for (int64_t ch = 0; ch < o; ++ch) {
      const float* src = fmap.data() + (b * o + ch) * hw;
      float* dst = mat.data() + ch * (n * hw) + b * hw;
      for (int64_t p = 0; p < hw; ++p) dst[p] = src[p];
    }
  return mat;
}

/// The Kaiming-initialised weight [O, C/groups, k, k] of a validated config.
Tensor init_weight(const Conv2dConfig& cfg, Rng& rng) {
  if (cfg.in_channels <= 0 || cfg.out_channels <= 0)
    throw std::invalid_argument("Conv2d: channels must be positive");
  if (cfg.groups <= 0 || cfg.in_channels % cfg.groups || cfg.out_channels % cfg.groups)
    throw std::invalid_argument("Conv2d: channels must be divisible by groups");
  const int64_t cg = cfg.in_channels / cfg.groups;
  return kaiming_normal(Shape{cfg.out_channels, cg, cfg.kernel, cfg.kernel},
                        cg * cfg.kernel * cfg.kernel, rng);
}

}  // namespace

Conv2d::Conv2d(Conv2dConfig cfg, Rng& rng)
    : GemmLayer(init_weight(cfg, rng), cfg.bias), cfg_(cfg) {}

std::string Conv2d::name() const {
  return "conv" + std::to_string(cfg_.kernel) + "x" + std::to_string(cfg_.kernel) + "_" +
         std::to_string(cfg_.in_channels) + "->" + std::to_string(cfg_.out_channels) +
         (cfg_.groups > 1 ? "_g" + std::to_string(cfg_.groups) : "");
}

int64_t Conv2d::macs_per_sample(int64_t h, int64_t w) const {
  const int64_t oh = (h + 2 * cfg_.padding - cfg_.kernel) / cfg_.stride + 1;
  const int64_t ow = (w + 2 * cfg_.padding - cfg_.kernel) / cfg_.stride + 1;
  return cfg_.out_channels * dot_length() * oh * ow;
}

Tensor Conv2d::float_gemm(const float* w, const Tensor& cols) const {
  const int64_t o = cfg_.out_channels, grp = cfg_.groups;
  const int64_t og = o / grp;
  const int64_t kg = cols.shape()[0] / grp;
  const int64_t p = cols.shape()[1];
  Tensor out(Shape{o, p});
  for (int64_t g = 0; g < grp; ++g)
    kernels::gemm({}, w + g * og * kg, cols.data() + g * kg * p, out.data() + g * og * p,
                  og, kg, p, kernels::auto_backend_f32({}, og, kg, p), nullptr, &plan_memo_);
  return out;
}

Tensor Conv2d::output_from_mat(const Tensor& out_mat, const ConvGeom& g) const {
  Tensor out(Shape{g.n, cfg_.out_channels, g.oh, g.ow});
  const int64_t hw = g.oh * g.ow;
  const int64_t p_total = g.n * hw;
  for (int64_t b = 0; b < g.n; ++b)
    for (int64_t ch = 0; ch < cfg_.out_channels; ++ch) {
      const float bias_v = cfg_.bias ? bias_.value[ch] : 0.0f;
      const float* src = out_mat.data() + ch * p_total + b * hw;
      float* dst = out.data() + (b * cfg_.out_channels + ch) * hw;
      for (int64_t p = 0; p < hw; ++p) dst[p] = src[p] + bias_v;
    }
  return out;
}

Tensor Conv2d::output_from_acc(const TensorI32& acc, const ConvGeom& g) const {
  // Fused dequant epilogue: [O, N*HW] int32 accumulators straight into the
  // NCHW output, float(acc) * sx * sw + bias.
  Tensor out(Shape{g.n, cfg_.out_channels, g.oh, g.ow});
  const float sx = act_qp_.step, sw = wgt_qp_.step;
  const int64_t hw = g.oh * g.ow;
  const int64_t p_total = g.n * hw;
  for (int64_t b = 0; b < g.n; ++b)
    for (int64_t ch = 0; ch < cfg_.out_channels; ++ch) {
      const float bias_v = cfg_.bias ? bias_.value[ch] : 0.0f;
      const int32_t* src = acc.data() + ch * p_total + b * hw;
      float* dst = out.data() + (b * cfg_.out_channels + ch) * hw;
      for (int64_t p = 0; p < hw; ++p) dst[p] = static_cast<float>(src[p]) * sx * sw + bias_v;
    }
  return out;
}

Tensor Conv2d::run(const Tensor& x, const ExecContext& ctx, const std::string& obs_path,
                   Caches* keep) const {
  if (x.shape().rank() != 4 || x.shape()[1] != cfg_.in_channels)
    throw std::invalid_argument("Conv2d::forward: bad input shape " + x.shape().to_string());
  const ConvGeom geom = geom_of(x.shape());
  const LeafExec ex = plan_leaf_exec(ctx, *this);
  const int64_t macs = macs_for(x.shape());
  const Shape wmat_shape{cfg_.out_channels, dot_length()};

  const bool obs_on = obs::enabled();
  obs::ScopedTimer timer("forward.ns", obs_path);

  switch (ex.mode) {
    case ExecMode::kFloat:
    case ExecMode::kCalibrate: {
      Tensor cols = im2col(x, geom);
      Tensor out_mat = float_gemm(weight_.value.data(), cols);
      if (obs_on) detail::record_leaf_forward(obs_path, ex.mode, macs, x, nullptr);
      Tensor out = output_from_mat(out_mat, geom);
      if (keep != nullptr) {
        keep->in = std::move(cols);
        keep->w = weight_.value.reshaped(wmat_shape);
        if (ex.mode == ExecMode::kCalibrate) keep->calib_out = std::move(out_mat);
      }
      return out;
    }

    case ExecMode::kQuantExact: {
      begin_quantized(ctx, ex, x);
      Tensor cols = im2col(quant::fake_quantize(x, act_qp_), geom);
      Tensor wq = quant::fake_quantize(weight_.value, wgt_qp_);
      const Tensor out_mat = float_gemm(wq.data(), cols);
      if (obs_on) detail::record_leaf_forward(obs_path, ex.mode, macs, x, &act_qp_);
      if (keep != nullptr) {
        keep->act_mask = quant::ste_mask(x, act_qp_);
        keep->in = std::move(cols);
        keep->w = std::move(wq);
        keep->w.reshape(wmat_shape);
      }
      return output_from_mat(out_mat, geom);
    }

    case ExecMode::kQuantApprox: {
      begin_quantized(ctx, ex, x);
      const TensorI8 qcols = im2col_i8(quantize_i8(x, act_qp_), geom);
      const TensorI8 qw = quantize_i8(weight_.value, wgt_qp_);
      const TensorI32 acc = approx_gemm(ctx, ex, qw, qcols.data(), geom.out_cols(), obs_path);
      Tensor out = output_from_acc(acc, geom);
      if (keep != nullptr) {
        // The STE backward (Eq. 5) uses the *exact* GEMM of the quantized
        // values: keep them dequantized.
        keep->act_mask = quant::ste_mask(x, act_qp_);
        keep->in = dequantize_i8(qcols, act_qp_);
        keep->w = dequantize_i8(qw, wgt_qp_);
        keep->w.reshape(wmat_shape);
        if (ex.fit != nullptr && !ex.fit->is_constant()) {
          keep->fit = ex.fit;
          keep->acc = Tensor(acc.shape());
          for (int64_t i = 0; i < acc.numel(); ++i) keep->acc[i] = static_cast<float>(acc[i]);
        }
      }
      if (obs_on) detail::record_leaf_forward(obs_path, ex.mode, macs, x, &act_qp_);
      return out;
    }
  }
  throw std::logic_error("Conv2d::forward: unknown mode");
}

Tensor Conv2d::backward(const Tensor& dy) {
  require_backward_caches();
  obs::ScopedTimer timer("backward.ns", obs_path_);
  const ConvGeom geom = geom_of(in_shape_);
  if (dy.shape() != Shape{geom.n, cfg_.out_channels, geom.oh, geom.ow})
    throw std::invalid_argument("Conv2d::backward: dy shape mismatch");
  const int64_t o = cfg_.out_channels, grp = cfg_.groups;
  const int64_t og = o / grp;
  const int64_t kg = dot_length();
  const int64_t p = geom.out_cols();

  Tensor dy_mat = to_mat(dy);

  if (cfg_.bias) {
    for (int64_t ch = 0; ch < o; ++ch) {
      double s = 0.0;
      const float* row = dy_mat.data() + ch * p;
      for (int64_t j = 0; j < p; ++j) s += row[j];
      bias_.grad[ch] += static_cast<float>(s);
    }
  }

  Tensor dy_scaled;
  const Tensor& dyw = ge_scaled(dy_mat, dy_scaled);
  {
    obs::ScopedTimer t("backward.dw_gemm.ns", obs_path_);
    const kernels::GemmDesc desc{.trans_b = true};
    Tensor dw(weight_.grad.shape(), kUninit);  // [O, C/groups, k, k] = [O, kg]
    for (int64_t g = 0; g < grp; ++g)
      kernels::gemm(desc, dyw.data() + g * og * p, cached_in_.data() + g * kg * p,
                    dw.data() + g * og * kg, og, p, kg,
                    kernels::auto_backend_f32(desc, og, p, kg), nullptr, &plan_memo_);
    ops::add_inplace(weight_.grad, dw);
  }

  Tensor dcols(Shape{grp * kg, p}, kUninit);
  {
    obs::ScopedTimer t("backward.dx_gemm.ns", obs_path_);
    const kernels::GemmDesc desc{.trans_a = true};
    for (int64_t g = 0; g < grp; ++g)
      kernels::gemm(desc, cached_w_.data() + g * og * kg, dy_mat.data() + g * og * p,
                    dcols.data() + g * kg * p, kg, og, p,
                    kernels::auto_backend_f32(desc, kg, og, p), nullptr, &plan_memo_);
  }
  Tensor dx;
  {
    obs::ScopedTimer t("backward.col2im.ns", obs_path_);
    dx = col2im(dcols, geom);
  }

  // Clipped STE on activations: gradients are blocked where the input
  // saturated the 8-bit range.
  if (!cached_act_mask_.empty()) {
    obs::ScopedTimer t("backward.ste_mask.ns", obs_path_);
    for (int64_t i = 0; i < dx.numel(); ++i) dx[i] *= cached_act_mask_[i];
  }
  return dx;
}

void Conv2d::fold_scale_shift(const std::vector<float>& scale, const std::vector<float>& shift) {
  if (static_cast<int64_t>(scale.size()) != cfg_.out_channels ||
      static_cast<int64_t>(shift.size()) != cfg_.out_channels)
    throw std::invalid_argument("fold_scale_shift: size mismatch");
  const int64_t per_ch = weight_.value.numel() / cfg_.out_channels;
  for (int64_t ch = 0; ch < cfg_.out_channels; ++ch) {
    float* w = weight_.value.data() + ch * per_ch;
    for (int64_t i = 0; i < per_ch; ++i) w[i] *= scale[static_cast<size_t>(ch)];
  }
  if (!cfg_.bias) {
    bias_ = Param(Tensor(Shape{cfg_.out_channels}, 0.0f));
    cfg_.bias = true;
  }
  for (int64_t ch = 0; ch < cfg_.out_channels; ++ch)
    bias_.value[ch] = bias_.value[ch] * scale[static_cast<size_t>(ch)] +
                      shift[static_cast<size_t>(ch)];
  calibrated_ = false;  // folded weights need recalibration
}

}  // namespace axnn::nn
