// Property tests of the quantized execution paths across layer
// configurations: the approximate integer conv must equal a scalar
// reference that quantizes, multiplies through the behavioural model and
// accumulates — for every conv geometry (stride/padding/groups/kernel).
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <stdexcept>
#include <string>

#include "axnn/axmul/registry.hpp"
#include "axnn/kernels/signed_lut.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/nn/qutils.hpp"
#include "axnn/quant/calibration.hpp"
#include "axnn/tensor/ops.hpp"

namespace axnn::nn {
namespace {

/// Scalar reference of the quantized-approximate convolution (Eq. 4):
/// quantize input and weights with the layer's params, slide the window,
/// multiply through the table, accumulate exactly, rescale, add bias.
Tensor reference_approx_conv(const Tensor& x, Conv2d& conv,
                             const approx::SignedMulTable& tab) {
  const auto& cfg = conv.config();
  const TensorI8 qx = quantize_i8(x, conv.act_qparams());
  const TensorI8 qw = quantize_i8(conv.weight().value, conv.weight_qparams());
  const float scale = conv.act_qparams().step * conv.weight_qparams().step;

  const int64_t n = x.shape()[0], h = x.shape()[2], w = x.shape()[3];
  const int64_t k = cfg.kernel, s = cfg.stride, p = cfg.padding;
  const int64_t cg = cfg.in_channels / cfg.groups;
  const int64_t og = cfg.out_channels / cfg.groups;
  const int64_t oh = (h + 2 * p - k) / s + 1;
  const int64_t ow = (w + 2 * p - k) / s + 1;

  Tensor y(Shape{n, cfg.out_channels, oh, ow});
  for (int64_t b = 0; b < n; ++b)
    for (int64_t oc = 0; oc < cfg.out_channels; ++oc) {
      const int64_t g = oc / og;
      const float bias = conv.has_bias() ? conv.bias_param().value[oc] : 0.0f;
      for (int64_t i = 0; i < oh; ++i)
        for (int64_t j = 0; j < ow; ++j) {
          int64_t acc = 0;
          for (int64_t ic = 0; ic < cg; ++ic)
            for (int64_t kh = 0; kh < k; ++kh)
              for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t ih = i * s - p + kh;
                const int64_t iw = j * s - p + kw;
                if (ih < 0 || ih >= h || iw < 0 || iw >= w) continue;
                const int8_t qa = qx(b, g * cg + ic, ih, iw);
                // weight tensor is [O, Cg, k, k]
                const int8_t qq =
                    qw[((oc * cg + ic) * k + kh) * k + kw];
                acc += tab(qa, qq);
              }
          y(b, oc, i, j) = static_cast<float>(acc) * scale + bias;
        }
    }
  return y;
}

struct PathCase {
  int64_t in_ch, out_ch, kernel, stride, pad, groups, hw;
  const char* mult;
};

class ApproxConvPathSweep : public ::testing::TestWithParam<PathCase> {};

TEST_P(ApproxConvPathSweep, LayerMatchesScalarReference) {
  const PathCase pc = GetParam();
  Rng rng(static_cast<uint64_t>(pc.in_ch * 1000 + pc.out_ch * 100 + pc.hw));
  Conv2d conv({pc.in_ch, pc.out_ch, pc.kernel, pc.stride, pc.pad, pc.groups, true}, rng);
  for (int64_t i = 0; i < pc.out_ch; ++i)
    conv.bias_param().value[i] = 0.05f * static_cast<float>(i);
  const Tensor x = randn(Shape{2, pc.in_ch, pc.hw, pc.hw}, rng, 0.2f, 0.4f);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);

  const approx::SignedMulTable tab(axmul::make_lut(pc.mult));
  const Tensor y = conv.forward(x, ExecContext::quant_approx(tab));
  const Tensor ref = reference_approx_conv(x, conv, tab);
  ASSERT_EQ(y.shape(), ref.shape());
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-3f) << "elem " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ApproxConvPathSweep,
    ::testing::Values(PathCase{3, 4, 3, 1, 1, 1, 6, "trunc3"},
                      PathCase{3, 4, 3, 1, 1, 1, 6, "trunc5"},
                      PathCase{3, 4, 3, 1, 1, 1, 6, "evoa228"},
                      PathCase{4, 6, 3, 2, 1, 1, 7, "trunc4"},
                      PathCase{4, 4, 3, 1, 1, 4, 6, "trunc4"},   // depthwise
                      PathCase{4, 8, 1, 1, 0, 2, 5, "evoa29"},   // grouped 1x1
                      PathCase{2, 3, 5, 2, 2, 1, 9, "trunc2"},   // 5x5 strided
                      PathCase{1, 1, 1, 1, 0, 1, 3, "trunc1"})); // degenerate

TEST(ApproxLinearPath, MatchesScalarReference) {
  Rng rng(77);
  Linear lin(11, 5, rng);
  const Tensor x = randn(Shape{4, 11}, rng, 0.2f, 0.4f);
  (void)lin.forward(x, ExecContext::calibrate());
  lin.finalize_calibration(quant::Calibration::kMinPropQE);

  const approx::SignedMulTable tab(axmul::make_lut("trunc4"));
  const Tensor y = lin.forward(x, ExecContext::quant_approx(tab));

  const TensorI8 qx = quantize_i8(x, lin.act_qparams());
  const TensorI8 qw = quantize_i8(lin.weight().value, lin.weight_qparams());
  const float scale = lin.act_qparams().step * lin.weight_qparams().step;
  for (int64_t i = 0; i < 4; ++i)
    for (int64_t j = 0; j < 5; ++j) {
      int64_t acc = 0;
      for (int64_t f = 0; f < 11; ++f) acc += tab(qx(i, f), qw(j, f));
      const float ref = static_cast<float>(acc) * scale + lin.bias_param().value[j];
      EXPECT_NEAR(y(i, j), ref, 1e-3f);
    }
}

TEST(QuantExactPath, MoreSevereMultiplierMoreOutputError) {
  // Monotonicity across the truncated family at the layer level.
  Rng rng(88);
  Conv2d conv({3, 8, 3, 1, 1, 1, false}, rng);
  Tensor x = randn(Shape{2, 3, 8, 8}, rng, 0.4f, 0.3f);
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = std::max(0.0f, x[i]);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);
  const Tensor ref = conv.forward(x, ExecContext::quant_exact());

  double prev = -1.0;
  for (int t = 1; t <= 5; ++t) {
    const approx::SignedMulTable tab(axmul::make_lut("trunc" + std::to_string(t)));
    const Tensor y = conv.forward(x, ExecContext::quant_approx(tab));
    const double err = ops::mse(y, ref);
    EXPECT_GE(err, prev - 1e-9) << "t=" << t;
    prev = err;
  }
}

TEST(QuantExactPath, RepeatedForwardIsDeterministic) {
  Rng rng(99);
  Conv2d conv({2, 3, 3, 1, 1, 1, true}, rng);
  const Tensor x = randn(Shape{2, 2, 6, 6}, rng, 0.0f, 0.5f);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);
  const approx::SignedMulTable tab(axmul::make_lut("evoa228"));
  const Tensor y1 = conv.forward(x, ExecContext::quant_approx(tab));
  const Tensor y2 = conv.forward(x, ExecContext::quant_approx(tab));
  for (int64_t i = 0; i < y1.numel(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST(QuantExactPath, PowerOfTwoStepsEverywhere) {
  // The paper's constraint: every calibrated step is a power of two.
  Rng rng(111);
  Conv2d conv({3, 4, 3, 1, 1, 1, true}, rng);
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng, 0.0f, 0.7f);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);
  for (const float step : {conv.weight_qparams().step, conv.act_qparams().step}) {
    const float l = std::log2f(step);
    EXPECT_FLOAT_EQ(l, std::round(l));
  }
}

TEST(CalibrationPass, KeepsNoBackwardCaches) {
  // A calibration forward keeps what MinPropQE needs and nothing for
  // backward: a backward right after it must fail loudly, naming the layer,
  // and a training forward must make backward work again.
  Rng rng(121);
  Conv2d conv({2, 3, 3, 1, 1, 1, true}, rng);
  Linear lin(6, 4, rng);
  const Tensor x = randn(Shape{2, 2, 5, 5}, rng, 0.0f, 0.5f);
  const Tensor xl = randn(Shape{3, 6}, rng, 0.0f, 0.5f);
  const Tensor y = conv.forward(x, ExecContext::calibrate());
  const Tensor yl = lin.forward(xl, ExecContext::calibrate());
  for (auto* layer : std::initializer_list<Layer*>{&conv, &lin}) {
    const Tensor& out = layer == &conv ? y : yl;
    try {
      (void)layer->backward(Tensor(out.shape(), 1.0f));
      ADD_FAILURE() << layer->name() << ": backward after calibration did not throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(layer->name()), std::string::npos) << e.what();
    }
  }
  // The calibration data survived for finalize_calibration (MinPropQE).
  conv.finalize_calibration(quant::Calibration::kMinPropQE);
  lin.finalize_calibration(quant::Calibration::kMinPropQE);
  EXPECT_TRUE(conv.calibrated());

  const Tensor y2 = conv.forward(x, ExecContext{});
  const Tensor dx = conv.backward(Tensor(y2.shape(), 1.0f));
  EXPECT_EQ(dx.shape(), x.shape());
  const Tensor yl2 = lin.forward(xl, ExecContext{});
  EXPECT_EQ(lin.backward(Tensor(yl2.shape(), 1.0f)).shape(), xl.shape());
}

}  // namespace
}  // namespace axnn::nn
