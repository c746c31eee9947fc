// Tests for the paper-outlook extensions: configurable quantization
// bit-widths and per-layer plan overrides (non-uniform approximation).
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "axnn/axmul/registry.hpp"
#include "axnn/kernels/signed_lut.hpp"
#include "axnn/nn/activations.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/nn/sequential.hpp"
#include "axnn/quant/calibration.hpp"
#include "axnn/tensor/ops.hpp"

namespace axnn::nn {
namespace {

Conv2d make_calibrated_conv(Rng& rng, const Tensor& x, int wbits = 4, int abits = 8) {
  Conv2d conv({x.shape()[1], 4, 3, 1, 1, 1, true}, rng);
  conv.set_bit_widths(wbits, abits);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);
  return conv;
}

TEST(BitWidths, DefaultsAre8A4W) {
  Rng rng(1);
  Conv2d conv({2, 2, 3, 1, 1, 1, true}, rng);
  EXPECT_EQ(conv.weight_bits(), 4);
  EXPECT_EQ(conv.activation_bits(), 8);
  Linear lin(4, 2, rng);
  EXPECT_EQ(lin.weight_bits(), 4);
  EXPECT_EQ(lin.activation_bits(), 8);
}

TEST(BitWidths, Validation) {
  Rng rng(2);
  Conv2d conv({2, 2, 3, 1, 1, 1, true}, rng);
  EXPECT_THROW(conv.set_bit_widths(1, 8), std::invalid_argument);
  EXPECT_THROW(conv.set_bit_widths(4, 9), std::invalid_argument);
  Linear lin(4, 2, rng);
  EXPECT_THROW(lin.set_bit_widths(0, 8), std::invalid_argument);
}

TEST(BitWidths, SettingInvalidatesCalibration) {
  Rng rng(3);
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng, 0.0f, 0.5f);
  Conv2d conv = make_calibrated_conv(rng, x);
  EXPECT_TRUE(conv.calibrated());
  conv.set_bit_widths(3, 8);
  EXPECT_FALSE(conv.calibrated());
  EXPECT_THROW(conv.forward(x, ExecContext::quant_exact()), std::logic_error);
}

TEST(BitWidths, CalibrationUsesConfiguredWidths) {
  Rng rng(4);
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng, 0.0f, 0.5f);
  Conv2d conv = make_calibrated_conv(rng, x, /*wbits=*/3, /*abits=*/6);
  EXPECT_EQ(conv.weight_qparams().bits, 3);
  EXPECT_EQ(conv.act_qparams().bits, 6);
  EXPECT_EQ(conv.weight_qparams().qmax(), 3);
}

TEST(BitWidths, LowerWidthIncreasesQuantError) {
  Rng rng(5);
  const Tensor x = randn(Shape{2, 3, 8, 8}, rng, 0.0f, 0.5f);
  Conv2d ref({3, 4, 3, 1, 1, 1, true}, rng);

  double prev_err = -1.0;
  for (const int wbits : {8, 4, 2}) {
    Rng clone_rng(5);
    Conv2d conv({3, 4, 3, 1, 1, 1, true}, clone_rng);
    conv.weight().value = ref.weight().value;
    conv.set_bit_widths(wbits, 8);
    (void)conv.forward(x, ExecContext::calibrate());
    conv.finalize_calibration(quant::Calibration::kMinPropQE);
    const Tensor y_fp = conv.forward(x, ExecContext::fp());
    const Tensor y_q = conv.forward(x, ExecContext::quant_exact());
    const double err = ops::mse(y_fp, y_q);
    EXPECT_GE(err, prev_err - 1e-9) << "wbits=" << wbits;
    prev_err = err;
  }
}

/// Calibrates `leaf` on one batch `x` (MinPropQE).
void calibrate(GemmLayer& leaf, const Tensor& x) {
  (void)leaf.forward(x, ExecContext::calibrate());
  leaf.finalize_calibration(quant::Calibration::kMinPropQE);
}

TEST(BitWidths, ApproxModeRejectsWideWeights) {
  Rng rng(6);
  const Tensor x = randn(Shape{1, 2, 5, 5}, rng, 0.0f, 0.5f);
  const Tensor xf = randn(Shape{3, 4}, rng, 0.0f, 0.5f);
  Conv2d conv({2, 2, 3, 1, 1, 1, true}, rng);
  Linear lin(4, 2, rng);
  const approx::SignedMulTable tab;
  for (const auto& [leaf, in] : {std::pair<GemmLayer*, const Tensor*>{&conv, &x}, {&lin, &xf}}) {
    leaf->set_bit_widths(8, 8);
    calibrate(*leaf, *in);
    // Quantized-exact works at 8-bit weights...
    EXPECT_NO_THROW(leaf->forward(*in, ExecContext::quant_exact())) << leaf->name();
    // ...but the 4-bit LUT operand cannot represent them.
    EXPECT_THROW(leaf->forward(*in, ExecContext::quant_approx(tab)), std::logic_error)
        << leaf->name();
  }
}

TEST(GemmLayerGuards, ApproxForwardWithoutTableThrows) {
  Rng rng(9);
  const Tensor x = randn(Shape{1, 2, 5, 5}, rng, 0.0f, 0.5f);
  const Tensor xf = randn(Shape{3, 4}, rng, 0.0f, 0.5f);
  Conv2d conv({2, 2, 3, 1, 1, 1, true}, rng);
  Linear lin(4, 2, rng);
  const ExecContext no_table{.mode = ExecMode::kQuantApprox};
  for (const auto& [leaf, in] : {std::pair<GemmLayer*, const Tensor*>{&conv, &x}, {&lin, &xf}}) {
    calibrate(*leaf, *in);
    try {
      (void)leaf->forward(*in, no_table);
      ADD_FAILURE() << leaf->name() << ": kQuantApprox without a table did not throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("multiplier table"), std::string::npos) << e.what();
    }
  }
}

TEST(BitWidths, RecursiveSetterReachesAllGemmLayers) {
  Rng rng(7);
  Sequential net;
  net.emplace<Conv2d>(Conv2dConfig{3, 4, 3, 1, 1, 1, true}, rng);
  net.emplace<ReLU>();
  auto& lin = net.emplace<Linear>(4, 2, rng);
  set_bit_widths_recursive(net, 3, 7);
  auto* conv = dynamic_cast<Conv2d*>(&net[0]);
  ASSERT_NE(conv, nullptr);
  EXPECT_EQ(conv->weight_bits(), 3);
  EXPECT_EQ(conv->activation_bits(), 7);
  EXPECT_EQ(lin.weight_bits(), 3);
}

TEST(PlanOverride, TakesPrecedenceOverContext) {
  Rng rng(8);
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng, 0.3f, 0.4f);
  Conv2d conv = make_calibrated_conv(rng, x);

  const approx::SignedMulTable trunc5(axmul::make_lut("trunc5"));

  // Context says trunc5, the plan says exact -> output equals quant-exact.
  const PlanResolution exact_plan =
      NetPlan(LayerPlan{.multiplier = "exact"}).resolve(conv);
  const Tensor y_plan =
      conv.forward(x, ExecContext::quant_approx(trunc5).with_plan(exact_plan));
  const Tensor y_exact = conv.forward(x, ExecContext::quant_exact());
  for (int64_t i = 0; i < y_plan.numel(); ++i)
    EXPECT_NEAR(y_plan[i], y_exact[i], 1e-3f);

  // Without the plan the damage shows.
  const Tensor y_trunc = conv.forward(x, ExecContext::quant_approx(trunc5));
  EXPECT_GT(ops::mse(y_trunc, y_exact), 0.0);
}

TEST(PlanOverride, WorksWithoutContextMultiplier) {
  // A layer with a plan multiplier can run kQuantApprox even when the
  // context carries no table (fully per-layer configuration).
  Rng rng(9);
  const Tensor x = randn(Shape{1, 2, 5, 5}, rng, 0.3f, 0.4f);
  Conv2d conv = make_calibrated_conv(rng, x);
  const PlanResolution res = NetPlan(LayerPlan{.multiplier = "trunc3"}).resolve(conv);
  res.require_approximable();
  ExecContext ctx;
  ctx.mode = ExecMode::kQuantApprox;  // ctx.mul == nullptr
  EXPECT_NO_THROW(conv.forward(x, ctx.with_plan(res)));
  EXPECT_THROW(conv.forward(x, ctx), std::logic_error);
}

TEST(PlanOverride, LinearSupportsPlans) {
  Rng rng(10);
  const Tensor x = randn(Shape{3, 6}, rng, 0.2f, 0.4f);
  Linear lin(6, 4, rng);
  (void)lin.forward(x, ExecContext::calibrate());
  lin.finalize_calibration(quant::Calibration::kMinPropQE);

  const approx::SignedMulTable trunc5(axmul::make_lut("trunc5"));
  const PlanResolution exact_plan =
      NetPlan(LayerPlan{.multiplier = "exact"}).resolve(lin);
  const Tensor y1 = lin.forward(x, ExecContext::quant_approx(trunc5).with_plan(exact_plan));
  const Tensor y2 = lin.forward(x, ExecContext::quant_exact());
  for (int64_t i = 0; i < y1.numel(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-3f);
}

TEST(PlanOverride, MixedNetworkIntermediateDamage) {
  // Uniform gentle >= mixed >= uniform aggressive (in expectation) on the
  // raw layer-output error of a two-conv stack.
  Rng rng(11);
  const Tensor x = randn(Shape{2, 3, 8, 8}, rng, 0.3f, 0.4f);
  Sequential net;
  net.emplace<Conv2d>(Conv2dConfig{3, 6, 3, 1, 1, 1, true}, rng);
  net.emplace<ReLU>();
  net.emplace<Conv2d>(Conv2dConfig{6, 6, 3, 1, 1, 1, true}, rng);
  (void)net.forward(x, ExecContext::calibrate());
  finalize_calibration_recursive(net, quant::Calibration::kMinPropQE);

  const approx::SignedMulTable gentle(axmul::make_lut("trunc1"));
  const approx::SignedMulTable aggressive(axmul::make_lut("trunc5"));
  const Tensor ref = net.forward(x, ExecContext::quant_exact());

  const Tensor y_gentle = net.forward(x, ExecContext::quant_approx(gentle));
  NetPlan mixed(LayerPlan{.multiplier = "trunc1"});
  mixed.set(enumerate_gemm_leaves(net).back().path, LayerPlan{.multiplier = "trunc5"});
  const PlanResolution res = mixed.resolve(net);
  const Tensor y_mixed = net.forward(x, ExecContext::quant_approx(gentle).with_plan(res));
  const Tensor y_aggr = net.forward(x, ExecContext::quant_approx(aggressive));

  EXPECT_LE(ops::mse(y_gentle, ref), ops::mse(y_mixed, ref) + 1e-9);
  EXPECT_LE(ops::mse(y_mixed, ref), ops::mse(y_aggr, ref) + 1e-9);
}

}  // namespace
}  // namespace axnn::nn
