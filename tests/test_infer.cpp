// Tests for the inference entry point Layer::infer (DESIGN.md §5g): infer is
// bitwise-equal to forward in every exec mode, under uniform, per-layer and
// adder plans, with a sentinel monitor and under fault injection, on
// ResNet20 (BN folded), ResNet32 and MobileNetV2 (BN unfolded, ReLU6,
// depthwise groups); it runs through a const reference and leaves forward's
// backward caches alone; and it rejects calibration and training contexts.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "axnn/axmul/registry.hpp"
#include "axnn/data/synthetic.hpp"
#include "axnn/kernels/signed_lut.hpp"
#include "axnn/models/mobilenetv2.hpp"
#include "axnn/models/resnet.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/nn/sequential.hpp"
#include "axnn/resilience/fault.hpp"
#include "axnn/sentinel/sentinel.hpp"
#include "axnn/train/evaluate.hpp"

namespace axnn::nn {
namespace {

data::SyntheticCifar micro_data() {
  data::SyntheticConfig cfg;
  cfg.image_size = 8;
  cfg.train_size = 64;
  cfg.test_size = 16;
  return data::make_synthetic_cifar(cfg);
}

void expect_bit_identical(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<size_t>(a.numel())), 0)
      << what;
}

struct Model {
  std::string name;
  std::unique_ptr<Sequential> net;
};

/// A calibrated model whose BatchNorms carry non-trivial running statistics.
Model build(const std::string& name, const data::SyntheticCifar& data) {
  std::unique_ptr<Sequential> net;
  if (name == "resnet20") net = models::make_resnet20(0.25f, 7);
  if (name == "resnet32") net = models::make_resnet32(0.25f, 7);
  if (name == "mobilenetv2") net = models::make_mobilenet_v2({.width_mult = 0.25f, .seed = 7});
  for (int64_t b = 0; b < 4; ++b)
    (void)net->forward(data.train.slice(b * 16, 16).first, ExecContext::fp(/*training=*/true));
  if (name == "resnet20") net->fold_batchnorms();
  train::calibrate_model(*net, data.train, 32, 16, quant::Calibration::kMinPropQE);
  return {name, std::move(net)};
}

class InferGolden : public ::testing::TestWithParam<const char*> {
protected:
  void SetUp() override {
    data_ = micro_data();
    model_ = build(GetParam(), data_);
  }

  /// forward vs infer on batch 1 and 8, infer through a const reference.
  void expect_golden(const ExecContext& ctx, const std::string& what) {
    const Layer& frozen = *model_.net;
    for (const int64_t b : {1, 8}) {
      const Tensor x = data_.test.slice(0, b).first;
      const Tensor y_fwd = model_.net->forward(x, ctx);
      const Tensor y_inf = frozen.infer(x, ctx);
      expect_bit_identical(y_fwd, y_inf, model_.name + " " + what + " batch " + std::to_string(b));
    }
  }

  data::SyntheticCifar data_;
  Model model_;
};

TEST_P(InferGolden, MatchesForwardInEveryMode) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));
  expect_golden(ExecContext::fp(), "float");
  expect_golden(ExecContext::quant_exact(), "exact");
  expect_golden(ExecContext::quant_approx(tab), "approx");
}

TEST_P(InferGolden, MatchesForwardUnderPlans) {
  const auto leaves = enumerate_gemm_leaves(*model_.net);
  ASSERT_GE(leaves.size(), 3u);
  const std::string per_layer = "default=trunc3; " + leaves.front().path + "=trunc5:mode=exact; " +
                                leaves[1].path + "=evoa228; " + leaves.back().path + "=exact";
  for (const std::string& text :
       {std::string("default=trunc3"), per_layer, std::string("default=trunc3:add=loa4")}) {
    const PlanResolution res = NetPlan::parse(text).resolve(*model_.net);
    expect_golden(ExecContext{.mode = ExecMode::kQuantApprox}.with_plan(res), text);
  }
}

TEST_P(InferGolden, MatchesForwardWithSentinelAttached) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));
  sentinel::SentinelConfig cfg;
  cfg.mc.num_sims = 10;
  cfg.mc.outputs_per_sim = 16;
  sentinel::Sentinel s(cfg);
  s.calibrate_uniform(*model_.net, tab, "trunc3");
  expect_golden(ExecContext::quant_approx(tab).with_monitor(s), "approx+sentinel");
  expect_golden(ExecContext::quant_exact().with_monitor(s), "exact+sentinel");
  EXPECT_GT(s.report().total_checks(), 0);
}

TEST_P(InferGolden, FaultInjectionFlipsTheSameBits) {
  // Two injectors with one spec see the same pass/site sequence, so forward
  // and infer must corrupt the same activation bits.
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));
  const resilience::FaultSpec spec{.rate = 2e-3, .bit_lo = 20, .bit_hi = 31, .seed = 11};
  const resilience::FaultInjector a(spec), b(spec);
  const Layer& frozen = *model_.net;
  for (int pass = 0; pass < 3; ++pass) {
    const Tensor x = data_.test.slice(0, 8).first;
    const Tensor y_fwd = model_.net->forward(x, ExecContext::quant_approx(tab).with_faults(a));
    const Tensor y_inf = frozen.infer(x, ExecContext::quant_approx(tab).with_faults(b));
    expect_bit_identical(y_fwd, y_inf, model_.name + " faults pass " + std::to_string(pass));
  }
}

INSTANTIATE_TEST_SUITE_P(Models, InferGolden,
                         ::testing::Values("resnet20", "resnet32", "mobilenetv2"));

TEST(InferContract, LeavesForwardCachesUntouched) {
  // forward(x); infer(other); backward(dy) must give the gradients of
  // forward(x); backward(dy): infer writes none of the backward caches.
  const data::SyntheticCifar data = micro_data();
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));
  const ge::ErrorFit fit{.a = 1e6, .b = -1e6, .k = 0.01, .c = 0.0};
  const ExecContext train_ctx = ExecContext::quant_approx(tab, &fit, /*training=*/true);
  const Tensor x = data.test.slice(0, 8).first;
  const Tensor other = data.test.slice(8, 4).first;

  std::vector<std::vector<float>> grads[2];
  for (int with_infer = 0; with_infer < 2; ++with_infer) {
    Model m = build("mobilenetv2", data);
    const Tensor y = m.net->forward(x, train_ctx);
    const Layer& frozen = *m.net;
    if (with_infer) (void)frozen.infer(other, ExecContext::quant_approx(tab));
    m.net->zero_grad();
    (void)m.net->backward(Tensor(y.shape(), 0.25f));
    for (Param* p : collect_params(*m.net))
      grads[with_infer].emplace_back(p->grad.data(), p->grad.data() + p->grad.numel());
  }
  ASSERT_EQ(grads[0].size(), grads[1].size());
  for (size_t i = 0; i < grads[0].size(); ++i) EXPECT_EQ(grads[0][i], grads[1][i]) << "param " << i;
}

TEST(InferContract, RejectsCalibrationAndTrainingContexts) {
  const data::SyntheticCifar data = micro_data();
  const Model m = build("resnet20", data);
  const Layer& frozen = *m.net;
  const Tensor x = data.test.slice(0, 2).first;
  EXPECT_THROW((void)frozen.infer(x, ExecContext::calibrate()), std::logic_error);
  EXPECT_THROW((void)frozen.infer(x, ExecContext::fp(/*training=*/true)), std::logic_error);
  EXPECT_THROW((void)frozen.infer(x, ExecContext::quant_exact(/*training=*/true)),
               std::logic_error);
  // Every leaf checks too, not only the containers.
  const Layer& leaf = *enumerate_gemm_leaves(*m.net).front().layer;
  EXPECT_THROW((void)leaf.infer(x, ExecContext::calibrate()), std::logic_error);
}

TEST(InferContract, DefaultInferThrowsNamingTheLayer) {
  struct Custom final : Layer {
    std::string name() const override { return "custom_layer"; }
    Tensor forward(const Tensor& x, const ExecContext&) override { return x; }
    Tensor backward(const Tensor& dy) override { return dy; }
  };
  const Custom c;
  try {
    (void)c.infer(Tensor(Shape{1, 1}, 0.0f), ExecContext::fp());
    FAIL() << "default infer must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("custom_layer"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace axnn::nn
