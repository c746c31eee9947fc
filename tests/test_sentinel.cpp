// Tests for the runtime sentinel (DESIGN.md §5f): ABFT checksum detection
// with GE-fit-calibrated tolerances, golden-weight repair, range guards, and
// the degradation policy — including the acceptance-criterion proof that a
// fault-free exact forward is bit-identical with the sentinel attached.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "axnn/axmul/registry.hpp"
#include "axnn/core/report_adapters.hpp"
#include "axnn/data/synthetic.hpp"
#include "axnn/kernels/signed_lut.hpp"
#include "axnn/nn/activations.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/nn/pooling.hpp"
#include "axnn/nn/sequential.hpp"
#include "axnn/resilience/fault.hpp"
#include "axnn/sentinel/sentinel.hpp"
#include "axnn/train/evaluate.hpp"

namespace axnn::sentinel {
namespace {

data::SyntheticCifar micro_data() {
  data::SyntheticConfig cfg;
  cfg.image_size = 8;
  cfg.train_size = 120;
  cfg.test_size = 60;
  cfg.noise_sigma = 0.35f;
  cfg.bleed_prob = 0.2f;
  return data::make_synthetic_cifar(cfg);
}

std::unique_ptr<nn::Sequential> micro_net(uint64_t seed = 3) {
  Rng rng(seed);
  auto net = std::make_unique<nn::Sequential>("micro");
  net->emplace<nn::Conv2d>(nn::Conv2dConfig{3, 8, 3, 1, 1, 1, true}, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Conv2d>(nn::Conv2dConfig{8, 8, 3, 2, 1, 1, true}, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::GlobalAvgPool>();
  net->emplace<nn::Linear>(8, 10, rng);
  return net;
}

void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << "element " << i;
}

bool any_element_differs(const Tensor& a, const Tensor& b) {
  for (int64_t i = 0; i < a.numel(); ++i)
    if (a[i] != b[i]) return true;
  return false;
}

/// Calibrated micro model, a test batch, and fast Monte-Carlo knobs.
class SentinelFixture : public ::testing::Test {
protected:
  void SetUp() override {
    data_ = micro_data();
    net_ = micro_net();
    train::calibrate_model(*net_, data_.train, 60, 30, quant::Calibration::kMinPropQE);
    batch_ = data_.test.slice(0, 24).first;
  }

  SentinelConfig fast_cfg() const {
    SentinelConfig cfg;
    cfg.mc.num_sims = 20;  // fast fits; the micro shapes are tiny
    cfg.mc.outputs_per_sim = 32;
    return cfg;
  }

  data::SyntheticCifar data_;
  std::unique_ptr<nn::Sequential> net_;
  Tensor batch_;
};

TEST_F(SentinelFixture, FaultFreeExactForwardBitIdentical) {
  const approx::SignedMulTable tab(axmul::make_lut("exact"));
  Sentinel s(fast_cfg());
  s.calibrate_uniform(*net_, tab, "exact");

  // Approximate context with the exact multiplier: the monitored forward
  // must reproduce the unmonitored one bit for bit, with zero violations.
  const auto ctx = nn::ExecContext::quant_approx(tab);
  const Tensor y0 = net_->forward(batch_, ctx);
  const Tensor y1 = net_->forward(batch_, ctx.with_monitor(s));
  expect_bit_identical(y0, y1);

  const SentinelReport rep = s.report();
  EXPECT_EQ(rep.total_violations(), 0);
  EXPECT_GT(rep.total_checks(), 0);
  EXPECT_EQ(rep.degraded_leaves(), 0);

  // Same guarantee on the plain quantized-exact path (range guards only).
  s.reset_counters();
  const Tensor e0 = net_->forward(batch_, nn::ExecContext::quant_exact());
  const Tensor e1 = net_->forward(batch_, nn::ExecContext::quant_exact().with_monitor(s));
  expect_bit_identical(e0, e1);
  const SentinelReport rep2 = s.report();
  EXPECT_EQ(rep2.total_violations(), 0);
  ASSERT_EQ(rep2.leaves.size(), 3u);
  for (const auto& l : rep2.leaves) EXPECT_GT(l.range_checks, 0);
}

TEST_F(SentinelFixture, CleanApproximateRunHasNoFalsePositives) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  Sentinel s(fast_cfg());
  s.calibrate_uniform(*net_, tab, "trunc5");

  // Several fault-free approximate batches: the calibrated tolerance must
  // absorb the genuine approximation error without a single violation.
  const auto ctx = nn::ExecContext::quant_approx(tab).with_monitor(s);
  for (int64_t off = 0; off + 20 <= 60; off += 20)
    (void)net_->forward(data_.test.slice(off, 20).first, ctx);

  const SentinelReport rep = s.report();
  EXPECT_EQ(rep.total_violations(), 0) << rep.summary();
  EXPECT_GT(rep.total_checks(), 0);
  for (const auto& l : rep.leaves) EXPECT_LT(l.max_rel_dev, 1.0) << l.path;
}

TEST_F(SentinelFixture, LutFaultsDetectedRepairedAndDegraded) {
  const approx::SignedMulTable clean(axmul::make_lut("trunc5"));
  auto cfg = fast_cfg();
  cfg.policy.degrade_after = 1;  // degrade on the first checksum violation
  Sentinel s(cfg);
  s.calibrate_uniform(*net_, clean, "trunc5");

  // Heavy stuck-at corruption in a copy of the table (calibration saw the
  // clean one, as a deployment would).
  approx::SignedMulTable bad(axmul::make_lut("trunc5"));
  resilience::FaultSpec spec;
  spec.rate = 0.3;
  spec.kind = resilience::FaultKind::kStuckAt;
  spec.bit_lo = 8;
  spec.bit_hi = 16;
  spec.seed = 99;
  resilience::FaultInjector inj(spec);
  resilience::corrupt_lut(bad, inj);

  const Tensor y1 = net_->forward(batch_, nn::ExecContext::quant_approx(bad).with_monitor(s));
  const SentinelReport rep = s.report();
  EXPECT_GT(rep.total_violations(), 0);
  EXPECT_GT(rep.total_reexecs(), 0);
  ASSERT_EQ(rep.degraded_leaves(), 3) << rep.summary();  // every leaf tripped

  // Every leaf now recomputes from golden state (default kGoldenTable
  // repair), so passes through the corrupted table are bit-identical to a
  // clean trunc5 forward — the faulty LUT is never consulted again, and
  // the model keeps the approximate semantics it was calibrated for.
  const Tensor want = net_->forward(batch_, nn::ExecContext::quant_approx(clean));
  const Tensor y2 = net_->forward(batch_, nn::ExecContext::quant_approx(bad).with_monitor(s));
  expect_bit_identical(want, y2);

  // The degraded pass skips verification: violations did not keep growing.
  const SentinelReport rep2 = s.report();
  EXPECT_EQ(rep2.total_violations(), rep.total_violations());
}

TEST_F(SentinelFixture, ExactRepairModeDegradesToExactKernel) {
  const approx::SignedMulTable clean(axmul::make_lut("trunc5"));
  auto cfg = fast_cfg();
  cfg.policy.degrade_after = 1;
  cfg.policy.repair = DegradationPolicy::RepairMode::kExact;
  Sentinel s(cfg);
  s.calibrate_uniform(*net_, clean, "trunc5");

  approx::SignedMulTable bad(axmul::make_lut("trunc5"));
  resilience::FaultSpec spec;
  spec.rate = 0.3;
  spec.kind = resilience::FaultKind::kStuckAt;
  spec.bit_lo = 8;
  spec.bit_hi = 16;
  spec.seed = 99;
  resilience::FaultInjector inj(spec);
  resilience::corrupt_lut(bad, inj);

  (void)net_->forward(batch_, nn::ExecContext::quant_approx(bad).with_monitor(s));
  ASSERT_EQ(s.report().degraded_leaves(), 3) << s.report().summary();

  // kExact degradation forces the leaves through the exact integer kernel:
  // the second pass is bit-identical to an exact-multiplier forward.
  const approx::SignedMulTable exact(axmul::make_lut("exact"));
  const Tensor want = net_->forward(batch_, nn::ExecContext::quant_approx(exact));
  const Tensor y2 = net_->forward(batch_, nn::ExecContext::quant_approx(bad).with_monitor(s));
  expect_bit_identical(want, y2);
}

TEST_F(SentinelFixture, WeightFaultsRepairedFromGoldenCopy) {
  const approx::SignedMulTable tab(axmul::make_lut("exact"));
  auto cfg = fast_cfg();
  cfg.policy.degrade_after = 1000000;  // repair every pass, never degrade
  Sentinel s(cfg);
  s.calibrate_uniform(*net_, tab, "exact");

  const auto ctx = nn::ExecContext::quant_approx(tab);
  const Tensor clean = net_->forward(batch_, ctx);

  // Flip exponent bits in every GEMM weight tensor (biases untouched so the
  // golden repair can restore the output exactly). bit_hi=30 keeps the top
  // exponent bit and the sign intact — corrupted but finite weights.
  std::vector<Tensor*> weights;
  for (const auto& leaf : nn::enumerate_gemm_leaves(*net_))
    weights.push_back(&leaf.layer->weight().value);
  ASSERT_EQ(weights.size(), 3u);
  resilience::FaultSpec spec;
  spec.rate = 0.05;
  spec.bit_lo = 23;
  spec.bit_hi = 30;
  spec.seed = 7;
  resilience::FaultInjector inj(spec);
  resilience::corrupt_tensors(weights, inj);

  const Tensor broken = net_->forward(batch_, ctx);
  ASSERT_TRUE(any_element_differs(clean, broken));  // the faults really bite

  // The monitored forward detects the weight checksum mismatch and re-runs
  // each GEMM with the golden quantized weights captured at calibration.
  const Tensor repaired = net_->forward(batch_, ctx.with_monitor(s));
  expect_bit_identical(clean, repaired);
  const SentinelReport rep = s.report();
  EXPECT_GT(rep.total_reexecs(), 0);
  EXPECT_EQ(rep.degraded_leaves(), 0);
  int64_t weight_violations = 0;
  for (const auto& l : rep.leaves) weight_violations += l.weight_violations;
  EXPECT_GT(weight_violations, 0);
}

TEST_F(SentinelFixture, RangeGuardFlagsOutOfRangeActivations) {
  const approx::SignedMulTable tab(axmul::make_lut("exact"));
  Sentinel s(fast_cfg());
  s.calibrate_uniform(*net_, tab, "exact");

  Tensor blown = batch_;
  for (int64_t i = 0; i < blown.numel(); ++i) blown[i] *= 1000.0f;
  (void)net_->forward(blown, nn::ExecContext::quant_exact().with_monitor(s));

  const SentinelReport rep = s.report();
  int64_t range_violations = 0;
  for (const auto& l : rep.leaves) range_violations += l.range_violations;
  EXPECT_GT(range_violations, 0);
  // Range guards warn; they never degrade a leaf on their own.
  EXPECT_EQ(rep.degraded_leaves(), 0);
}

TEST_F(SentinelFixture, PlanRewriteDemotesDegradedLeavesToExactMode) {
  nn::LayerPlan uniform;
  uniform.multiplier = "trunc5";
  nn::NetPlan plan(uniform);
  nn::PlanResolution res = plan.resolve(*net_);

  auto cfg = fast_cfg();
  cfg.policy.degrade_after = 1;
  cfg.policy.repair = DegradationPolicy::RepairMode::kExact;  // plan rewrite mode
  Sentinel s(cfg);
  s.calibrate_plan(*net_, res);

  // Weight corruption on the first conv only: exactly one leaf must degrade
  // and have its plan entry rewritten to the exact quantized mode.
  auto leaves = nn::enumerate_gemm_leaves(*net_);
  ASSERT_EQ(leaves.size(), 3u);
  auto* conv0 = dynamic_cast<nn::Conv2d*>(leaves[0].layer);
  ASSERT_NE(conv0, nullptr);
  resilience::FaultSpec spec;
  spec.rate = 0.1;
  spec.bit_lo = 23;
  spec.bit_hi = 30;
  spec.seed = 21;
  resilience::FaultInjector inj(spec);
  resilience::corrupt_tensors({&conv0->weight().value}, inj);

  const approx::SignedMulTable fallback(axmul::make_lut("exact"));
  const auto ctx = nn::ExecContext::quant_approx(fallback).with_plan(res).with_monitor(s);
  (void)net_->forward(batch_, ctx);

  const SentinelReport rep = s.report();
  EXPECT_EQ(rep.degraded_leaves(), 1) << rep.summary();
  const nn::ResolvedLayerPlan* entry = res.find(*leaves[0].layer);
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->plan.mode.has_value());
  EXPECT_EQ(*entry->plan.mode, nn::ExecMode::kQuantExact);
  // The healthy leaves keep their approximate plan.
  for (size_t i = 1; i < leaves.size(); ++i) {
    const nn::ResolvedLayerPlan* e = res.find(*leaves[i].layer);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->plan.mode.has_value()) << leaves[i].path;
  }

  // A later pass runs the rewritten plan without further violations: the
  // demoted leaf takes the exact fake-quant path and is no longer checked.
  const Tensor y = net_->forward(batch_, ctx);
  for (int64_t i = 0; i < y.numel(); ++i) ASSERT_TRUE(std::isfinite(y[i]));
  EXPECT_EQ(s.report().total_violations(), rep.total_violations());
}

TEST_F(SentinelFixture, ReportSummaryJsonAndReset) {
  const approx::SignedMulTable tab(axmul::make_lut("exact"));
  Sentinel s(fast_cfg());
  s.calibrate_uniform(*net_, tab, "exact");
  (void)net_->forward(batch_, nn::ExecContext::quant_approx(tab).with_monitor(s));

  const SentinelReport rep = s.report();
  EXPECT_NE(rep.summary().find("leaves"), std::string::npos);
  const std::string json = core::to_json(rep).dump();
  EXPECT_NE(json.find("violation_rate"), std::string::npos);
  EXPECT_NE(json.find("leaves"), std::string::npos);
  EXPECT_NE(json.find("gemm_checks"), std::string::npos);

  s.reset_counters();
  const SentinelReport zero = s.report();
  EXPECT_EQ(zero.total_checks(), 0);
  EXPECT_EQ(zero.total_violations(), 0);
  ASSERT_EQ(zero.leaves.size(), rep.leaves.size());  // calibration survives
}

TEST(SentinelCalibration, UncalibratedModelThrows) {
  auto net = micro_net();
  const approx::SignedMulTable tab(axmul::make_lut("exact"));
  Sentinel s;
  EXPECT_THROW(s.calibrate_uniform(*net, tab, "exact"), std::logic_error);
}

// --- SentinelReport::merge edge cases --------------------------------------
// The serving engine folds one report per (point, lane) into a session-level
// view; these pin down the fold's semantics on the shapes the engine
// produces.

namespace {

LeafStats leaf(const std::string& path, int64_t checks, int64_t viols, bool degraded = false,
               double max_rel_dev = 0.0) {
  LeafStats st;
  st.path = path;
  st.gemm_checks = checks;
  st.abft_violations = viols;
  st.degraded = degraded;
  st.max_rel_dev = max_rel_dev;
  return st;
}

}  // namespace

TEST(SentinelReportMerge, EmptyReportsAreIdentity) {
  SentinelReport empty;
  SentinelReport some;
  some.leaves.push_back(leaf("conv1", 10, 2));

  // empty.merge(some): adopts the other side's rows.
  SentinelReport a = empty;
  a.merge(some);
  ASSERT_EQ(a.leaves.size(), 1u);
  EXPECT_EQ(a.leaves[0].gemm_checks, 10);

  // some.merge(empty): unchanged.
  SentinelReport b = some;
  b.merge(empty);
  ASSERT_EQ(b.leaves.size(), 1u);
  EXPECT_EQ(b.total_checks(), some.total_checks());

  SentinelReport c;
  c.merge(SentinelReport{});
  EXPECT_TRUE(c.leaves.empty());
  EXPECT_EQ(c.total_checks(), 0);
  EXPECT_DOUBLE_EQ(c.violation_rate(), 0.0);
}

TEST(SentinelReportMerge, DisjointLeafSetsAppendInOrder) {
  SentinelReport a;
  a.leaves.push_back(leaf("conv1", 4, 1));
  a.leaves.push_back(leaf("conv2", 6, 0));
  SentinelReport b;
  b.leaves.push_back(leaf("fc", 8, 2));
  b.leaves.push_back(leaf("conv9", 2, 0));

  a.merge(b);
  ASSERT_EQ(a.leaves.size(), 4u);
  // Own rows keep their order; unknown paths append in the other report's
  // order — the engine's per-point reports stay readable after the fold.
  EXPECT_EQ(a.leaves[0].path, "conv1");
  EXPECT_EQ(a.leaves[1].path, "conv2");
  EXPECT_EQ(a.leaves[2].path, "fc");
  EXPECT_EQ(a.leaves[3].path, "conv9");
  EXPECT_EQ(a.total_checks(), 4 + 6 + 8 + 2);
  EXPECT_EQ(a.total_violations(), 1 + 2);
}

TEST(SentinelReportMerge, OverlappingPathsSumOrAndMax) {
  SentinelReport a;
  a.leaves.push_back(leaf("conv1", 4, 1, /*degraded=*/false, 0.5));
  SentinelReport b;
  LeafStats other = leaf("conv1", 6, 2, /*degraded=*/true, 0.25);
  other.range_checks = 3;
  other.weight_violations = 1;
  other.reexecs = 2;
  b.leaves.push_back(other);

  a.merge(b);
  ASSERT_EQ(a.leaves.size(), 1u);
  const LeafStats& m = a.leaves[0];
  EXPECT_EQ(m.gemm_checks, 10);
  EXPECT_EQ(m.range_checks, 3);
  EXPECT_EQ(m.abft_violations, 3);
  EXPECT_EQ(m.weight_violations, 1);
  EXPECT_EQ(m.reexecs, 2);
  EXPECT_TRUE(m.degraded);              // OR: degraded anywhere is degraded
  EXPECT_DOUBLE_EQ(m.max_rel_dev, 0.5);  // max across replicas
}

TEST(SentinelReportMerge, CountersSaturateInsteadOfWrapping) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  SentinelReport a;
  a.leaves.push_back(leaf("conv1", kMax - 5, kMax - 5));
  SentinelReport b;
  b.leaves.push_back(leaf("conv1", 100, 100));

  a.merge(b);
  // Adding past INT64_MAX must clamp, not overflow into UB / negatives.
  EXPECT_EQ(a.leaves[0].gemm_checks, kMax);
  EXPECT_EQ(a.leaves[0].abft_violations, kMax);
  EXPECT_GE(a.total_violations(), 0);

  // Repeated merges stay pinned at the ceiling.
  a.merge(b);
  EXPECT_EQ(a.leaves[0].gemm_checks, kMax);
}

}  // namespace
}  // namespace axnn::sentinel
