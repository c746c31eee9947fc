// End-to-end integration tests: the Workbench pipeline (Algorithm 1) on a
// micro profile, table/profile utilities.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "axnn/core/pipeline.hpp"
#include "axnn/core/profile.hpp"
#include "axnn/core/table.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/train/evaluate.hpp"

namespace axnn::core {
namespace {

BenchProfile micro_profile() {
  BenchProfile p;
  p.image_size = 8;
  p.train_size = 160;
  p.test_size = 80;
  p.resnet_width = 0.25f;
  p.mobilenet_width = 0.25f;
  p.fp_epochs = 4;
  p.ft_epochs = 2;
  p.ft_batch = 40;
  p.quant_epochs = 1;
  p.decay_every = 2;
  p.cache_dir = (std::filesystem::temp_directory_path() / "axnn_itest_cache").string();
  return p;
}

WorkbenchConfig micro_config(ModelKind kind = ModelKind::kResNet20) {
  WorkbenchConfig cfg;
  cfg.model = kind;
  cfg.profile = micro_profile();
  cfg.calib_samples = 80;
  cfg.use_cache = false;
  return cfg;
}

TEST(Table, RenderAndCsv) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "a,bb\n1,2\n333,4\n");
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::pct(0.905, 1), "90.5");
}

TEST(Profile, EnvControlsFullMode) {
  ::unsetenv("AXNN_REPRO_FULL");
  EXPECT_FALSE(BenchProfile::from_env().full);
  ::setenv("AXNN_REPRO_FULL", "1", 1);
  const auto p = BenchProfile::from_env();
  EXPECT_TRUE(p.full);
  EXPECT_EQ(p.ft_epochs, 30);
  EXPECT_EQ(p.decay_every, 15);
  ::unsetenv("AXNN_REPRO_FULL");
}

TEST(Pipeline, ModelKindNames) {
  EXPECT_EQ(to_string(ModelKind::kResNet20), "resnet20");
  EXPECT_EQ(to_string(ModelKind::kResNet32), "resnet32");
  EXPECT_EQ(to_string(ModelKind::kMobileNetV2), "mobilenetv2");
}

TEST(Pipeline, CopyQuantStateCopiesStepsAndRejectsLeafTypeMismatch) {
  Rng rng(3);
  nn::Linear src(4, 2, rng), dst(4, 2, rng);
  nn::Conv2d conv({4, 2, 1, 1, 0, 1, true}, rng);
  const quant::QuantParams w{0.25f, 4}, a{0.125f, 8};
  src.set_qparams(w, a);
  copy_quant_state(src, dst);
  EXPECT_TRUE(dst.calibrated());
  EXPECT_EQ(dst.weight_qparams().step, w.step);
  EXPECT_EQ(dst.act_qparams().step, a.step);
  EXPECT_THROW(copy_quant_state(src, conv), std::invalid_argument);
  EXPECT_THROW(copy_quant_state(conv, src), std::invalid_argument);
}

TEST(Pipeline, EndToEndResNetFlow) {
  Workbench wb(micro_config());
  EXPECT_GT(wb.fp_accuracy(), 0.1);  // learned something even at micro scale

  const auto info = wb.info();
  EXPECT_GT(info.parameters, 0);
  EXPECT_GT(info.macs_per_sample, 0);

  const auto s1 = wb.run_quantization_stage(/*use_kd=*/true);
  EXPECT_GE(wb.quant_acc_before_ft(), 0.0);
  EXPECT_EQ(s1.history.size(), 1u);

  // Approximation with the exact multiplier changes nothing.
  const double exact_acc = wb.approx_initial_accuracy("exact");
  const double quant_acc = train::evaluate_accuracy(
      wb.model(), wb.data().test, nn::ExecContext::quant_exact());
  EXPECT_NEAR(exact_acc, quant_acc, 1e-9);

  const auto run = wb.run_approximation_stage(
      ApproxStageSetup::uniform("trunc3", train::Method::kApproxKD_GE, 5.0f));
  EXPECT_EQ(run.result.history.size(), 2u);
  EXPECT_EQ(run.multiplier, "trunc3");
  EXPECT_FALSE(run.fit.is_constant());  // truncated -> sloped fit
}

TEST(Pipeline, ApproxRunsAreIndependent) {
  Workbench wb(micro_config());
  (void)wb.run_quantization_stage(false);
  const auto setup = ApproxStageSetup::uniform("trunc3", train::Method::kNormal, 1.0f);
  const auto r1 = wb.run_approximation_stage(setup);
  const auto r2 = wb.run_approximation_stage(setup);
  // Restarting from stage-1 weights with the same seed reproduces the run.
  ASSERT_EQ(r1.result.history.size(), r2.result.history.size());
  EXPECT_DOUBLE_EQ(r1.initial_acc, r2.initial_acc);
  EXPECT_DOUBLE_EQ(r1.result.final_acc, r2.result.final_acc);
}

TEST(Pipeline, RequiresQuantizationStageFirst) {
  Workbench wb(micro_config());
  EXPECT_THROW(wb.run_approximation_stage(
                   ApproxStageSetup::uniform("trunc3", train::Method::kNormal, 1.0f)),
               std::logic_error);
  EXPECT_THROW(wb.approx_initial_accuracy("trunc3"), std::logic_error);
}

TEST(Pipeline, CloneMatchesOriginal) {
  Workbench wb(micro_config());
  (void)wb.run_quantization_stage(false);
  auto copy = wb.clone();
  const auto batch = wb.data().test.slice(0, 16);
  const Tensor y1 = wb.model().forward(batch.first, nn::ExecContext::quant_exact());
  const Tensor y2 = copy->forward(batch.first, nn::ExecContext::quant_exact());
  for (int64_t i = 0; i < y1.numel(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST(Pipeline, CacheRoundTrip) {
  auto cfg = micro_config();
  cfg.use_cache = true;
  cfg.profile.cache_dir =
      (std::filesystem::temp_directory_path() / "axnn_itest_cache2").string();
  std::filesystem::remove_all(cfg.profile.cache_dir);

  Workbench first(cfg);
  const double fp1 = first.fp_accuracy();
  (void)first.run_quantization_stage(true);

  // Second workbench must load both cached artifacts and agree exactly.
  Workbench second(cfg);
  const double fp2 = second.fp_accuracy();
  EXPECT_DOUBLE_EQ(fp1, fp2);
  const auto s1b = second.run_quantization_stage(true);
  const double quant_acc = train::evaluate_accuracy(
      second.model(), second.data().test, nn::ExecContext::quant_exact());
  EXPECT_DOUBLE_EQ(s1b.final_acc, quant_acc);
  std::filesystem::remove_all(cfg.profile.cache_dir);
}

TEST(Pipeline, MobileNetKeepsBatchNorm) {
  Workbench wb(micro_config(ModelKind::kMobileNetV2));
  // BN buffers survive (not folded) for MobileNetV2, per the paper.
  EXPECT_FALSE(nn::collect_buffers(wb.model()).empty());
  (void)wb.run_quantization_stage(true);
  const auto run = wb.run_approximation_stage(
      ApproxStageSetup::uniform("trunc2", train::Method::kApproxKD_GE, 6.0f));
  EXPECT_EQ(run.result.history.size(), 2u);
}

TEST(Pipeline, ResNetBatchNormFolded) {
  Workbench wb(micro_config(ModelKind::kResNet20));
  EXPECT_TRUE(nn::collect_buffers(wb.model()).empty());
}

TEST(Pipeline, ErrorFitMatchesMultiplierFamily) {
  Workbench wb(micro_config());
  EXPECT_FALSE(wb.fit_error("trunc5").is_constant());
  EXPECT_TRUE(wb.fit_error("evoa228").is_constant());
}

}  // namespace
}  // namespace axnn::core
