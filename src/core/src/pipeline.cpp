#include "axnn/core/pipeline.hpp"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <typeinfo>

#include "axnn/axmul/registry.hpp"
#include "axnn/models/mobilenetv2.hpp"
#include "axnn/models/resnet.hpp"
#include "axnn/nn/gemm_layer.hpp"
#include "axnn/nn/serialize.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/train/evaluate.hpp"
#include "axnn/train/trainer.hpp"

namespace axnn::core {

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kResNet20: return "resnet20";
    case ModelKind::kResNet32: return "resnet32";
    case ModelKind::kMobileNetV2: return "mobilenetv2";
  }
  return "?";
}

void copy_quant_state(nn::Layer& src, nn::Layer& dst) {
  if (auto* gs = dynamic_cast<nn::GemmLayer*>(&src)) {
    auto* gd = dynamic_cast<nn::GemmLayer*>(&dst);
    if (gd == nullptr || typeid(*gs) != typeid(*gd))
      throw std::invalid_argument("copy_quant_state: structure mismatch");
    if (gs->calibrated()) gd->set_qparams(gs->weight_qparams(), gs->act_qparams());
  }
  const auto cs = src.children();
  const auto cd = dst.children();
  if (cs.size() != cd.size()) throw std::invalid_argument("copy_quant_state: child count");
  for (size_t i = 0; i < cs.size(); ++i) copy_quant_state(*cs[i], *cd[i]);
}

namespace {

/// Load cached parameters into `target`, treating every failure mode (bad
/// magic, unsupported version, CRC mismatch, truncation, count/shape
/// mismatch) as a cache miss: log a warning and return false so the caller
/// retrains instead of crashing on a stale or corrupt cache file. `target`
/// may be partially overwritten on failure — only pass scratch models.
bool try_load_cache(nn::Layer& target, const std::string& path, const char* what) {
  if (!nn::is_param_file(path)) return false;
  try {
    nn::load_params(target, path);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[workbench] warning: unusable %s cache, retraining (%s)\n", what,
                 e.what());
    return false;
  }
}

}  // namespace

Workbench::Workbench(WorkbenchConfig cfg) : cfg_(std::move(cfg)) {
  data::SyntheticConfig dc;
  dc.image_size = cfg_.profile.image_size;
  dc.train_size = cfg_.profile.train_size;
  dc.test_size = cfg_.profile.test_size;
  dc.seed = cfg_.data_seed;
  data_ = data::make_synthetic_cifar(dc);
  prepare_fp_model();
}

std::unique_ptr<nn::Sequential> Workbench::build_model() const {
  switch (cfg_.model) {
    case ModelKind::kResNet20:
      return models::make_resnet20(cfg_.profile.resnet_width, cfg_.model_seed);
    case ModelKind::kResNet32:
      return models::make_resnet32(cfg_.profile.resnet_width, cfg_.model_seed);
    case ModelKind::kMobileNetV2:
      return models::make_mobilenet_v2(
          {cfg_.profile.mobilenet_width, 10, /*small_preset=*/!cfg_.profile.full,
           cfg_.model_seed});
  }
  throw std::logic_error("Workbench: unknown model kind");
}

std::string Workbench::fp_cache_path() const {
  std::ostringstream os;
  os << cfg_.profile.cache_dir << "/fp_" << to_string(cfg_.model) << "_is"
     << cfg_.profile.image_size << "_n" << cfg_.profile.train_size << "_rw"
     << cfg_.profile.resnet_width << "_mw" << cfg_.profile.mobilenet_width << "_e"
     << cfg_.profile.fp_epochs << "_ds" << cfg_.data_seed << "_ms" << cfg_.model_seed
     << ".axnp";
  return os.str();
}

std::string Workbench::stage1_cache_path(bool use_kd, float t1) const {
  std::ostringstream os;
  os << cfg_.profile.cache_dir << "/s1_" << to_string(cfg_.model) << "_is"
     << cfg_.profile.image_size << "_n" << cfg_.profile.train_size << "_rw"
     << cfg_.profile.resnet_width << "_mw" << cfg_.profile.mobilenet_width << "_e"
     << cfg_.profile.fp_epochs << "_qe" << cfg_.profile.quant_epochs << "_kd" << use_kd
     << "_t" << t1 << "_ds" << cfg_.data_seed << "_ms" << cfg_.model_seed << ".axnp";
  return os.str();
}

void Workbench::prepare_fp_model() {
  model_ = build_model();
  const std::string path = fp_cache_path();
  bool loaded = false;
  if (cfg_.use_cache) {
    // Load into a scratch model first: a corrupt cache must not leave the
    // working model half-overwritten before the retrain.
    auto scratch = build_model();
    if (try_load_cache(*scratch, path, "FP")) {
      model_ = std::move(scratch);
      loaded = true;
      if (cfg_.verbose) std::printf("[workbench] loaded FP model from %s\n", path.c_str());
    }
  }
  if (!loaded) {
    train::TrainConfig tc;
    tc.epochs = cfg_.profile.fp_epochs;
    tc.decay_every = std::max(1, cfg_.profile.fp_epochs * 2 / 3);
    tc.verbose = cfg_.verbose;
    tc.eval_every_epoch = cfg_.verbose;
    (void)train::train_fp(*model_, data_.train, data_.test, tc);
    if (cfg_.use_cache) {
      std::filesystem::create_directories(cfg_.profile.cache_dir);
      nn::save_params(*model_, path);
    }
  }
  fp_acc_ = train::evaluate_accuracy(*model_, data_.test, nn::ExecContext::fp());

  // The paper folds all BN layers in the ResNets before quantization;
  // MobileNetV2 keeps them to avoid a large accuracy drop.
  if (cfg_.model != ModelKind::kMobileNetV2) {
    model_->fold_batchnorms();
    folded_ = true;
  }
}

models::ModelInfo Workbench::info() {
  auto inf = models::inspect_model(*model_, 3, cfg_.profile.image_size, cfg_.profile.image_size);
  inf.name = to_string(cfg_.model);
  return inf;
}

std::unique_ptr<nn::Sequential> Workbench::clone() {
  auto copy = build_model();
  if (folded_) copy->fold_batchnorms();
  nn::copy_state(*model_, *copy);
  copy_quant_state(*model_, *copy);
  return copy;
}

void Workbench::calibrate_once() {
  if (calibrated_) return;
  train::calibrate_model(*model_, data_.train, cfg_.calib_samples,
                         std::min<int64_t>(cfg_.calib_samples, 128), cfg_.calibration);
  calibrated_ = true;
}

train::FineTuneConfig Workbench::default_ft_config() const {
  train::FineTuneConfig fc;
  fc.epochs = cfg_.profile.ft_epochs;
  fc.batch_size = cfg_.profile.ft_batch;
  fc.decay_every = cfg_.profile.decay_every;
  // Paper: lr in {1e-4, 1e-5}. The fast profile compresses 30 epochs into a
  // handful, so it uses a proportionally larger step.
  fc.lr = cfg_.profile.full ? 1e-4f : 2e-4f;
  fc.verbose = cfg_.verbose;
  return fc;
}

train::FineTuneResult Workbench::run_quantization_stage(bool use_kd, float t1) {
  calibrate_once();
  quant_acc_before_ft_ =
      train::evaluate_accuracy(*model_, data_.test, nn::ExecContext::quant_exact());

  train::FineTuneConfig fc = default_ft_config();
  fc.epochs = cfg_.profile.quant_epochs;
  fc.lr = 5e-4f;  // the quantization stage recovers from a larger gap
  fc.temperature = t1;

  const std::string path = stage1_cache_path(use_kd, t1);
  train::FineTuneResult result;
  bool loaded = false;
  if (cfg_.use_cache) {
    // Load into a scratch clone (same structure + quant state) so a corrupt
    // cache cannot poison the calibrated working model before the retrain.
    auto scratch = clone();
    if (try_load_cache(*scratch, path, "stage-1")) {
      nn::copy_state(*scratch, *model_);
      loaded = true;
      result.initial_acc = quant_acc_before_ft_;
      result.final_acc =
          train::evaluate_accuracy(*model_, data_.test, nn::ExecContext::quant_exact());
      result.best_acc = result.final_acc;
      if (cfg_.verbose) std::printf("[workbench] loaded stage-1 model from %s\n", path.c_str());
    }
  }
  if (!loaded) {
    std::unique_ptr<nn::Sequential> teacher_fp;
    if (use_kd) teacher_fp = clone();
    result = train::quantization_stage(*model_, teacher_fp.get(), data_.train, data_.test, fc);
    if (cfg_.use_cache) {
      std::filesystem::create_directories(cfg_.profile.cache_dir);
      nn::save_params(*model_, path);
    }
  }

  stage1_ = clone();
  teacher_q_ = clone();
  return result;
}

ge::ErrorFit Workbench::fit_error(const std::string& multiplier_id) const {
  const approx::SignedMulTable tab(axmul::make_lut(multiplier_id));
  ge::McConfig mc;  // 50 simulations, paper defaults
  return ge::fit_multiplier_error(tab, mc);
}

double Workbench::approx_initial_accuracy(const std::string& multiplier_id) {
  if (!stage1_) throw std::logic_error("Workbench: run_quantization_stage first");
  const approx::SignedMulTable tab(axmul::make_lut(multiplier_id));
  return train::evaluate_accuracy(*stage1_, data_.test, nn::ExecContext::quant_approx(tab));
}

double Workbench::approx_initial_accuracy(const nn::NetPlan& plan) {
  if (!stage1_) throw std::logic_error("Workbench: run_quantization_stage first");
  const nn::PlanResolution res = plan.resolve(*stage1_);
  res.require_approximable();
  res.require_bit_widths();
  const nn::ExecContext ctx{.mode = nn::ExecMode::kQuantApprox, .plan = &res};
  return train::evaluate_accuracy(*stage1_, data_.test, ctx);
}

ApproxStageSetup ApproxStageSetup::uniform(std::string multiplier_id, train::Method method,
                                           float t2) {
  ApproxStageSetup s;
  s.plan = nn::NetPlan(nn::LayerPlan{.multiplier = std::move(multiplier_id)});
  s.method = method;
  s.t2 = t2;
  s.ge_fits = GeFitScope::kUniform;
  return s;
}

ApproxStageSetup ApproxStageSetup::with_plan(nn::NetPlan plan, train::Method method, float t2) {
  ApproxStageSetup s;
  s.plan = std::move(plan);
  s.method = method;
  s.t2 = t2;
  return s;
}

Workbench::ApproxRun Workbench::run_approximation_stage(const ApproxStageSetup& setup) {
  if (!stage1_) throw std::logic_error("Workbench: run_quantization_stage first");

  // Each experiment starts from the same stage-1 weights.
  nn::copy_state(*stage1_, *model_);

  const bool uniform_only = setup.plan.overrides().empty();
  ApproxRun run;
  run.multiplier = uniform_only ? setup.plan.uniform().multiplier : setup.plan.to_string();
  run.method = setup.method;
  run.t2 = setup.t2;

  const bool ge = train::uses_ge(setup.method);
  const bool per_layer_fits = ge && setup.ge_fits == ApproxStageSetup::GeFitScope::kPerLayer;

  nn::ResolveOptions ro;
  ro.fit_ge = per_layer_fits;  // per-layer fits from each layer's GEMM shape
  const nn::PlanResolution res = setup.plan.resolve(*model_, ro);
  res.require_approximable();
  res.require_bit_widths();
  run.plan_fits = res.fits().num_fits();

  // Uniform fit scope: one network-wide Monte-Carlo fit for the uniform
  // multiplier, carried by the context (plan entries without their own fit
  // fall back to it) — the paper's flow, bit-identical to the legacy
  // uniform path.
  if (ge && !per_layer_fits) {
    if (setup.plan.uniform().multiplier.empty())
      throw std::invalid_argument(
          "Workbench: GeFitScope::kUniform needs a uniform plan multiplier to fit");
    run.fit = fit_error(setup.plan.uniform().multiplier);
  }

  train::FineTuneConfig fc = setup.finetune ? *setup.finetune : default_ft_config();
  fc.temperature = setup.t2;

  train::ApproxStageSetup ts;
  ts.method = setup.method;
  ts.fit = (ge && !per_layer_fits) ? &run.fit : nullptr;
  ts.teacher_q = teacher_q_.get();
  ts.plan = &res;

  run.result = train::approximation_stage(*model_, ts, data_.train, data_.test, fc);
  run.initial_acc = run.result.initial_acc;

  if (obs::enabled()) {
    obs::Json ev = obs::Json::object();
    ev["type"] = "approx_run";
    ev["multiplier"] = run.multiplier;
    ev["method"] = train::to_string(run.method);
    ev["t2"] = run.t2;
    ev["initial_acc"] = run.initial_acc;
    ev["final_acc"] = run.result.final_acc;
    ev["plan_fits"] = static_cast<int64_t>(run.plan_fits);
    obs::collector()->event(std::move(ev));
  }
  return run;
}

}  // namespace axnn::core
