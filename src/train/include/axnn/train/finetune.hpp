// axnn — fine-tuning of quantized and approximate CNNs (paper Algorithm 1).
//
// Two stages:
//   * quantization_stage  — fine-tune the 8A4W model with hard CE or with
//     KD from the frozen FP teacher (C_s1, temperature T1).
//   * approximation_stage — fine-tune the approximated model with one of
//     five methods:
//       kNormal      passive retraining (hard CE, plain STE)       [4]
//       kGE          hard CE + gradient estimation (1 + K)         (ours)
//       kAlpha       hard CE + alpha-regularization                [5]
//       kApproxKD    C_s2 distillation from the quantized teacher  (ours)
//       kApproxKD_GE C_s2 + gradient estimation                    (ours)
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "axnn/data/dataset.hpp"
#include "axnn/ge/error_fit.hpp"
#include "axnn/kernels/signed_lut.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/nn/sequential.hpp"
#include "axnn/train/trainer.hpp"

namespace axnn::train {

enum class Method { kNormal, kGE, kAlpha, kApproxKD, kApproxKD_GE };

std::string to_string(Method m);

/// True when the method distills from a teacher.
bool uses_kd(Method m);
/// True when the method applies the gradient-estimation scale.
bool uses_ge(Method m);

struct FineTuneConfig {
  int epochs = 30;
  int64_t batch_size = 128;
  float lr = 1e-4f;
  float momentum = 0.9f;
  float lr_decay = 0.1f;
  int decay_every = 15;
  float temperature = 1.0f;  ///< T1 (quantization stage) or T2 (approx stage)
  double alpha = 1e-11;      ///< alpha-regularization strength (kAlpha only)
  uint64_t seed = 7;
  bool eval_every_epoch = true;
  int64_t eval_batch = 256;
  bool verbose = false;
  /// Self-healing policy (see TrainConfig::guard): rollback + lr halving on
  /// NaN/Inf loss or exploding gradients, bounded retries.
  resilience::GuardConfig guard;
  /// Optional fault injector for the student's training forwards (teacher
  /// and evaluation passes stay clean). Must outlive the run.
  const resilience::FaultInjector* faults = nullptr;
};

struct FineTuneResult {
  double initial_acc = 0.0;  ///< accuracy before any update
  double final_acc = 0.0;    ///< accuracy after the last epoch
  double best_acc = 0.0;     ///< best epoch accuracy observed
  std::vector<EpochStat> history;
  double seconds = 0.0;      ///< total fine-tuning wall-clock
  /// Rollback/divergence log; health.gave_up marks an early stop.
  resilience::DivergenceReport health;
};

/// Quantization stage (Algorithm 1, first loop). `model` must already be
/// calibrated (see calibrate_model). `teacher_fp` is the frozen FP snapshot
/// used for KD; pass nullptr for plain ("normal") fine-tuning.
FineTuneResult quantization_stage(nn::Layer& model, nn::Layer* teacher_fp,
                                  const data::Dataset& train_ds, const data::Dataset& test_ds,
                                  const FineTuneConfig& cfg);

/// Everything the approximation stage needs besides the model.
struct ApproxStageSetup {
  /// Uniform multiplier table. Required unless `plan` supplies per-layer
  /// tables; with a plan it remains the fallback for leaves whose plan entry
  /// has no multiplier of its own.
  const approx::SignedMulTable* mul = nullptr;
  Method method = Method::kNormal;
  /// Uniform error fit for GE methods (ignored otherwise; a constant fit
  /// silently degrades GE to the plain STE, as in the paper). With a plan
  /// carrying per-layer fits this is the fallback for un-fitted leaves.
  const ge::ErrorFit* fit = nullptr;
  /// Frozen quantized teacher (runs in kQuantExact) for KD / alpha methods.
  nn::Layer* teacher_q = nullptr;
  /// Optional resolved per-layer plan (heterogeneous multipliers, adders,
  /// mode overrides, per-layer GE fits). Must be resolved against `model`
  /// and outlive the run. The teacher always runs plan-free.
  const nn::PlanResolution* plan = nullptr;
};

/// Approximation stage (Algorithm 1, second loop). `model` must be
/// calibrated; it is evaluated and fine-tuned in kQuantApprox mode.
FineTuneResult approximation_stage(nn::Layer& model, const ApproxStageSetup& setup,
                                   const data::Dataset& train_ds, const data::Dataset& test_ds,
                                   const FineTuneConfig& cfg);

}  // namespace axnn::train
