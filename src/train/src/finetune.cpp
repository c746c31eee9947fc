#include "axnn/train/finetune.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "axnn/kd/distill.hpp"
#include "axnn/nn/loss.hpp"
#include "axnn/nn/sgd.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/tensor/ops.hpp"
#include "axnn/train/evaluate.hpp"
#include "loop_common.hpp"

namespace axnn::train {

std::string to_string(Method m) {
  switch (m) {
    case Method::kNormal: return "normal";
    case Method::kGE: return "ge";
    case Method::kAlpha: return "alpha";
    case Method::kApproxKD: return "approxkd";
    case Method::kApproxKD_GE: return "approxkd+ge";
  }
  return "?";
}

bool uses_kd(Method m) { return m == Method::kApproxKD || m == Method::kApproxKD_GE; }
bool uses_ge(Method m) { return m == Method::kGE || m == Method::kApproxKD_GE; }

namespace {

using Clock = std::chrono::steady_clock;

struct LoopHooks {
  /// Student forward context for training batches.
  nn::ExecContext student_ctx;
  /// Evaluation context (same mode, not training).
  nn::ExecContext eval_ctx;
  /// Compute loss value + logit gradient for one batch.
  std::function<nn::LossResult(const Tensor& images, const Tensor& student_logits,
                               const std::vector<int>& labels)>
      loss_fn;
};

FineTuneResult run_finetune_loop(nn::Layer& model, const data::Dataset& train_ds,
                                 const data::Dataset& test_ds, const FineTuneConfig& cfg,
                                 const LoopHooks& hooks, const char* tag) {
  const auto t0 = Clock::now();
  FineTuneResult result;
  result.initial_acc = evaluate_accuracy(model, test_ds, hooks.eval_ctx, cfg.eval_batch);
  result.best_acc = result.initial_acc;
  result.final_acc = result.initial_acc;

  const auto params = nn::collect_params(model);
  nn::Sgd sgd(params,
              {cfg.lr, cfg.momentum, /*weight_decay=*/0.0f, cfg.lr_decay, cfg.decay_every});
  Rng rng(cfg.seed);
  data::BatchIterator iter(train_ds, cfg.batch_size, rng);

  nn::ExecContext student_ctx = hooks.student_ctx;
  if (cfg.faults != nullptr) student_ctx = student_ctx.with_faults(*cfg.faults);
  detail::GuardedLoop gl(cfg.guard, sgd, params, tag);

  for (int epoch = 0; epoch < cfg.epochs && !gl.aborted(); ++epoch) {
    const auto e0 = Clock::now();
    Tensor images;
    std::vector<int> labels;
    double loss_sum = 0.0;
    int64_t batches = 0;
    // Rollback restores the last epoch snapshot with a halved lr and
    // restarts the epoch; abort ends the run with the report set.
    bool retry = true;
    while (retry && !gl.aborted()) {
      retry = false;
      iter.reset();
      loss_sum = 0.0;
      batches = 0;
      while (iter.next(images, labels)) {
        model.zero_grad();
        const Tensor logits = model.forward(images, student_ctx);
        const nn::LossResult loss = hooks.loss_fn(images, logits, labels);
        (void)model.backward(loss.grad);
        if (!gl.step_ok(loss.value, epoch, batches)) {
          retry = !gl.aborted();
          break;
        }
        sgd.step();
        loss_sum += loss.value;
        ++batches;
      }
    }
    if (gl.aborted()) break;
    gl.epoch_done();
    sgd.on_epoch_end();

    EpochStat st;
    st.epoch = epoch;
    st.train_loss = batches ? loss_sum / static_cast<double>(batches) : 0.0;
    if (cfg.eval_every_epoch || epoch == cfg.epochs - 1) {
      st.test_acc = evaluate_accuracy(model, test_ds, hooks.eval_ctx, cfg.eval_batch);
      result.best_acc = std::max(result.best_acc, st.test_acc);
      result.final_acc = st.test_acc;
    }
    st.seconds = std::chrono::duration<double>(Clock::now() - e0).count();
    if (cfg.verbose)
      std::printf("[%s] epoch %d loss %.4f acc %.2f%% (%.1fs)\n", tag, epoch, st.train_loss,
                  100.0 * st.test_acc, st.seconds);
    result.history.push_back(st);
    if (obs::enabled()) detail::record_epoch_event(tag, st);
  }
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.health = gl.report();
  return result;
}

}  // namespace

FineTuneResult quantization_stage(nn::Layer& model, nn::Layer* teacher_fp,
                                  const data::Dataset& train_ds, const data::Dataset& test_ds,
                                  const FineTuneConfig& cfg) {
  LoopHooks hooks;
  hooks.student_ctx = nn::ExecContext::quant_exact(/*training=*/true);
  hooks.eval_ctx = nn::ExecContext::quant_exact();
  if (teacher_fp != nullptr) {
    hooks.loss_fn = [teacher_fp, t = cfg.temperature](const Tensor& images,
                                                      const Tensor& student_logits,
                                                      const std::vector<int>& labels) {
      const Tensor teacher_logits = teacher_fp->infer(images, nn::ExecContext::fp());
      return kd::distillation_loss(student_logits, teacher_logits, labels, t);
    };
  } else {
    hooks.loss_fn = [](const Tensor&, const Tensor& student_logits,
                       const std::vector<int>& labels) {
      return nn::cross_entropy(student_logits, labels);
    };
  }
  return run_finetune_loop(model, train_ds, test_ds, cfg, hooks,
                           teacher_fp ? "quant/kd" : "quant/normal");
}

FineTuneResult approximation_stage(nn::Layer& model, const ApproxStageSetup& setup,
                                   const data::Dataset& train_ds, const data::Dataset& test_ds,
                                   const FineTuneConfig& cfg) {
  if (setup.mul == nullptr && setup.plan == nullptr)
    throw std::invalid_argument(
        "approximation_stage: a multiplier table or a resolved plan is required");
  if (uses_kd(setup.method) && setup.teacher_q == nullptr)
    throw std::invalid_argument("approximation_stage: KD method requires a quantized teacher");
  if (setup.method == Method::kAlpha && setup.teacher_q == nullptr)
    throw std::invalid_argument("approximation_stage: alpha method requires a quantized teacher");
  if (uses_ge(setup.method) && setup.fit == nullptr &&
      (setup.plan == nullptr || !setup.plan->has_fits()))
    throw std::invalid_argument("approximation_stage: GE method requires an error fit "
                                "(uniform, or per-layer fits in the plan)");

  const ge::ErrorFit* fit = uses_ge(setup.method) ? setup.fit : nullptr;

  LoopHooks hooks;
  hooks.student_ctx = {.mode = nn::ExecMode::kQuantApprox, .mul = setup.mul, .ge_fit = fit,
                       .training = true, .plan = setup.plan};
  hooks.eval_ctx = {.mode = nn::ExecMode::kQuantApprox, .mul = setup.mul, .plan = setup.plan};

  nn::Layer* teacher = setup.teacher_q;
  switch (setup.method) {
    case Method::kNormal:
    case Method::kGE:
      hooks.loss_fn = [](const Tensor&, const Tensor& student_logits,
                         const std::vector<int>& labels) {
        return nn::cross_entropy(student_logits, labels);
      };
      break;
    case Method::kAlpha:
      // Best-effort reimplementation of alpha-regularization [5]: hard CE
      // plus alpha * || y_approx - y_q ||^2 against the frozen quantized
      // teacher's logits (see DESIGN.md §2).
      hooks.loss_fn = [teacher, alpha = cfg.alpha](const Tensor& images,
                                                   const Tensor& student_logits,
                                                   const std::vector<int>& labels) {
        nn::LossResult loss = nn::cross_entropy(student_logits, labels);
        const Tensor yq = teacher->infer(images, nn::ExecContext::quant_exact());
        const nn::LossResult reg = nn::mse_loss(student_logits, yq);
        loss.value += alpha * reg.value;
        ops::axpy_inplace(loss.grad, static_cast<float>(alpha), reg.grad);
        return loss;
      };
      break;
    case Method::kApproxKD:
    case Method::kApproxKD_GE:
      hooks.loss_fn = [teacher, t = cfg.temperature](const Tensor& images,
                                                     const Tensor& student_logits,
                                                     const std::vector<int>& labels) {
        const Tensor yq = teacher->infer(images, nn::ExecContext::quant_exact());
        return kd::distillation_loss(student_logits, yq, labels, t);
      };
      break;
  }
  return run_finetune_loop(model, train_ds, test_ds, cfg, hooks,
                           to_string(setup.method).c_str());
}

}  // namespace axnn::train
