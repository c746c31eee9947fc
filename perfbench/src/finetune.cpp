// finetune_approxkd_ge: the approximation stage of Algorithm 1 (trunc5,
// ApproxKD+GE) through core::Workbench, repeated from the stage-1 weights
// while another schedule fits in the run's time (at least once).
#include <memory>
#include <string>
#include <vector>

#include "axnn/core/pipeline.hpp"
#include "axnn/data/dataset.hpp"
#include "axnn/kd/distill.hpp"
#include "axnn/kernels/plan.hpp"
#include "axnn/nn/sgd.hpp"
#include "axnn/tensor/buffer_pool.hpp"
#include "bench.hpp"
#include "hostprobe.hpp"
#include "replay.hpp"
#include "stats.hpp"

namespace perfbench {

namespace core = axnn::core;
namespace nn = axnn::nn;
using axnn::Tensor;

namespace {

constexpr const char* kMultiplier = "trunc5";
constexpr float kT2 = 5.0f;
/// Epochs of one schedule. The profile's learning rate, batch and decay
/// are kept; four epochs (128 steps) fit a few schedules in one run, and
/// only the last epoch of each ends with the holdout evaluation.
constexpr int kEpochs = 4;
/// Workbench constructions; the Workbench share of setup_s is their median.
constexpr int kSetupRepeats = 3;
constexpr int kReplayReps = 15;

core::WorkbenchConfig workbench_config() {
  core::WorkbenchConfig cfg;
  cfg.model = core::ModelKind::kResNet20;
  cfg.profile = bench_profile();
  return cfg;
}

/// Traced run: one training step replayed from public calls, `reps` times.
void replay_step(core::Workbench& wb, nn::Layer& teacher, const nn::ExecContext& student_ctx,
                 const axnn::train::FineTuneConfig& fc, Trace& trace, Report& rep) {
  nn::Layer& model = wb.model();
  axnn::Rng rng(0x57E9);
  axnn::data::BatchIterator it(wb.data().train, fc.batch_size, rng);
  Tensor images;
  std::vector<int> labels;
  (void)it.next(images, labels);
  nn::Sgd sgd(nn::collect_params(model), {fc.lr, fc.momentum, 0.0f, fc.lr_decay, 0});

  static constexpr const char* kPhase[5] = {"train.student_fwd", "kd.teacher_fwd", "kd.loss",
                                            "train.backward", "train.sgd"};
  std::vector<double> ms[5];
  for (int r = 0; r <= kReplayReps; ++r) {
    int64_t t[6];
    model.zero_grad();
    t[0] = now_ns();
    const Tensor logits = model.forward(images, student_ctx);
    t[1] = now_ns();
    const Tensor yq = teacher.forward(images, nn::ExecContext::quant_exact());
    t[2] = now_ns();
    const nn::LossResult loss = axnn::kd::distillation_loss(logits, yq, labels, kT2);
    t[3] = now_ns();
    (void)model.backward(loss.grad);
    t[4] = now_ns();
    sgd.step();
    t[5] = now_ns();
    if (r == 0) continue;
    const int64_t step = trace.new_id();
    trace.add("train.step", t[0], t[5], step);
    for (int k = 0; k < 5; ++k) {
      ms[k].push_back(static_cast<double>(t[k + 1] - t[k]) * 1e-6);
      trace.add(kPhase[k], t[k], t[k + 1], trace.new_id(), step);
    }
  }
  rep.metrics["train.student_fwd_ms"] = median(ms[0]);
  rep.metrics["kd.teacher_fwd_ms"] = median(ms[1]);
  rep.metrics["kd.loss_ms"] = median(ms[2]);
  rep.metrics["train.backward_ms"] = median(ms[3]);
  rep.metrics["train.sgd_ms"] = median(ms[4]);

  // The student's training forward, stage by stage (what the GE backward
  // needs is cached inside each leaf, so it lands in the epilogue).
  const int64_t root = trace.new_id();
  const int64_t t0 = now_ns();
  const StageTimes st = replay_forward(wb.model(), student_ctx, images, kReplayReps, trace, root);
  trace.add("replay", t0, now_ns(), root);
  if (const std::string err = closure_error(st); !err.empty())
    rep.errors.push_back("closure: " + err);
  rep.info["closure_stage_over_leaf"] = st.stage_over_leaf;
  rep.info["closure_leaf_over_forward"] = st.leaf_over_forward;
  rep.metrics["models.forward_ms"] = st.forward_ms;
  rep.metrics["nn.nonleaf_ms"] = st.nonleaf_ms;
  rep.metrics["quant.act_ms"] = st.act_ms;
  rep.metrics["quant.weight_ms"] = st.weight_ms;
  rep.metrics["nn.im2col_ms"] = st.im2col_ms;
  rep.metrics["kernels.gemm_ms"] = st.gemm_ms;
  rep.metrics["nn.epilogue_ms"] = st.epilogue_ms;
  rep.metrics["kernels.gemm_gmacs"] = static_cast<double>(st.replay_macs) / (st.gemm_ms * 1e6);
}

}  // namespace

Report run_finetune_approxkd_ge(const Args& args) {
  Report rep;
  Trace trace(args.trace);

  std::vector<double> wb_setup_s;
  std::unique_ptr<core::Workbench> wb;
  for (int k = 0; k < kSetupRepeats; ++k) {
    wb.reset();
    const int64_t t0 = now_ns();
    wb = std::make_unique<core::Workbench>(workbench_config());
    (void)wb->run_quantization_stage(/*use_kd=*/true);
    wb_setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  // Frozen stage-1 copy: the quantized teacher of the replayed step.
  const std::unique_ptr<nn::Sequential> teacher = wb->clone();

  core::ApproxStageSetup setup =
      core::ApproxStageSetup::uniform(kMultiplier, axnn::train::Method::kApproxKD_GE, kT2);
  axnn::train::FineTuneConfig fc = wb->default_ft_config();
  fc.epochs = kEpochs;
  fc.eval_every_epoch = false;
  // The data seed picks the minibatch order, so each --seed trains on its own
  // sequence of batches.
  fc.seed = args.seed;
  setup.finetune = fc;

  const int64_t steps_per_epoch =
      (wb->data().train.size() + fc.batch_size - 1) / fc.batch_size;
  // Mean step time and rate of each training epoch: every epoch but the last
  // of a schedule, which also runs the holdout evaluation.
  std::vector<double> preloop_s, train_step_ms, train_tput;
  int64_t schedules = 0, epochs = 0;
  double first_acc = -1, initial_acc = 0;
  const axnn::kernels::PlanCacheStats p0 = axnn::kernels::PlanCache::global().stats();
  const axnn::BufferPoolStats b0 = axnn::buffer_pool_stats();
  HostProbe host;
  const int64_t start = now_ns();
  for (;;) {
    const int64_t t0 = now_ns();
    const core::Workbench::ApproxRun run = wb->run_approximation_stage(setup);
    const int64_t t1 = now_ns();
    const auto& res = run.result;
    double epochs_s = 0;
    for (size_t i = 0; i < res.history.size(); ++i) {
      const double s = res.history[i].seconds;
      epochs_s += s;
      ++epochs;
      if (i + 1 == res.history.size()) continue;
      train_step_ms.push_back(1e3 * s / static_cast<double>(steps_per_epoch));
      train_tput.push_back(static_cast<double>(wb->data().train.size()) / s);
    }
    preloop_s.push_back(static_cast<double>(t1 - t0) * 1e-9 - epochs_s);
    ++schedules;
    ++rep.attempted;
    trace.add("finetune.schedule", t0, t1, trace.new_id());

    // Output checks: every schedule restarts from the same stage-1 weights,
    // so its result must repeat exactly, and the fine-tune must recover.
    bool ok = res.health.clean() && static_cast<int>(res.history.size()) == kEpochs &&
              res.final_acc > res.initial_acc;
    if (first_acc < 0) {
      first_acc = res.final_acc;
      initial_acc = res.initial_acc;
    } else if (res.final_acc != first_acc) {
      ok = false;
    }
    if (!ok) {
      ++rep.failed;
      rep.errors.push_back("schedule " + std::to_string(schedules) + ": final accuracy " +
                           std::to_string(res.final_acc) + " (first " +
                           std::to_string(first_acc) + ", initial " +
                           std::to_string(res.initial_acc) + ")");
    }
    // Start another schedule only if one as long as this one still fits.
    if (static_cast<double>(2 * t1 - t0 - start) * 1e-9 > args.seconds) break;
  }
  host.stop(rep);
  const axnn::kernels::PlanCacheStats p1 = axnn::kernels::PlanCache::global().stats();
  const axnn::BufferPoolStats b1 = axnn::buffer_pool_stats();

  rep.info["schedules"] = static_cast<double>(schedules);
  rep.info["initial_acc_pct"] = 100.0 * initial_acc;
  rep.info["workbench_setup_s"] = median(wb_setup_s);
  rep.info["preloop_setup_s"] = median(preloop_s);
  rep.info["epochs"] = static_cast<double>(epochs);
  rep.info["plan_misses"] = static_cast<double>(p1.misses - p0.misses);

  if (!args.trace) {
    rep.metrics["setup_s"] = median(wb_setup_s) + median(preloop_s);
    rep.metrics["throughput_per_s"] = percentile(train_tput, 1.0 - kSustained);
    rep.metrics["latency_p50_ms"] = percentile(train_step_ms, kSustained);
    rep.metrics["top1_pct"] = 100.0 * first_acc;
    rep.metrics["peak_rss_mb"] = peak_rss_mb();
    return rep;
  }
  rep.metrics["trace.throughput_per_s"] = percentile(train_tput, 1.0 - kSustained);
  rep.metrics["trace.latency_p50_ms"] = percentile(train_step_ms, kSustained);
  const int64_t hits = p1.hits - p0.hits, misses = p1.misses - p0.misses;
  rep.metrics["kernels.plan_hit_rate"] =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 1.0;
  rep.metrics["kernels.plan_misses"] = static_cast<double>(misses);
  rep.metrics["tensor.pool_misses"] = static_cast<double>(b1.misses - b0.misses);

  // The student context exactly as the approximation stage builds it for a
  // uniform GE run: plan tables plus one network-wide error fit.
  const nn::PlanResolution res = setup.plan.resolve(wb->model());
  const axnn::ge::ErrorFit fit = wb->fit_error(kMultiplier);
  const nn::ExecContext student_ctx{.mode = nn::ExecMode::kQuantApprox, .ge_fit = &fit,
                                    .training = true, .plan = &res};
  replay_step(*wb, *teacher, student_ctx, fc, trace, rep);
  if (!trace.write(args.trace_out)) rep.errors.push_back("cannot write " + args.trace_out);
  return rep;
}

}  // namespace perfbench
