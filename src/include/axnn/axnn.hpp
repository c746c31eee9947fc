// axnn — umbrella header (the library's one public include).
//
// Reproduction of "Knowledge Distillation and Gradient Estimation for Active
// Error Compensation in Approximate Neural Networks" (DATE 2021).
//
// Experimentation quickstart (training-side API):
//   axnn::core::Workbench wb({.model = axnn::core::ModelKind::kResNet20,
//                             .profile = axnn::core::BenchProfile::from_env()});
//   wb.run_quantization_stage(/*use_kd=*/true);
//   auto run = wb.run_approximation_stage(axnn::core::ApproxStageSetup::uniform(
//       "trunc5", axnn::train::Method::kApproxKD_GE, /*t2=*/5.0f));
//
// Inference quickstart (serving-side API, DESIGN.md §5g):
//   auto engine = axnn::serve::Engine::load({.plan = "default=trunc5"});
//   auto& s = engine->session();
//   auto r = s.await(s.submit(image));
//
// Link axnn::axnn; tools/check_headers.sh verifies this header compiles
// standalone.
#pragma once

#include "axnn/axmul/adder.hpp"
#include "axnn/axmul/evoapprox_like.hpp"
#include "axnn/axmul/multiplier.hpp"
#include "axnn/axmul/registry.hpp"
#include "axnn/axmul/stats.hpp"
#include "axnn/axmul/truncated.hpp"
#include "axnn/core/pipeline.hpp"
#include "axnn/core/plan_io.hpp"
#include "axnn/core/profile.hpp"
#include "axnn/core/report_adapters.hpp"
#include "axnn/core/table.hpp"
#include "axnn/data/dataset.hpp"
#include "axnn/data/synthetic.hpp"
#include "axnn/energy/energy.hpp"
#include "axnn/ge/error_fit.hpp"
#include "axnn/ge/fit_registry.hpp"
#include "axnn/ge/monte_carlo.hpp"
#include "axnn/kd/distill.hpp"
#include "axnn/kernels/gemm.hpp"
#include "axnn/kernels/int_gemm.hpp"
#include "axnn/kernels/isa.hpp"
#include "axnn/kernels/plan.hpp"
#include "axnn/kernels/scratch.hpp"
#include "axnn/kernels/signed_lut.hpp"
#include "axnn/models/blocks.hpp"
#include "axnn/models/mobilenetv2.hpp"
#include "axnn/models/model_info.hpp"
#include "axnn/models/resnet.hpp"
#include "axnn/nn/activations.hpp"
#include "axnn/nn/batchnorm.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/gemm_layer.hpp"
#include "axnn/nn/layer.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/nn/loss.hpp"
#include "axnn/nn/monitor.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/nn/pooling.hpp"
#include "axnn/nn/sequential.hpp"
#include "axnn/nn/serialize.hpp"
#include "axnn/nn/sgd.hpp"
#include "axnn/obs/bench.hpp"
#include "axnn/obs/json.hpp"
#include "axnn/obs/report.hpp"
#include "axnn/obs/stats.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/qos/governor.hpp"
#include "axnn/qos/operating_point.hpp"
#include "axnn/quant/calibration.hpp"
#include "axnn/quant/quantizer.hpp"
#include "axnn/resilience/checkpoint.hpp"
#include "axnn/resilience/crc32.hpp"
#include "axnn/resilience/fault.hpp"
#include "axnn/resilience/guard.hpp"
#include "axnn/search/pareto.hpp"
#include "axnn/search/search.hpp"
#include "axnn/sentinel/sentinel.hpp"
#include "axnn/serve/admission.hpp"
#include "axnn/serve/chaos.hpp"
#include "axnn/serve/engine.hpp"
#include "axnn/serve/loadgen.hpp"
#include "axnn/serve/watchdog.hpp"
#include "axnn/tensor/ops.hpp"
#include "axnn/tensor/rng.hpp"
#include "axnn/tensor/shape.hpp"
#include "axnn/tensor/tensor.hpp"
#include "axnn/tensor/threadpool.hpp"
#include "axnn/train/evaluate.hpp"
#include "axnn/train/finetune.hpp"
#include "axnn/train/trainer.hpp"
