// axnn — batched model evaluation and calibration drivers.
#pragma once

#include <cstdint>

#include "axnn/data/dataset.hpp"
#include "axnn/nn/sequential.hpp"

namespace axnn::train {

/// Top-1 accuracy of `model` on `ds` under the given execution context
/// (the context's `training` flag is forced off). Runs Layer::infer, so a
/// kCalibrate context throws std::logic_error.
double evaluate_accuracy(const nn::Layer& model, const data::Dataset& ds, nn::ExecContext ctx,
                         int64_t batch_size = 256);

/// Run the whole dataset through Layer::infer and return the [N, C] logits.
Tensor predict_logits(const nn::Layer& model, const data::Dataset& ds, nn::ExecContext ctx,
                      int64_t batch_size = 256);

/// Run kCalibrate passes over up to `num_samples` of `ds` and finalize the
/// quantization parameters of every layer with the chosen calibrator.
void calibrate_model(nn::Layer& model, const data::Dataset& ds, int64_t num_samples,
                     int64_t batch_size, quant::Calibration method);

}  // namespace axnn::train
