#include "axnn/train/evaluate.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "axnn/tensor/ops.hpp"

namespace axnn::train {

Tensor predict_logits(const nn::Layer& model, const data::Dataset& ds, nn::ExecContext ctx,
                      int64_t batch_size) {
  ctx.training = false;
  Tensor all;
  int64_t written = 0;
  for (int64_t begin = 0; begin < ds.size(); begin += batch_size) {
    const int64_t count = std::min(batch_size, ds.size() - begin);
    auto [images, labels] = ds.slice(begin, count);
    (void)labels;
    const Tensor logits = model.infer(images, ctx);
    if (all.empty()) all = Tensor(Shape{ds.size(), logits.shape()[1]});
    std::memcpy(all.data() + written * logits.shape()[1], logits.data(),
                static_cast<size_t>(logits.numel()) * sizeof(float));
    written += count;
  }
  return all;
}

double evaluate_accuracy(const nn::Layer& model, const data::Dataset& ds, nn::ExecContext ctx,
                         int64_t batch_size) {
  ctx.training = false;
  int64_t correct = 0;
  for (int64_t begin = 0; begin < ds.size(); begin += batch_size) {
    const int64_t count = std::min(batch_size, ds.size() - begin);
    auto [images, labels] = ds.slice(begin, count);
    const Tensor logits = model.infer(images, ctx);
    const auto pred = ops::argmax_rows(logits);
    for (int64_t i = 0; i < count; ++i)
      correct += (pred[static_cast<size_t>(i)] == labels[static_cast<size_t>(i)]);
  }
  return ds.size() ? static_cast<double>(correct) / static_cast<double>(ds.size()) : 0.0;
}

void calibrate_model(nn::Layer& model, const data::Dataset& ds, int64_t num_samples,
                     int64_t batch_size, quant::Calibration method) {
  const int64_t limit = std::min(num_samples, ds.size());
  if (limit <= 0) throw std::invalid_argument("calibrate_model: empty calibration set");
  for (int64_t begin = 0; begin < limit; begin += batch_size) {
    const int64_t count = std::min(batch_size, limit - begin);
    auto [images, labels] = ds.slice(begin, count);
    (void)labels;
    (void)model.forward(images, nn::ExecContext::calibrate());
  }
  nn::finalize_calibration_recursive(model, method);
}

}  // namespace axnn::train
