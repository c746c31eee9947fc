// axnn — sequential layer container (the Network type).
#pragma once

#include <memory>
#include <utility>

#include "axnn/nn/layer.hpp"

namespace axnn::nn {

class Sequential : public Layer {
public:
  Sequential() = default;
  explicit Sequential(std::string name) : name_(std::move(name)) {}

  /// Construct and append a layer; returns a reference to it.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void append(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  size_t size() const { return layers_.size(); }
  Layer& operator[](size_t i) { return *layers_[i]; }
  std::vector<std::unique_ptr<Layer>>& layers() { return layers_; }

  std::string name() const override { return name_.empty() ? "sequential" : name_; }

  /// Forward through the children in order. When the context carries a fault
  /// injector and this is the outermost Sequential of the pass (the
  /// context's fault_pass_begun flag is still clear), begins a new injector
  /// pass first — nested containers see the flag set and never advance the
  /// pass counter, so drivers don't call begin_pass() themselves.
  Tensor forward(const Tensor& x, const ExecContext& ctx) override;
  /// The same pass through the children's infer(), fault injection and
  /// telemetry scopes included.
  Tensor infer(const Tensor& x, const ExecContext& ctx) const override;

  Tensor backward(const Tensor& dy) override {
    Tensor g = dy;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
    return g;
  }

  void fold_batchnorms() override;

  std::vector<Layer*> children() override {
    std::vector<Layer*> out;
    out.reserve(layers_.size());
    for (auto& l : layers_) out.push_back(l.get());
    return out;
  }

private:
  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Walk a layer tree depth-first and finalize quantization calibration on
/// every node (leaves implement the actual work).
void finalize_calibration_recursive(Layer& root, quant::Calibration method);

/// Set the quantization bit-widths of every conv/FC layer in the tree
/// (invalidates their calibration; recalibrate afterwards). Equivalent to
/// applying a uniform NetPlan with these widths (axnn/nn/plan.hpp), which is
/// exactly how it is implemented; use a NetPlan with overrides for per-layer
/// widths.
void set_bit_widths_recursive(Layer& root, int weight_bits, int activation_bits);

}  // namespace axnn::nn
