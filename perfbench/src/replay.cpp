#include "replay.hpp"

#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "axnn/kernels/int_gemm.hpp"
#include "axnn/kernels/plan.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/im2col.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/nn/qutils.hpp"
#include "stats.hpp"

namespace perfbench {

namespace nn = axnn::nn;
using axnn::Shape;
using axnn::Tensor;
using axnn::TensorI32;
using axnn::TensorI8;

namespace {

/// Stands in for one conv/FC leaf inside its Sequential: times the leaf's
/// forward and keeps the first input it sees.
class Probe final : public nn::Layer {
public:
  explicit Probe(std::unique_ptr<nn::Layer> inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  Tensor forward(const Tensor& x, const nn::ExecContext& ctx) override {
    if (input_.empty()) input_ = x;
    const int64_t t0 = now_ns();
    Tensor y = inner_->forward(x, ctx);
    start_ns_ = t0;
    end_ns_ = now_ns();
    return y;
  }
  Tensor backward(const Tensor& dy) override { return inner_->backward(dy); }
  std::vector<nn::Param*> params() override { return inner_->params(); }
  std::vector<Tensor*> buffers() override { return inner_->buffers(); }
  int64_t last_mac_count() const override { return inner_->last_mac_count(); }

  std::unique_ptr<nn::Layer> inner_;
  Tensor input_;
  int64_t start_ns_ = 0;
  int64_t end_ns_ = 0;
};

/// Wraps every conv/FC leaf of a model in a Probe and puts the leaves back
/// on destruction, also when the replay throws.
class ProbeSet {
public:
  explicit ProbeSet(nn::Layer& root) {
    std::vector<std::unique_ptr<nn::Layer>*> slots;
    collect(root, slots);
    for (auto* slot : slots) {
      auto probe = std::make_unique<Probe>(std::move(*slot));
      probes_.push_back({slot, probe.get()});
      *slot = std::move(probe);
    }
  }
  ~ProbeSet() {
    for (auto& [slot, probe] : probes_) {
      std::unique_ptr<nn::Layer> inner = std::move(probe->inner_);
      *slot = std::move(inner);
    }
  }
  ProbeSet(const ProbeSet&) = delete;
  ProbeSet& operator=(const ProbeSet&) = delete;

  std::vector<Probe*> probes() const {
    std::vector<Probe*> out;
    for (const auto& p : probes_) out.push_back(p.second);
    return out;
  }

private:
  static bool is_gemm_leaf(const nn::Layer* l) {
    return dynamic_cast<const nn::Conv2d*>(l) != nullptr ||
           dynamic_cast<const nn::Linear*>(l) != nullptr;
  }
  static void collect(nn::Layer& node, std::vector<std::unique_ptr<nn::Layer>*>& slots) {
    if (auto* seq = dynamic_cast<nn::Sequential*>(&node)) {
      for (auto& slot : seq->layers()) {
        if (is_gemm_leaf(slot.get()))
          slots.push_back(&slot);
        else
          collect(*slot, slots);
      }
      return;
    }
    for (nn::Layer* c : node.children()) collect(*c, slots);
  }

  std::vector<std::pair<std::unique_ptr<nn::Layer>*, Probe*>> probes_;
};

/// One leaf's quantize / im2col / GEMM stages, re-run on its captured input
/// through the public functions the leaf calls, with a PlanMemo of its own.
class LeafReplay {
public:
  LeafReplay(nn::Layer& leaf, const nn::ExecContext& ctx)
      : leaf_(leaf), ex_(nn::plan_leaf_exec(ctx, leaf)) {
    if (ex_.mode != nn::ExecMode::kQuantApprox || ex_.mul == nullptr || ex_.adder != nullptr)
      throw std::runtime_error("replay: leaf " + leaf.name() +
                               " does not run the plain approximate GEMM path");
  }

  /// Run the four stages once on `x`. Stage k runs over [t[2k], t[2k+1]);
  /// im2col is empty for Linear leaves, whose activation transpose is part
  /// of their epilogue.
  void run(const Tensor& x, int64_t (&t)[8]) {
    const auto backend = [](int64_t m, int64_t k, int64_t n) {
      return axnn::kernels::auto_backend(m, k, n);
    };
    if (auto* c = dynamic_cast<nn::Conv2d*>(&leaf_)) {
      const nn::Conv2dConfig& cfg = c->config();
      const nn::ConvGeom g = nn::ConvGeom::of(x.shape(), cfg.kernel, cfg.stride, cfg.padding);
      const int64_t grp = cfg.groups, og = cfg.out_channels / grp;
      const int64_t kg = (cfg.in_channels / grp) * cfg.kernel * cfg.kernel;
      const int64_t p = g.out_cols();
      TensorI32 acc(Shape{cfg.out_channels, p});
      t[0] = now_ns();
      const TensorI8 qx = nn::quantize_i8(x, c->act_qparams());
      t[1] = t[2] = now_ns();
      const TensorI8 qw = nn::quantize_i8(c->weight().value, c->weight_qparams());
      t[3] = t[4] = now_ns();
      const TensorI8 qcols = nn::im2col_i8(qx, g);
      t[5] = t[6] = now_ns();
      for (int64_t gi = 0; gi < grp; ++gi)
        axnn::kernels::gemm_approx({}, qw.data() + gi * og * kg, qcols.data() + gi * kg * p,
                                   acc.data() + gi * og * p, og, kg, p, *ex_.mul,
                                   backend(og, kg, p), nullptr, &memo_);
      t[7] = now_ns();
      macs = og * kg * p * grp;
    } else {
      auto& l = dynamic_cast<nn::Linear&>(leaf_);
      const int64_t n = x.shape()[0], in = l.in_features(), out = l.out_features();
      TensorI32 acc(Shape{out, n});
      t[0] = now_ns();
      const TensorI8 qx = nn::quantize_i8(x, l.act_qparams());
      t[1] = t[2] = now_ns();
      const TensorI8 qw = nn::quantize_i8(l.weight().value, l.weight_qparams());
      t[3] = t[4] = t[5] = now_ns();
      TensorI8 qxt(Shape{in, n});
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < in; ++j) qxt(j, i) = qx(i, j);
      t[6] = now_ns();
      axnn::kernels::gemm_approx({}, qw.data(), qxt.data(), acc.data(), out, in, n, *ex_.mul,
                                 backend(out, in, n), nullptr, &memo_);
      t[7] = now_ns();
      macs = out * in * n;
    }
  }

  std::vector<double> act, weight, im2col, gemm;  ///< ms per recorded run
  int64_t macs = 0;

private:
  nn::Layer& leaf_;
  nn::LeafExec ex_;
  axnn::kernels::PlanMemo memo_;
};

}  // namespace

StageTimes replay_forward(nn::Sequential& model, const nn::ExecContext& ctx,
                          const Tensor& batch, int reps, Trace& trace, int64_t parent) {
  static constexpr const char* kStage[4] = {"quant.act", "quant.weight", "nn.im2col",
                                            "kernels.gemm"};
  StageTimes out;
  out.batch = batch.shape()[0];
  std::vector<double> fwd, nonleaf, stage_over_leaf, leaf_over_forward;
  std::vector<std::vector<double>> leaf_ms;
  {
    ProbeSet set(model);
    const std::vector<Probe*> probes = set.probes();
    leaf_ms.resize(probes.size());
    std::deque<LeafReplay> leaves;  // one per probe, in probe order
    for (Probe* p : probes) leaves.emplace_back(*p->inner_, ctx);
    // Each repetition times one forward and then re-runs every leaf's stages
    // once, so both sides of the closure check see the same phase of the
    // host. Repetition 0 warms the memos and the buffer pool, captures every
    // leaf input, and is not recorded.
    for (int r = 0; r <= reps; ++r) {
      const int64_t fid = trace.new_id();
      const int64_t t0 = now_ns();
      (void)model.forward(batch, ctx);
      const int64_t t1 = now_ns();
      double leaf_sum = 0, stage_sum = 0;
      for (size_t i = 0; i < probes.size(); ++i) {
        int64_t t[8];
        LeafReplay& lr = leaves[i];
        lr.run(probes[i]->input_, t);
        if (r == 0) continue;
        const double ms = static_cast<double>(probes[i]->end_ns_ - probes[i]->start_ns_) * 1e-6;
        leaf_ms[i].push_back(ms);
        leaf_sum += ms;
        trace.add("nn.leaf", probes[i]->start_ns_, probes[i]->end_ns_, trace.new_id(), fid);
        const int64_t sid = trace.new_id();
        trace.add("nn.leaf_stages", t[0], t[7], sid, parent);
        std::vector<double>* sinks[4] = {&lr.act, &lr.weight, &lr.im2col, &lr.gemm};
        for (int k = 0; k < 4; ++k) {
          const double stage = static_cast<double>(t[2 * k + 1] - t[2 * k]) * 1e-6;
          sinks[k]->push_back(stage);
          stage_sum += stage;
          trace.add(kStage[k], t[2 * k], t[2 * k + 1], trace.new_id(), sid);
        }
      }
      if (r == 0) continue;
      trace.add("models.forward", t0, t1, fid, parent);
      fwd.push_back(static_cast<double>(t1 - t0) * 1e-6);
      nonleaf.push_back(fwd.back() - leaf_sum);
      stage_over_leaf.push_back(stage_sum / leaf_sum);
      leaf_over_forward.push_back(leaf_sum / fwd.back());
    }
    for (size_t i = 0; i < probes.size(); ++i) {
      const LeafReplay& lr = leaves[i];
      out.layer_macs += probes[i]->inner_->last_mac_count();
      out.leaf_ms += median(leaf_ms[i]);
      out.act_ms += median(lr.act);
      out.weight_ms += median(lr.weight);
      out.im2col_ms += median(lr.im2col);
      out.gemm_ms += median(lr.gemm);
      out.replay_macs += lr.macs;
    }
  }
  out.forward_ms = median(fwd);
  out.nonleaf_ms = median(nonleaf);
  out.epilogue_ms = out.leaf_ms - out.stage_ms();
  out.stage_over_leaf = median(stage_over_leaf);
  out.leaf_over_forward = median(leaf_over_forward);
  return out;
}

std::string closure_error(const StageTimes& t) {
  const std::string at = " at batch " + std::to_string(t.batch);
  if (t.stage_over_leaf > 1.0 + kClosureTolerance)
    return "stage sum is " + std::to_string(t.stage_over_leaf) + " x the leaf forwards" + at;
  if (t.leaf_over_forward > 1.0 + kClosureTolerance)
    return "leaf sum is " + std::to_string(t.leaf_over_forward) + " x the model forward" + at;
  if (t.replay_macs != t.layer_macs)
    return "replayed MACs " + std::to_string(t.replay_macs) + " != layer MACs " +
           std::to_string(t.layer_macs) + at;
  return {};
}

}  // namespace perfbench
