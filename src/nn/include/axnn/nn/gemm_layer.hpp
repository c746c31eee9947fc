// axnn — the quantized GEMM leaf Conv2d and Linear share.
//
// Every conv and FC layer computes out[O, n] = W[O, K] · X[K, n] per weight
// group: the one place where quantization and approximation attach. In
// kQuantApprox mode the integer GEMM multiplies through an approximate-
// multiplier table (Eq. 4); the backward pass uses the straight-through
// estimator of the exact GEMM (Eq. 5), optionally refined by the
// gradient-estimation scale (1 + K) on the weight gradient (Eq. 12).
//
// GemmLayer owns all of that once: the weight/bias parameters, the
// quantization state and its calibration, the grouped approximate GEMM with
// its monitor hooks and diagnostics, the forward/infer bookkeeping and the
// GE scaling of the output gradient. A derived layer supplies only its data
// layout — how activations lower to the GEMM operand, the float GEMM, the
// dequant epilogue and the backward GEMMs.
//
// Per-layer heterogeneity (mixed multipliers, adders, mode overrides, GE
// fits) comes from the execution plan: run() resolves its effective
// parameters through plan_leaf_exec (axnn/nn/plan.hpp), which returns the
// plain context fields when no plan is attached.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "axnn/kernels/plan.hpp"
#include "axnn/nn/layer.hpp"
#include "axnn/quant/calibration.hpp"

namespace axnn::nn {

struct LeafExec;  // axnn/nn/plan.hpp

class GemmLayer : public Layer {
public:
  Tensor forward(const Tensor& x, const ExecContext& ctx) override;
  Tensor infer(const Tensor& x, const ExecContext& ctx) const override;
  /// The weight, then the bias when enabled (checkpoint order).
  std::vector<Param*> params() override;
  void finalize_calibration(quant::Calibration method) override;
  int64_t last_mac_count() const override { return last_macs_; }
  const kernels::PlanMemo* plan_memo() const override { return &plan_memo_; }

  Param& weight() { return weight_; }
  Param& bias_param() { return bias_; }
  bool has_bias() const { return !bias_.value.empty(); }

  bool calibrated() const { return calibrated_; }
  const quant::QuantParams& weight_qparams() const { return wgt_qp_; }
  const quant::QuantParams& act_qparams() const { return act_qp_; }
  void set_qparams(const quant::QuantParams& wgt, const quant::QuantParams& act);

  /// The activation range statistics gathered during kCalibrate passes
  /// (sentinel range-guard calibration). Unseen on cloned models, whose
  /// quantization state is copied without the observer reservoir.
  const quant::RangeObserver& act_observer() const { return act_obs_; }

  /// Override the quantization bit-widths before calibration (paper outlook:
  /// "extended for lower bitwidth quantization"). The approximate path
  /// requires weight_bits <= 4 (the LUT's 4-bit operand); quantized-exact
  /// execution accepts any width in [2, 8].
  void set_bit_widths(int weight_bits, int activation_bits);
  int weight_bits() const { return wgt_bits_; }
  int activation_bits() const { return act_bits_; }

  /// Weight groups: each runs W_g[O/groups, dot_length] · X_g (1 for Linear).
  virtual int64_t groups() const = 0;
  /// Accumulation length of one output element ((C/groups)*k*k for conv,
  /// in_features for FC) — the Monte-Carlo dot length of this leaf's GE fit.
  virtual int64_t dot_length() const = 0;
  /// Multiply-accumulates of one forward over a batch of shape `in`.
  virtual int64_t macs_for(const Shape& in) const = 0;

protected:
  /// `weight` is [O, ...]; a bias, when enabled, starts at zero.
  GemmLayer(Tensor weight, bool bias);

  /// What forward keeps for backward (and a calibration pass's float
  /// output), filled by run() only when forward asks for it.
  struct Caches {
    Tensor in;         ///< effective float GEMM operand (conv cols, FC x)
    Tensor w;          ///< effective weights as a matrix [O, dot_length]
    Tensor act_mask;   ///< STE clip mask in input layout (quantized modes)
    Tensor acc;        ///< accumulators in output-gradient layout (GE only)
    const ge::ErrorFit* fit = nullptr;
    Tensor calib_out;  ///< float GEMM output, no bias (kCalibrate only)
  };

  /// The computation forward and infer share. Writes nothing but the plan
  /// memo; when `keep` is set it also fills the backward caches.
  virtual Tensor run(const Tensor& x, const ExecContext& ctx, const std::string& obs_path,
                     Caches* keep) const = 0;

  /// Float GEMM of `w` (weight layout) with an operand laid out as
  /// Caches::in, without bias: what MinPropQE compares against calib_out.
  virtual Tensor float_gemm(const float* w, const Tensor& in) const = 0;

  /// Entry of a quantized pass: the calibration, multiplier-table and
  /// 4-bit-weight guards of `ex.mode`, then the monitor's input hook.
  void begin_quantized(const ExecContext& ctx, const LeafExec& ex, const Tensor& x) const;

  /// The kQuantApprox integer GEMM acc[O, n] = qw ·~ qx, one call per group
  /// over qx's [groups * dot_length, n] rows: through the plan adder when
  /// set, else the exact kernel when the monitor forces it, else the LUT
  /// kernel; the monitor sees every non-adder group. With the ge_residual
  /// collector option it re-runs the GEMM exactly to record eps = y~ - y.
  TensorI32 approx_gemm(const ExecContext& ctx, const LeafExec& ex, const TensorI8& qw,
                        const int8_t* qx, int64_t n, const std::string& obs_path) const;

  /// Backward's first check: throws after a calibration forward, which
  /// keeps no caches.
  void require_backward_caches() const;

  /// The weight-gradient path's output gradient (Eq. 12): dy (laid out as
  /// Caches::acc) scaled by (1 + K(acc)) into `scaled` when the forward kept
  /// a GE fit, else dy itself.
  const Tensor& ge_scaled(const Tensor& dy, Tensor& scaled) const;

  Param weight_;
  Param bias_;  ///< [O] (zero-sized if disabled)

  // Quantization state.
  int wgt_bits_ = quant::kWeightBits;
  int act_bits_ = quant::kActivationBits;
  quant::QuantParams wgt_qp_{1.0f, quant::kWeightBits};
  quant::QuantParams act_qp_{1.0f, quant::kActivationBits};
  bool calibrated_ = false;

  // Forward caches for backward (none after a calibration forward).
  Shape in_shape_;  ///< input shape of the last forward
  Tensor cached_in_;
  Tensor cached_w_;
  Tensor cached_act_mask_;
  Tensor cached_acc_;
  const ge::ErrorFit* cached_fit_ = nullptr;

  /// Per-leaf plan memo: the forward/infer/backward GEMMs of this layer
  /// resolve their prepared plans here without touching the global cache's
  /// mutex. mutable because infer is const; layers are single-threaded at a
  /// time (the serving lanes each own a model replica).
  mutable kernels::PlanMemo plan_memo_;

  /// Telemetry path captured at forward; backward runs outside the
  /// container scopes and records its timers here.
  std::string obs_path_;

private:
  quant::RangeObserver act_obs_;
  std::optional<Tensor> calib_in_;      ///< cached GEMM operand for MinPropQE
  std::optional<Tensor> calib_out_fp_;  ///< cached float output for MinPropQE
  bool calib_forward_ = false;          ///< last forward was kCalibrate
  int64_t last_macs_ = 0;
};

}  // namespace axnn::nn
