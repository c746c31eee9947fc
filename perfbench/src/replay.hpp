// Per-layer replay of one model forward, timed from outside the library.
//
// The model's conv/FC leaves are temporarily wrapped in timing probes (they
// live in Sequential containers, whose layer lists are public), the forward
// is repeated under the workload's exec context, and after each forward
// every leaf's quantize / im2col / GEMM stages are re-run once on the leaf's
// captured input through the same public functions the leaf calls:
//   nn::quantize_i8 (activations, then the per-call weight re-quantization),
//   nn::im2col_i8, kernels::gemm_approx with a PlanMemo of the replay's own.
// What a leaf spends outside those four calls (dequantization, STE mask,
// backward caches, the Linear transpose) is its epilogue.
#pragma once

#include <cstdint>
#include <string>

#include "axnn/nn/exec.hpp"
#include "axnn/nn/sequential.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-forward stage times (ms, medians over repetitions, summed over the
/// conv/FC leaves) of one (context, batch) replay.
struct StageTimes {
  int64_t batch = 0;
  double forward_ms = 0;   ///< whole model forward
  double leaf_ms = 0;      ///< conv/FC leaf forwards
  double nonleaf_ms = 0;   ///< forward minus the conv/FC leaves
  double act_ms = 0;       ///< nn::quantize_i8 of the activations
  double weight_ms = 0;    ///< nn::quantize_i8 of the weights
  double im2col_ms = 0;    ///< nn::im2col_i8 (conv leaves only)
  double gemm_ms = 0;      ///< kernels::gemm_approx
  double epilogue_ms = 0;  ///< leaf minus the four stages above
  int64_t replay_macs = 0; ///< MACs of the replayed GEMMs
  int64_t layer_macs = 0;  ///< sum of Layer::last_mac_count() after the forward
  /// Closure ratios, each the median over repetitions of one repetition's
  /// stage sum / leaf sum and leaf sum / forward.
  double stage_over_leaf = 0;
  double leaf_over_forward = 0;

  double stage_ms() const { return act_ms + weight_ms + im2col_ms + gemm_ms; }
};

/// Relative slack allowed by the closure checks (stage sum <= leaf forward,
/// leaf sum <= model forward). The stages are replayed outside the leaf, so
/// they can run slightly faster or slower than inside it. Both checks pair
/// the two sides within one repetition, so a host that slows down between
/// repetitions moves both sides alike.
inline constexpr double kClosureTolerance = 0.15;

/// Replay `reps` forwards of `batch` through `model` under `ctx` and time
/// every conv/FC leaf stage. The model must not be in use by anything else
/// (the serving lane must be idle). Spans go to `trace` under `parent`.
/// Throws std::runtime_error if a conv/FC leaf does not run kQuantApprox.
StageTimes replay_forward(axnn::nn::Sequential& model, const axnn::nn::ExecContext& ctx,
                          const axnn::Tensor& batch, int reps, Trace& trace, int64_t parent);

/// Empty string when the closure checks hold, otherwise what failed.
std::string closure_error(const StageTimes& t);

}  // namespace perfbench
