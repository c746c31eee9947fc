// axnn — runtime fault detection and graceful degradation (DESIGN.md §5f).
//
// The sentinel is a nn::ForwardMonitor that watches every quantized GEMM
// leaf for silent data corruption — the faults the resilience subsystem can
// plant (stuck-at LUT entries, weight bit flips, corrupted inter-layer
// activations) and real deployments fear. Three detectors:
//
//   * ABFT column checksums. For C[M,N] = W · X the column sums of C must
//     equal Σ_k (Σ_m W[m,k])·X[k,n]. On the approximate path the two differ
//     by the accumulated approximation error, so the check compares against
//     a *calibrated* tolerance: the per-(multiplier, shape) GE error fit
//     f(y) predicts the expected column deviation (Σ_m f(c_mn)), and the
//     residual beyond it is bounded by the fit's percentile clamps. The
//     exact integer path uses tolerance zero.
//   * Golden weight checksums. A corrupted weight operand yields a GEMM
//     that is checksum-consistent with itself, so ABFT alone cannot see it;
//     the weight column sums captured at calibration time can.
//   * Activation range guards (Ranger-style). Each leaf's pre-quantization
//     inputs are checked against the bound and clip statistics the
//     quantizer's RangeObserver gathered during calibration.
//
// Reaction is the DegradationPolicy: a violated GEMM is re-executed — by
// default with golden weights and a pristine multiplier table rebuilt from
// the registry, restoring the clean *approximate* result the fine-tuned
// model expects (see DegradationPolicy::RepairMode for why exact arithmetic
// is the wrong repair target there). A leaf that keeps violating is
// degraded: under kGoldenTable every later pass recomputes from golden
// state; under kExact force_exact() starts returning true and, when a
// PlanResolution is attached, the leaf's plan entry is rewritten to
// exact/safe mode so the self-healing persists in the plan itself. Every
// detection lands in obs events/metrics and in the structured
// SentinelReport.
//
// Thread safety: calibrate once, then concurrent forward passes may share
// one sentinel (counters are mutex-guarded; calibration state is read-only
// after calibrate). Calibrate against the weights the model will serve —
// fine-tuning invalidates the golden checksums.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "axnn/ge/fit_registry.hpp"
#include "axnn/kernels/signed_lut.hpp"
#include "axnn/nn/monitor.hpp"
#include "axnn/nn/plan.hpp"

namespace axnn::sentinel {

/// What to do about detected violations.
struct DegradationPolicy {
  /// What a repair re-executes with.
  ///
  ///   * kGoldenTable (default): golden weights + a pristine copy of the
  ///     leaf's multiplier table rebuilt from the registry — restores the
  ///     *clean approximate* result bit-for-bit. This is the right target
  ///     for a model fine-tuned under the approximate multiplier: its
  ///     weights have adapted to the multiplier's systematic bias, and
  ///     exact arithmetic would re-introduce that bias with the opposite
  ///     sign (bench_sentinel_coverage measures a trunc5-fine-tuned
  ///     ResNet20 at ~25% accuracy under the exact multiplier vs ~88%
  ///     under clean trunc5).
  ///   * kExact: the exact integer kernel; on degradation the leaf is
  ///     forced to exact execution and its plan entry rewritten. Right for
  ///     models that were never fine-tuned under the approximate
  ///     multiplier, where exact execution is the gold standard.
  enum class RepairMode { kGoldenTable, kExact };
  RepairMode repair = RepairMode::kGoldenTable;
  /// Re-execute a violated GEMM (per `repair`, with golden weights when the
  /// weight checksum failed) — repairs the current pass.
  bool reexec = true;
  /// Checksum violations at one leaf before it is degraded permanently:
  /// kGoldenTable then recomputes every pass from golden state (catching
  /// even sub-tolerance faults); kExact forces exact execution.
  /// <= 0 degrades on the first violation.
  int degrade_after = 3;
  /// On degradation under kExact, also rewrite the leaf's entry in the
  /// attached PlanResolution to exact mode (no-op without an attached
  /// resolution or under kGoldenTable, where the monitor keeps serving the
  /// golden semantics itself).
  bool rewrite_plan = true;
};

struct SentinelConfig {
  /// ABFT + golden-weight checksum verification of every integer GEMM.
  bool abft = true;
  /// Column tolerance = tolerance_scale * M * elem_dev + tolerance_floor,
  /// where elem_dev is the per-output-element residual half-spread of the
  /// calibrated error fit ((a - b) / 2, the 95% band around the fitted
  /// line). M elements per column sum coherently in the worst case.
  double tolerance_scale = 2.0;
  /// Absolute slack in integer accumulator units (rounding of the fit
  /// correction, clamp-region residuals).
  double tolerance_floor = 512.0;

  /// Ranger-style activation range guards at each leaf input.
  bool range_guard = true;
  /// Flag inputs whose max |x| exceeds range_scale * calibrated bound.
  double range_scale = 4.0;
  /// Flag inputs whose clip rate exceeds
  /// min(0.5, clip_scale * calibrated clip rate + clip_floor).
  double clip_scale = 8.0;
  double clip_floor = 0.02;

  DegradationPolicy policy;

  /// Monte-Carlo knobs for the tolerance fits (dot_length is overridden per
  /// leaf shape, exactly as NetPlan::resolve fits GE).
  ge::McConfig mc;
};

/// Per-leaf detection statistics (one row of the SentinelReport).
struct LeafStats {
  std::string path;
  int64_t gemm_checks = 0;        ///< integer GEMM groups verified
  int64_t range_checks = 0;       ///< leaf inputs scanned
  int64_t abft_violations = 0;    ///< column checksum beyond tolerance
  int64_t weight_violations = 0;  ///< golden weight-checksum mismatches
  int64_t range_violations = 0;   ///< inputs beyond range/clip bounds
  int64_t reexecs = 0;            ///< GEMMs repaired by re-execution
  bool degraded = false;          ///< permanently repaired / forced exact
  /// Worst |column deviation| / tolerance seen on checksum-clean GEMMs —
  /// the safety margin of the calibrated tolerance (FP headroom).
  double max_rel_dev = 0.0;
};

struct SentinelReport {
  std::vector<LeafStats> leaves;

  int64_t total_checks() const;
  int64_t total_violations() const;  ///< abft + weight + range
  int64_t total_reexecs() const;
  int64_t degraded_leaves() const;
  /// Violations per check over both detector families — the false-positive
  /// rate when the run is known fault-free.
  double violation_rate() const;
  /// One line: "3 leaves, 12 violations (8 abft/0 weight/4 range), 8
  /// re-execs, 1 degraded".
  std::string summary() const;

  /// Fold another report in: counters add per path (matched by path, order
  /// preserved; unknown paths append), degraded flags OR, max_rel_dev takes
  /// the max. The serving engine merges its per-lane sentinels with this.
  void merge(const SentinelReport& other);
};

class Sentinel final : public nn::ForwardMonitor {
public:
  explicit Sentinel(SentinelConfig cfg = {});

  const SentinelConfig& config() const { return cfg_; }

  /// Calibrate for a uniform run: every leaf executes `mul_id` through
  /// `tab` (pass the *clean* table — tolerances model approximation error,
  /// not faults). Captures golden weight checksums, activation bounds and
  /// per-(multiplier, shape) tolerances for every calibrated conv/FC leaf
  /// of `root`. Throws std::logic_error on uncalibrated leaves.
  void calibrate_uniform(nn::Layer& root, const approx::SignedMulTable& tab,
                         const std::string& mul_id);

  /// Calibrate for a heterogeneous run: per-leaf multipliers come from the
  /// resolution (leaves with exact/float mode overrides get zero-tolerance
  /// state). The resolution is retained for DegradationPolicy::rewrite_plan
  /// and must outlive the sentinel's use.
  void calibrate_plan(nn::Layer& root, nn::PlanResolution& resolution);

  // nn::ForwardMonitor:
  bool force_exact(const nn::Layer& leaf) override;
  void on_leaf_input(const nn::Layer& leaf, const Tensor& x) override;
  bool on_leaf_gemm(const nn::Layer& leaf, int64_t group, bool approx, const int8_t* w,
                    const int8_t* x, int32_t* c, int64_t m, int64_t k, int64_t n,
                    const approx::SignedMulTable* tab) override;

  /// Snapshot of the per-leaf statistics (depth-first model order).
  SentinelReport report() const;

  /// Zero every counter and degradation flag, keeping the calibration.
  /// (Measure false positives on a clean run, then reuse the sentinel.)
  void reset_counters();

private:
  struct LeafState {
    std::string path;
    int64_t index = 0;          ///< depth-first position (report order)
    double elem_dev = 0.0;      ///< per-element residual half-spread
    const ge::ErrorFit* fit = nullptr;  ///< column-deviation predictor
    double range_bound = 0.0;   ///< calibrated max |x|
    double qrange = 0.0;        ///< activation quantization range
    double clip_limit = 0.0;    ///< tolerated clip rate
    TensorI8 golden_w;          ///< quantized weights at calibration
    std::vector<int64_t> golden_wsum;  ///< per group: K column sums
    int64_t rows_per_group = 0;        ///< M of one group's GEMM
    /// Pristine multiplier table rebuilt from the registry at calibration
    /// (kGoldenTable repairs); null for exact-mode leaves.
    const approx::SignedMulTable* golden_tab = nullptr;
    LeafStats stats;
    int events_emitted = 0;     ///< obs event cap per leaf
  };

  void calibrate_leaf(const nn::GemmLeaf& leaf, const approx::SignedMulTable* tab,
                      const std::string& mul_id, bool runs_approx);
  void record_violation(LeafState& st, const char* kind, double deviation, double tolerance);
  void maybe_degrade(LeafState& st, const nn::Layer& leaf);
  const approx::SignedMulTable* golden_table_for(const std::string& mul_id);

  SentinelConfig cfg_;
  ge::FitRegistry fits_;
  std::unordered_map<const nn::Layer*, LeafState> leaves_;
  /// Registry-pristine tables shared by leaves, keyed by multiplier id.
  std::map<std::string, approx::SignedMulTable> golden_tabs_;
  nn::PlanResolution* resolution_ = nullptr;
  mutable std::mutex mu_;
};

}  // namespace axnn::sentinel
