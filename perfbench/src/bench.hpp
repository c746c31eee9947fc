// Shared declarations of the benchmark binary (axbench).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "axnn/core/profile.hpp"
#include "trace.hpp"

namespace perfbench {

/// Intra-op threads of the global pool, pinned for every workload: the
/// calling thread runs all kernel work itself. On the shared 4-vCPU host the
/// benchmark was sized on, a 2-thread pool made the batch-8 forward about
/// twice as slow and the fine-tune bimodal (cross-vCPU wake-ups), so the
/// ThreadPool's fan-out is deliberately outside what this benchmark times.
inline constexpr int kThreads = 1;

/// Share of samples (serving blocks, fine-tune epochs) that must be at
/// least as good as a reported time or rate: the reported value is the level
/// the run sustained in 19 of 20 samples. The shared host the benchmark was
/// sized on switches between a slow and a fast mode that each last tens of
/// seconds (about 1.7x apart for the batch-8 forward). A median over one run
/// lands wherever that run's mix of modes puts it; the sustained level
/// tracks the slow mode, which nearly every run visits, and any change to
/// the program's work still moves it.
inline constexpr double kSustained = 0.95;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans
};

/// What one run reports. `metrics` holds the end-to-end metrics in an
/// untraced run and the per-layer metrics in a traced one.
struct Report {
  std::vector<std::string> errors;  ///< failed output / closure checks
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> info;  ///< printed, not compared
};

/// Profile every workload runs with: the fast profile, the model cache from
/// AXNN_CACHE_DIR and kThreads, which main() pins once via apply().
axnn::core::BenchProfile bench_profile();

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

Report run_serve_saturated(const Args& args);
Report run_serve_poisson_mixed(const Args& args);
Report run_finetune_approxkd_ge(const Args& args);

}  // namespace perfbench
