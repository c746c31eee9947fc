// axbench — the repo benchmark's binary (see perfbench/README.md).
//
//   axbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//           [--trace-out <spans.json>]
//   axbench --prepare
//
// Prints one JSON line of details ("info") and, as the last line of stdout,
// the result object: {"correct", "attempted", "failed", "metrics"}. Exits 1
// when an output or closure check failed, 2 on a usage error or a crash.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>
#include <utility>

#include "axnn/core/pipeline.hpp"
#include "bench.hpp"

namespace perfbench {

namespace {

using Unit = std::pair<const char*, const char*>;

/// Reported with --trace 0; BENCHMARK.json's end_to_end lists the same.
constexpr Unit kEndToEnd[] = {
    {"setup_s", "s"},  {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"top1_pct", "%"}, {"peak_rss_mb", "MB"},
};

/// Reported with --trace 1; BENCHMARK.json's per_layer lists the same. A
/// layer a workload does not run reads 0.
constexpr Unit kPerLayer[] = {
    {"serve.submit_us", "us"},
    {"serve.engine_latency_ms", "ms"},
    {"serve.wait_ms", "ms"},
    {"serve.mean_batch", "count"},
    {"serve.flush_timer_frac", "ratio"},
    {"serve.deadline_misses", "count"},
    {"serve.queue_full_waits", "count"},
    {"serve.shed", "count"},
    {"serve.rejected", "count"},
    {"models.forward_ms", "ms"},
    {"nn.nonleaf_ms", "ms"},
    {"quant.act_ms", "ms"},
    {"quant.weight_ms", "ms"},
    {"nn.im2col_ms", "ms"},
    {"kernels.gemm_ms", "ms"},
    {"nn.epilogue_ms", "ms"},
    {"kernels.gemm_gmacs", "GMAC/s"},
    {"kernels.plan_hit_rate", "ratio"},
    {"kernels.plan_misses", "count"},
    {"tensor.pool_misses", "count"},
    {"train.student_fwd_ms", "ms"},
    {"kd.teacher_fwd_ms", "ms"},
    {"kd.loss_ms", "ms"},
    {"train.backward_ms", "ms"},
    {"train.sgd_ms", "ms"},
    {"trace.throughput_per_s", "1/s"},
    {"trace.latency_p50_ms", "ms"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "axbench: %s\nusage: axbench --workload <name> --seed <n> --seconds <s> "
               "--trace 0|1 [--trace-out <file>]\n       axbench --prepare\n",
               msg);
  return 2;
}

int emit(const Args& args, Report& rep) {
  std::string metrics;
  const std::span<const Unit> units = args.trace ? std::span<const Unit>(kPerLayer)
                                                 : std::span<const Unit>(kEndToEnd);
  for (const auto& [name, unit] : units) {
    const auto it = rep.metrics.find(name);
    const double v = it != rep.metrics.end() ? it->second : 0.0;
    if (!std::isfinite(v)) rep.errors.push_back(std::string("metric ") + name + " is not finite");
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + name + "\": {\"value\": " + (std::isfinite(v) ? num(v) : "0") +
               ", \"unit\": \"" + unit + "\"}";
  }
  std::string info, errors;
  for (const auto& [k, v] : rep.info) info += (info.empty() ? "\"" : ", \"") + k + "\": " + num(v);
  for (const auto& e : rep.errors) errors += (errors.empty() ? "\"" : ", \"") + json_escape(e) + "\"";
  std::printf("{\"info\": {%s}, \"errors\": [%s]}\n", info.c_str(), errors.c_str());
  const bool correct = rep.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

axnn::core::BenchProfile bench_profile() {
  axnn::core::BenchProfile p = axnn::core::BenchProfile::from_env();
  p.threads = kThreads;
  return p;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

/// Untimed: train or load the FP and stage-1 weights into the model cache.
void prepare_model_cache() {
  axnn::core::WorkbenchConfig cfg;
  cfg.model = axnn::core::ModelKind::kResNet20;
  cfg.profile = bench_profile();
  axnn::core::Workbench wb(cfg);
  (void)wb.run_quantization_stage(/*use_kd=*/true);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool prepare = false, have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--prepare") {
      prepare = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--trace-out") {
      args.trace_out = v;
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  bench_profile().apply();
  try {
    if (prepare) {
      prepare_model_cache();
      return 0;
    }
    if (!have_workload) return usage("--workload is required");
    if (!(args.seconds > 0)) return usage("--seconds must be positive");
    if (args.trace && args.trace_out.empty()) return usage("--trace 1 needs --trace-out");
    Report rep;
    if (args.workload == "serve_saturated")
      rep = run_serve_saturated(args);
    else if (args.workload == "serve_poisson_mixed")
      rep = run_serve_poisson_mixed(args);
    else if (args.workload == "finetune_approxkd_ge")
      rep = run_finetune_approxkd_ge(args);
    else
      return usage(("unknown workload " + args.workload).c_str());
    return emit(args, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "axbench: %s\n", e.what());
    return 2;
  }
}
