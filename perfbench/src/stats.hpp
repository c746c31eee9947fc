// Sample statistics and open-loop arrival accounting for the benchmark.
//
// Header-only and free of axnn dependencies so tests/test_stats.cpp can pin
// the two rules every reported number rests on: the percentile rule and the
// intended-send-time latency of the open loop.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q*n samples at
/// or below it (1-based rank ceil(q*n), clamped to [1, n]). Returns 0 for an
/// empty sample. Takes a copy because it sorts.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<int64_t>(v.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  return v[static_cast<size_t>(rank - 1)];
}

/// Samples strictly above the nearest-rank q-percentile's rank. A tail
/// percentile is only meaningful with at least ten samples beyond it.
inline int64_t samples_beyond(int64_t n, double q) {
  if (n <= 0) return 0;
  const int64_t rank =
      std::clamp<int64_t>(static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9)),
                          1, n);
  return n - rank;
}

inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// One open-loop arrival: when it is due, which tenant it goes to and which
/// test image it carries.
struct Arrival {
  int64_t due_ns = 0;  ///< offset from the start of the schedule
  int tenant = 0;
  int64_t sample = 0;
};

/// Seeded Poisson schedule over [0, seconds): exponential inter-arrival gaps
/// at `rate_rps`, a fair coin between `tenants` tenants, and a uniform pick
/// among `samples` images. The same seed always yields the same schedule.
inline std::vector<Arrival> poisson_schedule(uint64_t seed, double rate_rps, double seconds,
                                             int tenants, int64_t samples) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate_rps);
  std::uniform_int_distribution<int> coin(0, tenants - 1);
  std::uniform_int_distribution<int64_t> pick(0, samples - 1);
  std::vector<Arrival> out;
  double t = gap(gen);
  while (t < seconds) {
    Arrival a;
    a.due_ns = static_cast<int64_t>(t * 1e9);
    a.tenant = coin(gen);
    a.sample = pick(gen);
    out.push_back(a);
    t += gap(gen);
  }
  return out;
}

/// Open-loop timing of one request, all stamps on the same monotonic clock.
/// Latency runs from the *intended* send time, so a stalled generator or a
/// blocking submit is charged to every request it delayed (no coordinated
/// omission); lateness is how far behind schedule the generator sent it.
struct OpenLoopStamp {
  int64_t intended_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;

  double latency_ms() const { return static_cast<double>(done_ns - intended_ns) * 1e-6; }
  double lateness_ms() const {
    return static_cast<double>(std::max<int64_t>(0, sent_ns - intended_ns)) * 1e-6;
  }
};

}  // namespace perfbench
