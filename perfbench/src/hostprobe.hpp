// Host noise probe for the run's "info" line. A thread wakes every 50 ms,
// times a fixed single-thread integer kernel and how late its timed wait
// returned. On a shared host, a late wake-up tail marks a contended phase,
// in which every time the benchmark measures gets slower. The probe only
// describes the run; no metric is adjusted by it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"

namespace perfbench {

class HostProbe {
public:
  HostProbe() : thread_([this] { loop(); }) {}
  ~HostProbe() { join(); }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Stop probing and report the probe's medians into `rep.info`.
  void stop(Report& rep) {
    join();
    rep.info["host_kernel_ms"] = median(kernel_ms_);
    rep.info["host_wake_late_p90_us"] = percentile(late_us_, 0.9);
  }

private:
  static constexpr auto kPeriod = std::chrono::milliseconds(50);

  void join() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      lk.unlock();
      const int64_t t0 = now_ns();
      uint64_t x = 0x9E3779B97F4A7C15ull;
      for (uint64_t i = 0; i < 400000; ++i) x = (x ^ (x >> 29)) * 0xBF58476D1CE4E5B9ull + i;
      sink_ = x;
      const int64_t t1 = now_ns();
      lk.lock();
      kernel_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6);
      cv_.wait_for(lk, kPeriod, [this] { return stop_; });
      if (!stop_)
        late_us_.push_back(static_cast<double>(now_ns() - t1) * 1e-3 -
                           std::chrono::duration<double, std::micro>(kPeriod).count());
    }
  }

  static inline volatile uint64_t sink_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> kernel_ms_;
  std::vector<double> late_us_;
  std::thread thread_;  ///< declared last: starts after the members it uses
};

}  // namespace perfbench
