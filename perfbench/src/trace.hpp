// In-memory span recorder for the traced run.
//
// A span is a named [start, end) interval on the steady clock with an id, the
// id of the span that caused it, and the request it belongs to. Spans are
// recorded from the benchmark's own files around calls into each layer's
// public functions; nothing inside the library is instrumented. They stay in
// memory until the run ends and are then written as a Chrome trace-event file
// (load it in Perfetto or chrome://tracing).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;  ///< -1 = root
  int64_t req = -1;     ///< request id; -1 = not a request span
  double dur_ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Thread-safe span sink. Disabled traces record nothing and hand out ids
/// anyway, so call sites need no branches.
class Trace {
public:
  explicit Trace(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  bool on() const { return on_; }
  int64_t new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void add(const char* name, int64_t start_ns, int64_t end_ns, int64_t id, int64_t parent = -1,
           int64_t req = -1) {
    if (!on_) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, start_ns, end_ns, id, parent, req});
  }

  /// Per span name: count, median duration and median self time (ms).
  /// Self time is the duration minus the part of the interval covered by
  /// the span's children.
  struct NameSummary {
    int64_t count = 0;
    double median_ms = 0;
    double median_self_ms = 0;
  };
  std::map<std::string, NameSummary> summary() const;

  /// Write every span as a Chrome trace-event JSON file, with summary()
  /// under "selfTime". Returns false when the file cannot be written.
  bool write(const std::string& path) const;

private:
  bool on_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
