#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "stats.hpp"

namespace perfbench {

std::map<std::string, Trace::NameSummary> Trace::summary() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Span& s : spans_)
    if (s.parent >= 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_name;
  for (const Span& s : spans_) {
    // Union of the children's intervals, clipped to the span.
    int64_t covered = 0, reach = s.start_ns;
    if (auto it = kids.find(s.id); it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      for (const auto& [b, e] : iv) {
        const int64_t lo = std::max(b, reach), hi = std::min(e, s.end_ns);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, hi);
      }
    }
    auto& [dur, self] = by_name[s.name];
    dur.push_back(s.dur_ms());
    self.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6);
  }
  std::map<std::string, NameSummary> out;
  for (const auto& [name, v] : by_name)
    out[name] = {static_cast<int64_t>(v.first.size()), median(v.first), median(v.second)};
  return out;
}

bool Trace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto sum = summary();
  std::lock_guard<std::mutex> lk(mu_);
  const int64_t t0 = spans_.empty() ? 0 : std::min_element(spans_.begin(), spans_.end(),
                                                            [](const Span& a, const Span& b) {
                                                              return a.start_ns < b.start_ns;
                                                            })->start_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %lld, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"id\": %lld, \"parent\": %lld, \"req\": %lld}}%s\n",
                 s.name, static_cast<long long>(s.req >= 0 ? 1 : 0),
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), static_cast<long long>(s.req),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"selfTime\": {");
  bool first = true;
  for (const auto& [name, n] : sum) {
    std::fprintf(f, "%s\n  \"%s\": {\"count\": %lld, \"median_ms\": %.6f, \"median_self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(), static_cast<long long>(n.count), n.median_ms,
                 n.median_self_ms);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
