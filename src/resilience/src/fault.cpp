#include "axnn/resilience/fault.hpp"

#include <algorithm>
#include <cstring>

#include "axnn/kernels/signed_lut.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/tensor/rng.hpp"

namespace axnn::resilience {

namespace {

uint32_t apply_fault(uint32_t word, uint32_t mask, FaultKind kind, bool stuck_value) {
  if (kind == FaultKind::kTransient) return word ^ mask;
  return stuck_value ? (word | mask) : (word & ~mask);
}

}  // namespace

FaultInjector::FaultInjector(FaultSpec spec) : spec_(spec) {
  spec_.bit_lo = std::clamp(spec_.bit_lo, 0, 31);
  spec_.bit_hi = std::clamp(spec_.bit_hi, spec_.bit_lo + 1, 32);
  if (spec_.rate > 0.0) {
    const double clamped = std::min(spec_.rate, 1.0);
    // Map the probability onto the full u64 range; a hash below the
    // threshold marks the element as faulty this pass.
    threshold_ = clamped >= 1.0
                     ? ~uint64_t{0}
                     : static_cast<uint64_t>(clamped * 18446744073709551616.0);
    if (threshold_ == 0) threshold_ = 1;  // tiny but non-zero rates stay live
  }
}

bool FaultInjector::active() const {
  if (!enabled()) return false;
  const int64_t p = pass_.load(std::memory_order_relaxed);
  return p >= spec_.first_pass && p < spec_.last_pass;
}

void FaultInjector::begin_pass() const {
  pass_.fetch_add(1, std::memory_order_relaxed);
  site_.store(0, std::memory_order_relaxed);
}

template <typename T>
void FaultInjector::corrupt_impl(T* data, int64_t n, uint64_t site) const {
  static_assert(sizeof(T) == sizeof(uint32_t));
  if (!active() || n <= 0) return;
  const int span = spec_.bit_hi - spec_.bit_lo;
  // Transient faults re-sample per pass; stuck-at faults ignore the pass so
  // the same elements/bits are hit every time.
  const uint64_t salt = spec_.kind == FaultKind::kTransient
                            ? static_cast<uint64_t>(pass_.load(std::memory_order_relaxed))
                            : 0;
  const uint64_t stream = hash_mix(spec_.seed, hash_mix(site, salt));
  int64_t local_flips = 0;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t h = hash_mix(stream, static_cast<uint64_t>(i));
    if (h >= threshold_) continue;
    const int bit = spec_.bit_lo + static_cast<int>((h >> 33) % static_cast<uint64_t>(span));
    const uint32_t mask = uint32_t{1} << bit;
    const bool stuck_value = ((h >> 32) & 1) != 0;
    uint32_t word;
    std::memcpy(&word, &data[i], sizeof(word));
    const uint32_t faulty = apply_fault(word, mask, spec_.kind, stuck_value);
    if (faulty != word) {
      std::memcpy(&data[i], &faulty, sizeof(faulty));
      ++local_flips;
    }
  }
  if (local_flips) {
    flips_.fetch_add(local_flips, std::memory_order_relaxed);
    if (obs::enabled())
      obs::collector()->add("faults", "bit_flips", static_cast<double>(local_flips));
  }
}

void FaultInjector::corrupt(float* data, int64_t n, uint64_t site) const {
  corrupt_impl(data, n, site);
}

void FaultInjector::corrupt(int32_t* data, int64_t n, uint64_t site) const {
  corrupt_impl(data, n, site);
}

void FaultInjector::corrupt(Tensor& t) const {
  if (!active()) return;
  corrupt(t.data(), t.numel(), site_.fetch_add(1, std::memory_order_relaxed));
}

void corrupt_tensors(const std::vector<Tensor*>& tensors, const FaultInjector& inj) {
  uint64_t site = 0;
  for (Tensor* t : tensors) inj.corrupt(t->data(), t->numel(), site++);
}

void corrupt_lut(approx::SignedMulTable& table, const FaultInjector& inj) {
  inj.corrupt(table.mutable_data(), static_cast<int64_t>(axmul::kLutSize), /*site=*/0);
}

}  // namespace axnn::resilience
