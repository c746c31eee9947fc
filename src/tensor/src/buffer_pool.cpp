#include "axnn/tensor/buffer_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace axnn {
namespace {

// Size classes: powers of two from 64 B (a cache line; also comfortably
// holds the intrusive link) up to 1 GiB. Larger blocks bypass the pool.
constexpr std::size_t kMinShift = 6;
constexpr std::size_t kMaxShift = 30;
constexpr std::size_t kNumClasses = kMaxShift - kMinShift + 1;

std::size_t class_bytes(std::size_t idx) { return std::size_t{1} << (idx + kMinShift); }

/// Size-class index for `bytes`, or kNumClasses when it exceeds the largest
/// class (bypass).
std::size_t class_index(std::size_t bytes) {
  std::size_t idx = 0;
  while (idx < kNumClasses && class_bytes(idx) < bytes) ++idx;
  return idx;
}

std::size_t cap_from_env() {
  if (const char* env = std::getenv("AXNN_POOL_MAX_MB")) {
    char* end = nullptr;
    const long mb = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && mb >= 0) return static_cast<std::size_t>(mb) << 20;
  }
  return std::size_t{256} << 20;
}

struct Pool {
  /// Freed block: first sizeof(void*) bytes hold the next-pointer.
  struct FreeList {
    std::mutex mu;
    void* head = nullptr;
  };

  FreeList classes[kNumClasses];
  const std::size_t cap = cap_from_env();
  std::atomic<std::size_t> cached_bytes{0};
  std::atomic<int64_t> hits{0}, misses{0}, returned{0};

  void* alloc(std::size_t bytes) {
    const std::size_t idx = class_index(bytes);
    if (idx < kNumClasses && cap > 0) {
      FreeList& fl = classes[idx];
      std::lock_guard<std::mutex> lk(fl.mu);
      if (fl.head != nullptr) {
        void* p = fl.head;
        fl.head = *static_cast<void**>(p);
        cached_bytes.fetch_sub(class_bytes(idx), std::memory_order_relaxed);
        hits.fetch_add(1, std::memory_order_relaxed);
        return p;
      }
    }
    misses.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(idx < kNumClasses ? class_bytes(idx) : bytes);
  }

  void free(void* p, std::size_t bytes) noexcept {
    const std::size_t idx = class_index(bytes);
    if (idx < kNumClasses) {
      const std::size_t sz = class_bytes(idx);
      if (cached_bytes.load(std::memory_order_relaxed) + sz <= cap) {
        FreeList& fl = classes[idx];
        std::lock_guard<std::mutex> lk(fl.mu);
        *static_cast<void**>(p) = fl.head;
        fl.head = p;
        cached_bytes.fetch_add(sz, std::memory_order_relaxed);
        returned.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    ::operator delete(p);
  }

  void trim() {
    for (std::size_t idx = 0; idx < kNumClasses; ++idx) {
      FreeList& fl = classes[idx];
      std::lock_guard<std::mutex> lk(fl.mu);
      while (fl.head != nullptr) {
        void* p = fl.head;
        fl.head = *static_cast<void**>(p);
        cached_bytes.fetch_sub(class_bytes(idx), std::memory_order_relaxed);
        ::operator delete(p);
      }
    }
  }
};

/// Intentionally leaked: tensors with static storage duration destruct after
/// any function-local static would, and their blocks must still have a pool
/// to land in.
Pool& pool() {
  static Pool* p = new Pool();
  return *p;
}

}  // namespace

namespace detail {

void* pool_alloc(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  return pool().alloc(bytes);
}

void pool_free(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  pool().free(p, bytes == 0 ? 1 : bytes);
}

}  // namespace detail

BufferPoolStats buffer_pool_stats() {
  Pool& p = pool();
  BufferPoolStats s;
  s.hits = p.hits.load(std::memory_order_relaxed);
  s.misses = p.misses.load(std::memory_order_relaxed);
  s.returned = p.returned.load(std::memory_order_relaxed);
  s.cached_bytes = static_cast<int64_t>(p.cached_bytes.load(std::memory_order_relaxed));
  s.cap_bytes = static_cast<int64_t>(p.cap);
  return s;
}

void buffer_pool_reset_stats() {
  Pool& p = pool();
  p.hits.store(0, std::memory_order_relaxed);
  p.misses.store(0, std::memory_order_relaxed);
  p.returned.store(0, std::memory_order_relaxed);
}

void buffer_pool_trim() {
  pool().trim();
#ifdef __GLIBC__
  // glibc keeps freed small blocks in its arenas; hand the free pages back
  // so the trimmed bytes leave the resident set, not just the freelists.
  malloc_trim(0);
#endif
}

}  // namespace axnn
