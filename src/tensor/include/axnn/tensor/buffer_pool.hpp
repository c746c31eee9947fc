// axnn — pooled tensor storage (zero-allocation steady state).
//
// Every BasicTensor allocation routes through this pool: a process-global
// set of power-of-two size-class freelists. A freed block parks on its
// class's intrusive list (the link pointer lives in the block itself, so the
// pool needs no metadata allocations); the next tensor of a similar size
// pops it back without touching ::operator new. Serving forwards construct
// the same tensor shapes batch after batch, so after one warm-up pass the
// pool satisfies every request from the freelists — the steady-state heap
// allocation count is zero, which test_serve asserts with an instrumented
// operator new.
//
// Retained bytes are capped (AXNN_POOL_MAX_MB, default 256; 0 disables
// pooling entirely); blocks freed beyond the cap, and blocks larger than the
// largest size class, go straight back to the heap. The pool is thread-safe
// (one tiny mutex per size class) and intentionally leaked at shutdown so
// tensors with static storage duration can always return their blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace axnn {

namespace detail {
/// Raw block allocation/release backing PoolAllocator. `bytes` may be any
/// size; the pool rounds it up to its size class internally, so free must
/// receive the same `bytes` the matching alloc did (the std::allocator
/// contract already guarantees this).
void* pool_alloc(std::size_t bytes);
void pool_free(void* p, std::size_t bytes) noexcept;
}  // namespace detail

struct BufferPoolStats {
  int64_t hits = 0;          ///< allocations served from a freelist
  int64_t misses = 0;        ///< allocations that reached ::operator new
  int64_t returned = 0;      ///< frees parked on a freelist
  int64_t cached_bytes = 0;  ///< bytes currently parked
  int64_t cap_bytes = 0;     ///< retention cap (AXNN_POOL_MAX_MB)
  double hit_rate() const {
    const int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

BufferPoolStats buffer_pool_stats();
/// Zero the hit/miss/returned counters (warm-up boundaries in tests/benches).
void buffer_pool_reset_stats();
/// Release every parked block back to the heap, and the heap's free pages
/// to the OS where the C library allows it (glibc: malloc_trim). A
/// memory-pressure hook; in-flight tensors are unaffected.
void buffer_pool_trim();

/// Minimal std::allocator replacement routing through the pool. Stateless:
/// all instances are interchangeable, so vectors move across threads freely.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) { return static_cast<T*>(detail::pool_alloc(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) noexcept { detail::pool_free(p, n * sizeof(T)); }

  /// Construction without a value default-initialises, so a vector(n) of
  /// arithmetic T is left uninitialised: every such caller writes each
  /// element before reading it. Constructions with a value (a fill, a copy)
  /// are unchanged.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>&) const noexcept {
    return false;
  }
};

}  // namespace axnn
