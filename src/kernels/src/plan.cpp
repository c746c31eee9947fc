#include "axnn/kernels/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <list>
#include <mutex>
#include <new>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "axnn/kernels/scratch.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/tensor/threadpool.hpp"
#include "internal.hpp"

namespace axnn::kernels {

const char* op_kind_name(OpKind op) {
  switch (op) {
    case OpKind::kApprox:
      return "approx";
    case OpKind::kExactInt:
      return "exact_int";
    default:
      return "f32";
  }
}

// ---------------------------------------------------------------------------
// PlanKey
// ---------------------------------------------------------------------------

bool PlanKey::operator==(const PlanKey& o) const {
  return op == o.op && trans_a == o.trans_a && trans_b == o.trans_b &&
         accumulate == o.accumulate && backend == o.backend && isa == o.isa &&
         m == o.m && k == o.k && n == o.n && lut_fp == o.lut_fp &&
         weight_bits == o.weight_bits && activation_bits == o.activation_bits &&
         multiplier == o.multiplier;
}

std::string PlanKey::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s[%lldx%lldx%lld] %s/%s", op_kind_name(op),
                static_cast<long long>(m), static_cast<long long>(k),
                static_cast<long long>(n), backend_name(backend), isa_name(isa));
  std::string s(buf);
  if (trans_a) s += " tA";
  if (trans_b) s += " tB";
  if (accumulate) s += " acc";
  if (op == OpKind::kApprox) {
    std::snprintf(buf, sizeof(buf), " mul=%s fp=%04x",
                  multiplier.empty() ? "?" : multiplier.c_str(),
                  static_cast<unsigned>(lut_fp & 0xFFFF));
    s += buf;
  }
  if (op != OpKind::kF32) {
    std::snprintf(buf, sizeof(buf), " w%da%d", weight_bits, activation_bits);
    s += buf;
  }
  return s;
}

size_t PlanKeyHash::operator()(const PlanKey& k) const {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<uint64_t>(k.op));
  mix((k.trans_a ? 1u : 0u) | (k.trans_b ? 2u : 0u) | (k.accumulate ? 4u : 0u));
  mix(static_cast<uint64_t>(k.backend));
  mix(static_cast<uint64_t>(k.isa));
  mix(static_cast<uint64_t>(k.m));
  mix(static_cast<uint64_t>(k.k));
  mix(static_cast<uint64_t>(k.n));
  mix(k.lut_fp);
  mix(static_cast<uint64_t>(k.weight_bits) << 8 | static_cast<uint64_t>(k.activation_bits));
  for (const char c : k.multiplier) mix(static_cast<uint8_t>(c));
  return static_cast<size_t>(h);
}

PlanKey make_f32_key(const GemmDesc& desc, int64_t m, int64_t k, int64_t n,
                     Backend backend) {
  PlanKey key;
  key.op = OpKind::kF32;
  key.trans_a = desc.trans_a;
  key.trans_b = desc.trans_b;
  key.accumulate = desc.accumulate;
  key.backend = backend;
  // The float tiers are scalar and AVX2; both give the same bits.
  key.isa = active_isa() == Isa::kAvx2 ? Isa::kAvx2 : Isa::kScalar;
  key.m = m;
  key.k = k;
  key.n = n;
  return key;
}

PlanKey make_int_key(OpKind op, const GemmDesc& desc, int64_t m, int64_t k, int64_t n,
                     Backend backend, const approx::SignedMulTable* tab,
                     int weight_bits, int activation_bits) {
  PlanKey key;
  key.op = op;
  key.trans_a = desc.trans_a;
  key.trans_b = desc.trans_b;
  key.accumulate = desc.accumulate;
  key.backend = backend;
  key.isa = active_isa();
  key.m = m;
  key.k = k;
  key.n = n;
  key.weight_bits = weight_bits;
  key.activation_bits = activation_bits;
  if (op == OpKind::kApprox) {
    if (tab == nullptr)
      throw std::invalid_argument("kernels::make_int_key: approx key needs a table");
    key.multiplier = tab->name();
    key.lut_fp = tab->fingerprint();
  }
  return key;
}

// ---------------------------------------------------------------------------
// GemmPlan
// ---------------------------------------------------------------------------

const char* GemmPlan::kernel_name() const {
  switch (kernel_) {
    case IntKernel::kRows:
      return key_.op == OpKind::kApprox ? "lut-rows" : "exact-rows";
    case IntKernel::kExact:
      return "exact";
    case IntKernel::kLut:
      return "lut";
    case IntKernel::kMasked:
      return "masked";
    default:
      return "-";
  }
}

namespace {

void* alloc_tables(size_t bytes) { return ::operator new(bytes, std::align_val_t{64}); }

void free_tables(void* p) {
  if (p != nullptr) ::operator delete(p, std::align_val_t{64});
}

/// True when this binary carries vector kernels for `isa`.
bool has_vector_kernels(Isa isa) {
#if defined(AXNN_HAVE_AVX2_TU)
  if (isa == Isa::kAvx2) return true;
#endif
#if defined(AXNN_HAVE_NEON_TU)
  if (isa == Isa::kNeon) return true;
#endif
  (void)isa;
  return false;
}

/// Is `t` a truncated partial-product array under sign-magnitude wrapping?
/// Reads one activation mask per weight bit j off the single-bit weight
/// entries (|a| = 127 for bits 0-6, |a| = 128 for bit 7), then checks every
/// entry the kernels read — 256 activations × nibbles 1..15 — against
///   sign(a)·sign(w) · Σ_j w_j·((|a| & mask_j) << j).
/// Exact and every trunc<t> pass; EvoApprox tables and corrupted copies fail.
bool is_truncated_array(const int32_t* t) {
  int masks[4];
  for (int j = 0; j < 4; ++j) {
    const size_t wn = size_t{1} << j;  // +1, +2, +4, and -8 for bit 3
    const int64_t lo = std::abs(static_cast<int64_t>(t[(size_t{127} << 4) | wn])) >> j;
    const int64_t hi = std::abs(static_cast<int64_t>(t[(size_t{0x80} << 4) | wn])) >> j;
    masks[j] = static_cast<int>((lo & 0x7F) | (hi & 0x80));
  }
  for (int a = 0; a < 256; ++a) {
    const int sa = static_cast<int8_t>(a);
    const int ua = std::abs(sa);
    for (int wn = 1; wn < 16; ++wn) {
      const int sw = (wn ^ 8) - 8;
      const int uw = std::abs(sw);
      int32_t p = 0;
      for (int j = 0; j < 4; ++j)
        if ((uw >> j) & 1) p += (ua & masks[j]) << j;
      if ((sa < 0) != (sw < 0)) p = -p;
      if (t[(static_cast<size_t>(a) << 4) | static_cast<size_t>(wn)] != p) return false;
    }
  }
  return true;
}

}  // namespace

GemmPlan::GemmPlan(const PlanKey& key, const approx::SignedMulTable* tab) : key_(key) {
  if (key_.op == OpKind::kF32) {
    tile_ = Tile{detail::kF32Mr, detail::kF32Nr, detail::kF32Mc, detail::kF32Kc,
                 detail::kF32Nc, 0};
    return;
  }
  tile_ = Tile{4, detail::kStrip, 0, 0, 512, detail::kFuse};
  const bool vector = has_vector_kernels(key_.isa);
  if (key_.op == OpKind::kExactInt) {
    kernel_ = vector ? IntKernel::kExact : IntKernel::kRows;
    return;
  }
  if (tab == nullptr)
    throw std::invalid_argument("kernels::GemmPlan: approx plan needs a table");
  const int32_t* t = tab->data();
  if (key_.isa == Isa::kAvx2 && vector && is_truncated_array(t)) {
    // A truncated array's products are additive over the activation's bits:
    // p(a) = p(a & 0x0F) + p(a & 0xF0) for a = |x| <= 128. Bake both parts
    // per weight nibble as 16-entry int8 tables, the high one divided by 16
    // (its entries are multiples of 16), each row twice for vpshufb's lanes.
    kernel_ = IntKernel::kMasked;
    tile_.nr = detail::kMaskedStrip;
    tables_ = alloc_tables(2 * 16 * 32);
    int8_t* lo = static_cast<int8_t*>(tables_);
    int8_t* hi = lo + 16 * 32;
    for (size_t wn = 0; wn < 16; ++wn)
      for (size_t v = 0; v < 16; ++v) {
        // v as the low nibble is activation v; as the high nibble it is
        // 16·v, where v = 8 means |x| = 128, i.e. the byte 0x80 (x = -128).
        const int32_t pl = wn == 0 ? 0 : t[(v << 4) | wn];
        const int32_t ph = wn == 0 || v > 8 ? 0
                           : v == 8        ? -t[(size_t{0x80} << 4) | wn]
                                           : t[((16 * v) << 4) | wn];
        for (size_t lane = 0; lane < 2; ++lane) {
          lo[wn * 32 + lane * 16 + v] = static_cast<int8_t>(pl);
          hi[wn * 32 + lane * 16 + v] = static_cast<int8_t>(ph / 16);
        }
      }
    return;
  }
  // LUT tiers. The vector kernel builds a 16-entry register file per k-step
  // and column strip, which a single-row plan (a depthwise group) cannot
  // amortise: there the scalar slice kernel is up to 3x faster at k <= 36.
  // From two rows on the vector kernel ties or wins (bench_micro_gemm).
  kernel_ = vector && key_.m > 1 ? IntKernel::kLut : IntKernel::kRows;
  int32_t* lut = static_cast<int32_t*>(alloc_tables(16 * 256 * sizeof(int32_t)));
  tables_ = lut;
  for (size_t a = 0; a < 256; ++a)
    for (size_t wn = 0; wn < 16; ++wn) {
      const int32_t v = wn == 0 ? 0 : t[(a << 4) | wn];
      if (kernel_ == IntKernel::kLut)
        lut[a * 16 + wn] = v;  // lines: one 64-byte line per activation byte
      else
        lut[wn * 256 + a] = v;  // slices: one 1 KiB slice per weight nibble
    }
}

GemmPlan::~GemmPlan() { free_tables(tables_); }

void GemmPlan::run(const float* a, const float* b, float* c, ThreadPool* pool) const {
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  const GemmDesc desc{key_.trans_a, key_.trans_b, key_.accumulate};
  detail::blocked_f32(desc, a, b, c, key_.m, key_.k, key_.n, key_.isa, p);
}

size_t GemmPlan::packed_weights_size() const {
  if (key_.op == OpKind::kF32) return 0;
  return static_cast<size_t>(key_.m) * static_cast<size_t>(key_.k);
}

void GemmPlan::pack_weights(const int8_t* w, uint8_t* dst) const {
  const int64_t m = key_.m, k = key_.k;
  const int64_t kf = tile_.kf > 0 ? tile_.kf : 1;
  const bool nibble = key_.op == OpKind::kApprox;
  int64_t kk = 0;
  // Full groups: column-major panels of kf consecutive k-steps, so a row's
  // kf weights for one fused pass are one contiguous kf-byte read.
  for (; kk + kf <= k; kk += kf) {
    uint8_t* group = dst + kk * m;
    for (int64_t i = 0; i < m; ++i) {
      const int8_t* wrow = w + i * k + kk;
      uint8_t* out = group + i * kf;
      for (int64_t f = 0; f < kf; ++f)
        out[f] = nibble ? static_cast<uint8_t>(wrow[f]) & 0xF
                        : static_cast<uint8_t>(wrow[f]);
    }
  }
  // Remainder k-steps: flat column-major, dst[kk*m + i].
  for (; kk < k; ++kk) {
    uint8_t* col = dst + kk * m;
    for (int64_t i = 0; i < m; ++i)
      col[i] = nibble ? static_cast<uint8_t>(w[i * k + kk]) & 0xF
                      : static_cast<uint8_t>(w[i * k + kk]);
  }
}

void GemmPlan::run_int(const int8_t* w, const int8_t* x, int32_t* c,
                       ThreadPool* pool) const {
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  const int64_t m = key_.m, k = key_.k, n = key_.n;
  const bool acc = key_.accumulate;
  if (kernel_ == IntKernel::kRows) {
    // Scalar kernels consume the row-major weights directly — no packing.
    if (key_.op == OpKind::kApprox)
      detail::blocked_approx_scalar(w, x, c, m, k, n, static_cast<const int32_t*>(tables_),
                                    acc, p);
    else
      detail::blocked_exact_scalar(w, x, c, m, k, n, acc, p);
    return;
  }
  // Vector kernels: pack the weights once (per-thread arena, no heap), then
  // partition output columns over strips. Column-strip partitioning keeps
  // every output element's full reduction inside one task, so results are
  // bit-identical across thread counts. The constructor picks a vector tier
  // only for an ISA whose kernels this binary carries.
  uint8_t* wq = scratch<uint8_t>(ScratchSlot::kWeights, packed_weights_size());
  pack_weights(w, wq);
  const int64_t strip = tile_.nr;
  const int64_t nstrips = (n + strip - 1) / strip;
  p.parallel_for(
      nstrips,
      [&](int64_t s0, int64_t s1) {
        const int64_t j0 = s0 * strip;
        const int64_t j1 = std::min(n, s1 * strip);
#if defined(AXNN_HAVE_AVX2_TU)
        if (key_.isa == Isa::kAvx2) {
          if (kernel_ == IntKernel::kMasked)
            detail::avx2_masked_cols(wq, x, c, m, k, n, static_cast<const int8_t*>(tables_),
                                     acc, j0, j1);
          else if (kernel_ == IntKernel::kLut)
            detail::avx2_approx_cols(wq, x, c, m, k, n, static_cast<const int32_t*>(tables_),
                                     acc, j0, j1);
          else
            detail::avx2_exact_cols(wq, x, c, m, k, n, acc, j0, j1);
        }
#endif
#if defined(AXNN_HAVE_NEON_TU)
        if (key_.isa == Isa::kNeon) {
          if (kernel_ == IntKernel::kLut)
            detail::neon_approx_cols(wq, x, c, m, k, n, static_cast<const int32_t*>(tables_),
                                     acc, j0, j1);
          else
            detail::neon_exact_cols(wq, x, c, m, k, n, acc, j0, j1);
        }
#endif
      },
      detail::strip_grain(m, k, strip));
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

namespace {

void count_cache_event(const char* metric) {
  if (obs::enabled()) obs::collector()->add("kernels", metric, 1.0);
}

}  // namespace

struct PlanCache::Impl {
  mutable std::mutex mu;
  size_t capacity;
  /// Front = most recently used. The map holds iterators into the list.
  std::list<std::pair<PlanKey, PlanHandle>> lru;
  std::unordered_map<PlanKey, std::list<std::pair<PlanKey, PlanHandle>>::iterator,
                     PlanKeyHash>
      map;
  int64_t hits = 0, misses = 0, evictions = 0;
  /// PlanMemo front-side hits, folded into stats().hits (relaxed: counters
  /// only — no ordering requirement against the map).
  std::atomic<int64_t> memo_hits{0};

  void evict_over_capacity() {
    while (lru.size() > capacity) {
      map.erase(lru.back().first);
      lru.pop_back();
      ++evictions;
      count_cache_event("plan_cache.evict");
    }
  }
};

PlanCache::PlanCache(size_t capacity) : impl_(new Impl) {
  impl_->capacity = capacity > 0 ? capacity : 1;
}

PlanCache::~PlanCache() = default;

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

PlanHandle PlanCache::acquire(const PlanKey& key, const approx::SignedMulTable* tab) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  const auto it = impl_->map.find(key);
  if (it != impl_->map.end()) {
    impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
    ++impl_->hits;
    count_cache_event("plan_cache.hit");
    return it->second->second;
  }
  ++impl_->misses;
  count_cache_event("plan_cache.miss");
  PlanHandle handle(new GemmPlan(key, tab));
  impl_->lru.emplace_front(key, handle);
  impl_->map.emplace(key, impl_->lru.begin());
  impl_->evict_over_capacity();
  return handle;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  PlanCacheStats s;
  s.hits = impl_->hits + impl_->memo_hits.load(std::memory_order_relaxed);
  s.misses = impl_->misses;
  s.evictions = impl_->evictions;
  s.size = static_cast<int64_t>(impl_->lru.size());
  s.capacity = static_cast<int64_t>(impl_->capacity);
  return s;
}

void PlanCache::reset_stats() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->hits = impl_->misses = impl_->evictions = 0;
  impl_->memo_hits.store(0, std::memory_order_relaxed);
}

void PlanCache::note_memo_hit() {
  impl_->memo_hits.fetch_add(1, std::memory_order_relaxed);
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->map.clear();
  impl_->lru.clear();
}

void PlanCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->capacity = capacity > 0 ? capacity : 1;
  impl_->evict_over_capacity();
}

// ---------------------------------------------------------------------------
// PlanMemo
// ---------------------------------------------------------------------------

const PlanHandle& PlanMemo::find_or_acquire(const PlanKey& key,
                                            const approx::SignedMulTable* tab) {
  for (Entry& e : slots_)
    if (e.handle != nullptr && e.key == key) {
      PlanCache::global().note_memo_hit();
      return e.handle;
    }
  Entry& e = slots_[next_];
  next_ = (next_ + 1) % kSlots;
  e.handle = PlanCache::global().acquire(key, tab);
  e.key = key;
  return e.handle;
}

void PlanMemo::clear() {
  for (Entry& e : slots_) {
    e.handle.reset();
    e.key = PlanKey{};
  }
  next_ = 0;
}

std::vector<PlanHandle> PlanMemo::plans() const {
  std::vector<PlanHandle> out;
  // Walk in fill order: oldest surviving slot first, most recent last.
  for (size_t i = 0; i < kSlots; ++i) {
    const Entry& e = slots_[(next_ + i) % kSlots];
    if (e.handle != nullptr) out.push_back(e.handle);
  }
  return out;
}

}  // namespace axnn::kernels
