// axnn — saturating float -> int quantize loops (scalar reference, SSE2 and
// AVX2).
//
// Every path computes v = x * (1 / step), maps NaN to 0, clamps v to
// [qmin, qmax] *in float* and only then converts with round-half-to-even.
// Clamping first is what makes the conversion saturating: cvtps2dq (and
// lrintf) return INT32_MIN for anything outside the int32 range, which a
// clamp applied afterwards turns into qmin even for huge positive inputs.
// Because qmin/qmax are integers, clamp-then-round equals round-then-clamp
// for every finite v, i.e. the result is fake_quantize(x) / step.
//
// The vector paths rely on the default MXCSR rounding mode (nearest-even),
// the same mode std::nearbyintf uses in the scalar loop.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "axnn/quant/quantizer.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define AXNN_QUANT_X86 1
#endif

namespace axnn::quant {

namespace {

struct Bounds {
  float inv, lo, hi;
  explicit Bounds(const QuantParams& p)
      : inv(1.0f / p.step), lo(static_cast<float>(p.qmin())), hi(static_cast<float>(p.qmax())) {}
};

inline int32_t quantize_one(float x, const Bounds& b) {
  const float v = x * b.inv;
  if (std::isnan(v)) return 0;
  return static_cast<int32_t>(std::nearbyintf(std::min(std::max(v, b.lo), b.hi)));
}

template <typename Out>
void scalar_loop(const float* x, int64_t n, const Bounds& b, Out* q) {
  for (int64_t i = 0; i < n; ++i) q[i] = static_cast<Out>(quantize_one(x[i], b));
}

void require_int8(const QuantParams& p) {
  if (p.bits > 8) throw std::invalid_argument("quantize_into: int8 output needs bits <= 8");
}

#if defined(AXNN_QUANT_X86)

// ---- SSE2 (x86-64 baseline) -------------------------------------------------

inline __m128i sse2_quantize4(const float* x, __m128 inv, __m128 lo, __m128 hi) {
  __m128 v = _mm_mul_ps(_mm_loadu_ps(x), inv);
  v = _mm_and_ps(v, _mm_cmpord_ps(v, v));  // NaN -> +0
  v = _mm_min_ps(_mm_max_ps(v, lo), hi);
  return _mm_cvtps_epi32(v);
}

int64_t sse2_loop(const float* x, int64_t n, const Bounds& b, int32_t* q) {
  const __m128 inv = _mm_set1_ps(b.inv), lo = _mm_set1_ps(b.lo), hi = _mm_set1_ps(b.hi);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i), sse2_quantize4(x + i, inv, lo, hi));
  return i;
}

int64_t sse2_loop(const float* x, int64_t n, const Bounds& b, int8_t* q) {
  const __m128 inv = _mm_set1_ps(b.inv), lo = _mm_set1_ps(b.lo), hi = _mm_set1_ps(b.hi);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // Values are already inside [-127, 127], so the saturating packs are
    // plain narrowing here.
    const __m128i a = _mm_packs_epi32(sse2_quantize4(x + i, inv, lo, hi),
                                      sse2_quantize4(x + i + 4, inv, lo, hi));
    const __m128i c = _mm_packs_epi32(sse2_quantize4(x + i + 8, inv, lo, hi),
                                      sse2_quantize4(x + i + 12, inv, lo, hi));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i), _mm_packs_epi16(a, c));
  }
  return i;
}

// ---- AVX2 (runtime-detected; compiled through the target attribute) -------

#if defined(__GNUC__) || defined(__clang__)
#define AXNN_QUANT_AVX2 1

bool cpu_has_avx2() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

__attribute__((target("avx2"))) inline __m256i avx2_quantize8(const float* x, __m256 inv,
                                                              __m256 lo, __m256 hi) {
  __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x), inv);
  v = _mm256_and_ps(v, _mm256_cmp_ps(v, v, _CMP_ORD_Q));  // NaN -> +0
  v = _mm256_min_ps(_mm256_max_ps(v, lo), hi);
  return _mm256_cvtps_epi32(v);
}

__attribute__((target("avx2"))) int64_t avx2_loop(const float* x, int64_t n, const Bounds& b,
                                                  int32_t* q) {
  const __m256 inv = _mm256_set1_ps(b.inv), lo = _mm256_set1_ps(b.lo),
               hi = _mm256_set1_ps(b.hi);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i), avx2_quantize8(x + i, inv, lo, hi));
  return i;
}

__attribute__((target("avx2"))) int64_t avx2_loop(const float* x, int64_t n, const Bounds& b,
                                                  int8_t* q) {
  const __m256 inv = _mm256_set1_ps(b.inv), lo = _mm256_set1_ps(b.lo),
               hi = _mm256_set1_ps(b.hi);
  // The packs work per 128-bit lane: dwords come out as
  // [a0 b0 c0 d0 | a1 b1 c1 d1] (each a 4-byte group); this permutation
  // restores a0 a1 b0 b1 c0 c1 d0 d1.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i ab = _mm256_packs_epi32(avx2_quantize8(x + i, inv, lo, hi),
                                          avx2_quantize8(x + i + 8, inv, lo, hi));
    const __m256i cd = _mm256_packs_epi32(avx2_quantize8(x + i + 16, inv, lo, hi),
                                          avx2_quantize8(x + i + 24, inv, lo, hi));
    const __m256i bytes = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(ab, cd), order);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i), bytes);
  }
  return i;
}
#endif  // GNUC / clang

#endif  // AXNN_QUANT_X86

template <typename Out>
void vector_loop(const float* x, int64_t n, const Bounds& b, Out* q) {
  int64_t done = 0;
#if defined(AXNN_QUANT_AVX2)
  if (cpu_has_avx2()) done = avx2_loop(x, n, b, q);
#endif
#if defined(AXNN_QUANT_X86)
  done += sse2_loop(x + done, n - done, b, q + done);
#endif
  scalar_loop(x + done, n - done, b, q + done);
}

}  // namespace

void quantize_into(const float* x, int64_t n, const QuantParams& p, int32_t* q) {
  vector_loop(x, n, Bounds(p), q);
}

void quantize_into(const float* x, int64_t n, const QuantParams& p, int8_t* q) {
  require_int8(p);
  vector_loop(x, n, Bounds(p), q);
}

namespace detail {

void quantize_scalar(const float* x, int64_t n, const QuantParams& p, int32_t* q) {
  scalar_loop(x, n, Bounds(p), q);
}

void quantize_scalar(const float* x, int64_t n, const QuantParams& p, int8_t* q) {
  require_int8(p);
  scalar_loop(x, n, Bounds(p), q);
}

}  // namespace detail

}  // namespace axnn::quant
