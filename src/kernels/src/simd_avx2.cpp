// axnn — AVX2 GEMM kernels: the int tiers and the float tier of the blocked
// f32 kernel (last section). This TU is compiled with -mavx2 (never -mfma)
// and must only be *called* after a runtime CPU check (Isa::kAvx2 active).
//
// Bit-identity contract: every output element accumulates exactly the same
// multiset of int32 terms as the naive reference kernel. int32 addition is
// associative and commutative (wrap-around), so reordering is bit-exact; the
// zero-weight skip of the naive kernel is reproduced by zeroing the nibble-0
// column of the transposed LUT and the nibble-0 rows of the closed-form
// tables (approx) / multiplying by literal 0 (exact). The closed form sums
// its products in int16 first, exactly (see avx2_masked_cols).
//
// Two approximate kernels:
//   masked — the table is a truncated partial-product array (verified at plan
//            prepare time). Its products are additive over the activation's
//            bits, so each splits into a low-nibble and a high-nibble part:
//            per k-step one 32-byte activation load yields the nibble indices
//            of |x| (abs/and/shift), and every row looks its two parts up
//            with vpshufb in 16-entry byte tables of its weight nibble,
//            applies the sign and joins them with vpmaddubsw, in int16.
//   LUT    — any table: the plan stores it transposed as 256 activation lines
//            of 16 int32 (one 64-byte cache line each); a k-step's 16-entry
//            nibble→product register file R is built from plain aligned
//            loads plus in-register 8×8 int32 transposes, then every row
//            does one load and one add. No vpgatherdd (slow on the
//            virtualized cores we target).
#include "internal.hpp"

#if defined(AXNN_HAVE_AVX2_TU)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace axnn::kernels::detail {

namespace {

/// Transpose 8 rows of 8 int32 held in r[0..7], in registers.
inline void transpose8(__m256i r[8]) {
  __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

/// Build R[16][8] — per-nibble product vectors for 8 activation bytes — from
/// the transposed LUT: 16 aligned line loads + two 8×8 transposes, no
/// gathers. `lines` is 64-byte aligned, line a = products of activation a
/// against nibbles 0..15 (nibble 0 zeroed).
inline void build_r8(const int32_t* lines, const int8_t* xr, int32_t* rout) {
  __m256i lo[8], hi[8];
  for (int j = 0; j < 8; ++j) {
    const int32_t* line = lines + static_cast<size_t>(static_cast<uint8_t>(xr[j])) * 16;
    lo[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(line));
    hi[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(line + 8));
  }
  transpose8(lo);
  transpose8(hi);
  for (int wn = 0; wn < 8; ++wn) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(rout + wn * 8), lo[wn]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(rout + (wn + 8) * 8), hi[wn]);
  }
}

constexpr int64_t F = kFuse;
static_assert(kStrip == 16, "strip geometry baked into the kernels below");

}  // namespace

void avx2_masked_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                      int64_t k, int64_t n, const int8_t* tables, bool accumulate,
                      int64_t j0, int64_t j1) {
  static_assert(kMaskedStrip == 32, "one 32-byte activation load per k-step");
  const __m256i* tlo = reinterpret_cast<const __m256i*>(tables);
  const __m256i* thi = tlo + 16;
  const __m256i low4 = _mm256_set1_epi8(0x0F);
  const __m256i one_sixteen = _mm256_set1_epi16(0x1001);  // bytes (1, 16) per pair
  // Per fused step: the activation bytes (for their signs) and the nibble
  // indices of |x|. The last strip of a column range may be narrower than
  // 32: its activations go through a zero-padded copy.
  __m256i xs[F], lo[F], hi[F];
  alignas(32) int8_t xpad[kMaskedStrip];
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (int64_t jj = j0; jj < j1; jj += kMaskedStrip) {
    const int64_t width = std::min(kMaskedStrip, j1 - jj);
    const bool full = width == kMaskedStrip;
    // A narrow strip updates C through lane masks (columns < width).
    __m256i cmask[4];
    for (int q = 0; q < 4; ++q)
      cmask[q] = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(width) - 8 * q), lane);
    if (!accumulate)
      for (int64_t i = 0; i < m; ++i)
        std::memset(c + i * n + jj, 0, static_cast<size_t>(width) * sizeof(int32_t));
    for (int64_t kk = 0; kk < k; kk += F) {
      const int64_t g = std::min(F, k - kk);
      for (int64_t f = 0; f < g; ++f) {
        const int8_t* xr = x + (kk + f) * n + jj;
        if (!full) {
          std::memset(xpad, 0, sizeof(xpad));
          std::memcpy(xpad, xr, static_cast<size_t>(width));
          xr = xpad;
        }
        xs[f] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xr));
        const __m256i ax = _mm256_abs_epi8(xs[f]);  // |-128| = 0x80, read unsigned
        lo[f] = _mm256_and_si256(ax, low4);
        hi[f] = _mm256_and_si256(_mm256_srli_epi16(ax, 4), low4);
      }
      // Full groups are [m][kFuse] panels; remainder k-steps are flat
      // columns wq[kk*m + i] (GemmPlan::pack_weights).
      const uint8_t* wg = wq + kk * m;
      const int64_t wstride = g == F ? 1 : m;
      for (int64_t i = 0; i < m; ++i) {
        const uint8_t* w = g == F ? wg + i * F : wg + i;
        // Per step, |lo part| <= 120 and |hi part| <= 64 as int8; vpmaddubsw
        // joins each column's pair into lo + 16·hi = the signed product
        // (|·| <= 1024). kFuse of them sum exactly in int16 (|·| <= 8192).
        __m256i s0 = _mm256_setzero_si256(), s1 = _mm256_setzero_si256();
        for (int64_t f = 0; f < g; ++f) {
          const uint8_t wn = w[f * wstride];
          const __m256i pl = _mm256_sign_epi8(_mm256_shuffle_epi8(tlo[wn], lo[f]), xs[f]);
          const __m256i ph = _mm256_sign_epi8(_mm256_shuffle_epi8(thi[wn], hi[f]), xs[f]);
          s0 = _mm256_add_epi16(s0, _mm256_maddubs_epi16(one_sixteen,
                                                         _mm256_unpacklo_epi8(pl, ph)));
          s1 = _mm256_add_epi16(s1, _mm256_maddubs_epi16(one_sixteen,
                                                         _mm256_unpackhi_epi8(pl, ph)));
        }
        // The in-lane unpacks leave s0 = columns 0-7 | 16-23, s1 = 8-15 | 24-31.
        int32_t* cr = c + i * n + jj;
        const __m128i parts[4] = {_mm256_castsi256_si128(s0), _mm256_castsi256_si128(s1),
                                  _mm256_extracti128_si256(s0, 1),
                                  _mm256_extracti128_si256(s1, 1)};
        for (int q = 0; q < 4 && 8 * q < width; ++q) {
          int32_t* d = cr + 8 * q;
          const __m256i p = _mm256_cvtepi16_epi32(parts[q]);
          if (full)
            _mm256_storeu_si256(
                reinterpret_cast<__m256i*>(d),
                _mm256_add_epi32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(d)), p));
          else
            _mm256_maskstore_epi32(d, cmask[q],
                                   _mm256_add_epi32(_mm256_maskload_epi32(d, cmask[q]), p));
        }
      }
    }
  }
}

void avx2_approx_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                      int64_t k, int64_t n, const int32_t* lines, bool accumulate,
                      int64_t j0, int64_t j1) {
  alignas(64) int32_t R[F][16 * 16];  // [f][wn*8 .. | 16*8 + wn*8 ..] lo/hi halves
  const int64_t kmain = k - k % F;
  int64_t jj = j0;
  // --- 16-column strips ---
  for (; jj + 16 <= j1; jj += 16) {
    if (!accumulate)
      for (int64_t i = 0; i < m; ++i) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + i * n + jj),
                            _mm256_setzero_si256());
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + i * n + jj + 8),
                            _mm256_setzero_si256());
      }
    int64_t kk = 0;
    for (; kk < kmain; kk += F) {
      for (int64_t f = 0; f < F; ++f) {
        build_r8(lines, x + (kk + f) * n + jj, R[f]);
        build_r8(lines, x + (kk + f) * n + jj + 8, R[f] + 16 * 8);
      }
      const uint8_t* wg = wq + kk * m;  // F-group base: groups are contiguous
      for (int64_t i = 0; i < m; ++i) {
        const uint8_t* wn = wg + i * F;
        int32_t* cr = c + i * n + jj;
        __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr));
        __m256i a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr + 8));
        for (int64_t f = 0; f < F; ++f) {
          const size_t o = static_cast<size_t>(wn[f]) * 8;
          a0 = _mm256_add_epi32(
              a0, _mm256_load_si256(reinterpret_cast<const __m256i*>(R[f] + o)));
          a1 = _mm256_add_epi32(
              a1, _mm256_load_si256(reinterpret_cast<const __m256i*>(R[f] + 16 * 8 + o)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr), a0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr + 8), a1);
      }
    }
    for (; kk < k; ++kk) {  // k remainder: flat column layout wq[kk*m + i]
      build_r8(lines, x + kk * n + jj, R[0]);
      build_r8(lines, x + kk * n + jj + 8, R[0] + 16 * 8);
      const uint8_t* wcol = wq + kk * m;
      for (int64_t i = 0; i < m; ++i) {
        int32_t* cr = c + i * n + jj;
        const size_t o = static_cast<size_t>(wcol[i]) * 8;
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(cr),
            _mm256_add_epi32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr)),
                             _mm256_load_si256(reinterpret_cast<const __m256i*>(R[0] + o))));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(cr + 8),
            _mm256_add_epi32(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr + 8)),
                _mm256_load_si256(reinterpret_cast<const __m256i*>(R[0] + 16 * 8 + o))));
      }
    }
  }
  // --- one 8-column strip if at least 8 columns remain ---
  if (jj + 8 <= j1) {
    if (!accumulate)
      for (int64_t i = 0; i < m; ++i)
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + i * n + jj),
                            _mm256_setzero_si256());
    int64_t kk = 0;
    for (; kk < kmain; kk += F) {
      for (int64_t f = 0; f < F; ++f) build_r8(lines, x + (kk + f) * n + jj, R[f]);
      const uint8_t* wg = wq + kk * m;
      for (int64_t i = 0; i < m; ++i) {
        const uint8_t* wn = wg + i * F;
        int32_t* cr = c + i * n + jj;
        __m256i acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr));
        for (int64_t f = 0; f < F; ++f)
          acc = _mm256_add_epi32(acc, _mm256_load_si256(reinterpret_cast<const __m256i*>(
                                          R[f] + static_cast<size_t>(wn[f]) * 8)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr), acc);
      }
    }
    for (; kk < k; ++kk) {
      build_r8(lines, x + kk * n + jj, R[0]);
      const uint8_t* wcol = wq + kk * m;
      for (int64_t i = 0; i < m; ++i) {
        int32_t* cr = c + i * n + jj;
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(cr),
            _mm256_add_epi32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr)),
                             _mm256_load_si256(reinterpret_cast<const __m256i*>(
                                 R[0] + static_cast<size_t>(wcol[i]) * 8))));
      }
    }
    jj += 8;
  }
  // --- scalar tail (< 8 columns) ---
  for (; jj < j1; ++jj) {
    for (int64_t i = 0; i < m; ++i) {
      int32_t acc = accumulate ? c[i * n + jj] : 0;
      int64_t kk = 0;
      for (; kk < kmain; kk += F) {
        const uint8_t* wn = wq + kk * m + i * F;
        for (int64_t f = 0; f < F; ++f)
          acc += lines[static_cast<size_t>(static_cast<uint8_t>(x[(kk + f) * n + jj])) * 16 +
                       wn[f]];
      }
      for (; kk < k; ++kk)
        acc += lines[static_cast<size_t>(static_cast<uint8_t>(x[kk * n + jj])) * 16 +
                     wq[kk * m + i]];
      c[i * n + jj] = acc;
    }
  }
}

void avx2_exact_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                     int64_t k, int64_t n, bool accumulate, int64_t j0, int64_t j1) {
  // Packed weights hold raw int8 bytes in the same F-group layout. Per fused
  // pass the 16-column activation strip is sign-extended once into XS, then
  // each row broadcasts its F weights and runs mullo+add — products are the
  // same int32 values the naive kernel computes (|w|,|x| ≤ 2^7 so no wrap in
  // the multiply itself), and a zero weight contributes exactly 0.
  alignas(64) int32_t XS[F][16];
  const int64_t kmain = k - k % F;
  int64_t jj = j0;
  for (; jj + 16 <= j1; jj += 16) {
    if (!accumulate)
      for (int64_t i = 0; i < m; ++i) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + i * n + jj),
                            _mm256_setzero_si256());
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + i * n + jj + 8),
                            _mm256_setzero_si256());
      }
    int64_t kk = 0;
    for (; kk < kmain; kk += F) {
      for (int64_t f = 0; f < F; ++f) {
        const __m128i bytes =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + (kk + f) * n + jj));
        _mm256_store_si256(reinterpret_cast<__m256i*>(XS[f]),
                           _mm256_cvtepi8_epi32(bytes));
        _mm256_store_si256(reinterpret_cast<__m256i*>(XS[f] + 8),
                           _mm256_cvtepi8_epi32(_mm_srli_si128(bytes, 8)));
      }
      const uint8_t* wg = wq + kk * m;
      for (int64_t i = 0; i < m; ++i) {
        const uint8_t* wn = wg + i * F;
        int32_t* cr = c + i * n + jj;
        __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr));
        __m256i a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr + 8));
        for (int64_t f = 0; f < F; ++f) {
          const __m256i wv = _mm256_set1_epi32(static_cast<int8_t>(wn[f]));
          a0 = _mm256_add_epi32(
              a0, _mm256_mullo_epi32(
                      wv, _mm256_load_si256(reinterpret_cast<const __m256i*>(XS[f]))));
          a1 = _mm256_add_epi32(
              a1, _mm256_mullo_epi32(
                      wv, _mm256_load_si256(reinterpret_cast<const __m256i*>(XS[f] + 8))));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr), a0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr + 8), a1);
      }
    }
    for (; kk < k; ++kk) {
      const __m128i bytes =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + kk * n + jj));
      const __m256i x0 = _mm256_cvtepi8_epi32(bytes);
      const __m256i x1 = _mm256_cvtepi8_epi32(_mm_srli_si128(bytes, 8));
      const uint8_t* wcol = wq + kk * m;
      for (int64_t i = 0; i < m; ++i) {
        int32_t* cr = c + i * n + jj;
        const __m256i wv = _mm256_set1_epi32(static_cast<int8_t>(wcol[i]));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(cr),
            _mm256_add_epi32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr)),
                             _mm256_mullo_epi32(wv, x0)));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(cr + 8),
            _mm256_add_epi32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr + 8)),
                             _mm256_mullo_epi32(wv, x1)));
      }
    }
  }
  // --- scalar tail (< 16 columns) ---
  for (; jj < j1; ++jj) {
    for (int64_t i = 0; i < m; ++i) {
      int32_t acc = accumulate ? c[i * n + jj] : 0;
      int64_t kk = 0;
      for (; kk < kmain; kk += F) {
        const uint8_t* wn = wq + kk * m + i * F;
        for (int64_t f = 0; f < F; ++f)
          acc += static_cast<int32_t>(static_cast<int8_t>(wn[f])) * x[(kk + f) * n + jj];
      }
      for (; kk < k; ++kk)
        acc += static_cast<int32_t>(static_cast<int8_t>(wq[kk * m + i])) * x[kk * n + jj];
      c[i * n + jj] = acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Float tier of blocked_f32: the scalar tier's packing layout and tiles, with
// the MR rows of a tile as MR ymm accumulators of NR = 8 lanes. Each lane
// does acc = acc + a·b per k-step, a separate multiply then add (this TU
// has no -mfma), from a zero start, so it rounds exactly where the scalar
// micro-kernel does.
// ---------------------------------------------------------------------------

namespace {

constexpr int64_t MR = kF32Mr;
constexpr int64_t NR = kF32Nr;
static_assert(NR == 8, "one ymm per packed B row");
static_assert(MR == 4, "one xmm per packed A row");

/// In-lane 4×4 transposes: lane h of out[q] holds element q of lane h of
/// in[0..3].
inline void transpose4_lanes(const __m256 in[4], __m256 out[4]) {
  const __m256 t0 = _mm256_unpacklo_ps(in[0], in[1]);
  const __m256 t1 = _mm256_unpackhi_ps(in[0], in[1]);
  const __m256 t2 = _mm256_unpacklo_ps(in[2], in[3]);
  const __m256 t3 = _mm256_unpackhi_ps(in[2], in[3]);
  out[0] = _mm256_shuffle_ps(t0, t2, 0x44);
  out[1] = _mm256_shuffle_ps(t0, t2, 0xEE);
  out[2] = _mm256_shuffle_ps(t1, t3, 0x44);
  out[3] = _mm256_shuffle_ps(t1, t3, 0xEE);
}

/// Four floats at p, or zeros for a row past the edge (p == nullptr).
inline __m128 load4(const float* p) { return p != nullptr ? _mm_loadu_ps(p) : _mm_setzero_ps(); }

/// Pack 8 k-steps of 8 rows of a transposed operand: rows[jj] + kk is the
/// jj-th row's run of k-steps (nullptr = zero padding), out gets k-step q's
/// 8 values at out + q * 8. The halves are loaded straight into their lanes,
/// so the transpose is two in-lane 4×4 transposes.
inline void pack_8x8(const float* const rows[8], int64_t kk, float* out) {
  for (int64_t half = 0; half < 2; ++half) {
    __m256 in[4], tr[4];
    for (int64_t q = 0; q < 4; ++q) {
      const float* lo = rows[q] != nullptr ? rows[q] + kk + 4 * half : nullptr;
      const float* hi = rows[q + 4] != nullptr ? rows[q + 4] + kk + 4 * half : nullptr;
      in[q] = _mm256_insertf128_ps(_mm256_castps128_ps256(load4(lo)), load4(hi), 1);
    }
    transpose4_lanes(in, tr);
    for (int64_t q = 0; q < 4; ++q) _mm256_storeu_ps(out + (4 * half + q) * 8, tr[q]);
  }
}

/// Rows [0, mr) and columns [0, nr) of one tile into C: stored, or added as
/// c + acc (the scalar tier's `c += acc`). The row loop is unrolled so every
/// acc[r] has a constant index and the accumulators stay in registers
/// through the k loop.
inline void store_tile(const __m256 (&acc)[MR], float* c, int64_t ldc, int64_t mr,
                       int64_t nr, bool store) {
#pragma GCC unroll 4
  for (int64_t r = 0; r < MR; ++r) {
    if (r >= mr) break;
    float* crow = c + r * ldc;
    if (nr == NR) {
      _mm256_storeu_ps(crow, store ? acc[r] : _mm256_add_ps(_mm256_loadu_ps(crow), acc[r]));
    } else {
      alignas(32) float tmp[NR];
      _mm256_store_ps(tmp, acc[r]);
      for (int64_t j = 0; j < nr; ++j) crow[j] = store ? tmp[j] : crow[j] + tmp[j];
    }
  }
}

}  // namespace

void avx2_pack_a_f32(float* dst, const float* a, bool trans, int64_t m, int64_t k,
                     int64_t i0, int64_t mc, int64_t kb, int64_t kc) {
  for (int64_t s = 0; s < mc; s += MR, dst += kc * MR) {
    const int64_t i = i0 + s;
    const int64_t mr = std::min(MR, mc - s);
    if (trans) {
      // op(A) row i is column i of A: a strip's MR values are contiguous.
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float* src = a + (kb + kk) * m + i;
        if (mr == MR) {
          _mm_storeu_ps(dst + kk * MR, _mm_loadu_ps(src));
        } else {
          for (int64_t r = 0; r < MR; ++r) dst[kk * MR + r] = r < mr ? src[r] : 0.0f;
        }
      }
      continue;
    }
    // MR rows × 8 k-steps in; each in-lane transpose yields k-steps q and
    // q + 4 of all MR rows.
    const float* rows[MR];
    for (int64_t r = 0; r < MR; ++r) rows[r] = r < mr ? a + (i + r) * k + kb : nullptr;
    int64_t kk = 0;
    for (; kk + 8 <= kc; kk += 8) {
      __m256 in[MR], tr[MR];
      for (int64_t r = 0; r < MR; ++r)
        in[r] = rows[r] != nullptr ? _mm256_loadu_ps(rows[r] + kk) : _mm256_setzero_ps();
      transpose4_lanes(in, tr);
      for (int64_t q = 0; q < 4; ++q) {
        _mm_storeu_ps(dst + (kk + q) * MR, _mm256_castps256_ps128(tr[q]));
        _mm_storeu_ps(dst + (kk + q + 4) * MR, _mm256_extractf128_ps(tr[q], 1));
      }
    }
    for (; kk < kc; ++kk)
      for (int64_t r = 0; r < MR; ++r) dst[kk * MR + r] = rows[r] != nullptr ? rows[r][kk] : 0.0f;
  }
}

void avx2_pack_b_f32(float* dst, const float* b, bool trans, int64_t k, int64_t n,
                     int64_t kb, int64_t kc, int64_t jc, int64_t nc) {
  for (int64_t t = 0; t < nc; t += NR, dst += kc * NR) {
    const int64_t j = jc + t;
    const int64_t nr = std::min(NR, nc - t);
    if (!trans) {
      if (nr == NR) {
        for (int64_t kk = 0; kk < kc; ++kk)
          _mm256_storeu_ps(dst + kk * NR, _mm256_loadu_ps(b + (kb + kk) * n + j));
      } else {
        for (int64_t kk = 0; kk < kc; ++kk)
          for (int64_t jj = 0; jj < NR; ++jj)
            dst[kk * NR + jj] = jj < nr ? b[(kb + kk) * n + j + jj] : 0.0f;
      }
      continue;
    }
    // The weight-gradient layout: op(B) column j is row j of B, so a strip
    // is 8 rows of B transposed (rows past the edge pack as zeros).
    const float* rows[NR];
    for (int64_t jj = 0; jj < NR; ++jj) rows[jj] = jj < nr ? b + (j + jj) * k + kb : nullptr;
    int64_t kk = 0;
    for (; kk + 8 <= kc; kk += 8) pack_8x8(rows, kk, dst + kk * NR);
    for (; kk < kc; ++kk)
      for (int64_t jj = 0; jj < NR; ++jj)
        dst[kk * NR + jj] = rows[jj] != nullptr ? rows[jj][kk] : 0.0f;
  }
}

void avx2_block_f32(const float* apack, const float* bpack, int64_t mc, int64_t nc,
                    int64_t kc, float* c, int64_t ldc, bool store) {
  for (int64_t s = 0; s < mc; s += MR) {
    const int64_t mr = std::min(MR, mc - s);
    const float* ap = apack + s * kc;
    float* cs = c + s * ldc;
    int64_t t = 0;
    // Two strips at a time while a second one exists: 2·MR independent
    // accumulators hide the add latency.
    for (; t + NR < nc; t += 2 * NR) {
      const float* b0 = bpack + t * kc;
      const float* b1 = b0 + kc * NR;
      __m256 acc0[MR], acc1[MR];
      for (int64_t r = 0; r < MR; ++r) acc0[r] = acc1[r] = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < kc; ++kk) {
        const __m256 bv0 = _mm256_loadu_ps(b0 + kk * NR);
        const __m256 bv1 = _mm256_loadu_ps(b1 + kk * NR);
        for (int64_t r = 0; r < MR; ++r) {
          const __m256 av = _mm256_broadcast_ss(ap + kk * MR + r);
          acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, bv0));
          acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, bv1));
        }
      }
      store_tile(acc0, cs + t, ldc, mr, NR, store);
      store_tile(acc1, cs + t + NR, ldc, mr, std::min(NR, nc - t - NR), store);
    }
    for (; t < nc; t += NR) {
      const float* b0 = bpack + t * kc;
      __m256 acc[MR];
      for (int64_t r = 0; r < MR; ++r) acc[r] = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < kc; ++kk) {
        const __m256 bv = _mm256_loadu_ps(b0 + kk * NR);
        for (int64_t r = 0; r < MR; ++r)
          acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(_mm256_broadcast_ss(ap + kk * MR + r), bv));
      }
      store_tile(acc, cs + t, ldc, mr, std::min(NR, nc - t), store);
    }
  }
}

}  // namespace axnn::kernels::detail

#endif  // AXNN_HAVE_AVX2_TU
