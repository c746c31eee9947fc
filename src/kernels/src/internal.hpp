// axnn — kernels-module internal interfaces shared between the dispatch
// TUs (gemm_f32.cpp, int_gemm.cpp, plan.cpp) and the per-ISA kernel TUs
// (simd_avx2.cpp, simd_neon.cpp), which are compiled with ISA-specific
// flags and must stay behind a C++-level firewall: nothing in this header
// may require vector intrinsics to declare.
#pragma once

#include <cstdint>

#include "axnn/kernels/isa.hpp"

namespace axnn {
class ThreadPool;
}

namespace axnn::kernels {
struct GemmDesc;
}

namespace axnn::kernels::detail {

// Geometry of the cache-blocked float kernel: MR×NR register tiles, A packed
// in MC×KC blocks of MR-row strips ([kc][MR] each), B in KC×NC panels of
// NR-column strips ([kc][NR] each), edge strips zero-padded. Every tier
// shares it, so each output element sums its k-terms in ascending order
// inside a KC panel and adds the panels in order, whatever the ISA.
constexpr int64_t kF32Mr = 4;
constexpr int64_t kF32Nr = 8;
constexpr int64_t kF32Mc = 64;
constexpr int64_t kF32Kc = 256;
constexpr int64_t kF32Nc = 256;

// Cache-blocked float kernel: packs into per-thread scratch arenas and runs
// the `isa` tier's packing and micro-kernels (scalar unless kAvx2). Called
// through GemmPlan::run.
void blocked_f32(const GemmDesc& desc, const float* a, const float* b, float* c,
                 int64_t m, int64_t k, int64_t n, Isa isa, ThreadPool& pool);

// Geometry of the vectorized int kernels. Columns are processed in strips
// of kStrip with kFuse k-steps fused per pass; the weight operand is packed
// column-major in groups of kFuse so each output row reads one contiguous
// kFuse-byte group per pass. Packing (GemmPlan::pack_weights) and the ABFT
// probes share these constants.
constexpr int64_t kStrip = 16;
constexpr int64_t kFuse = 8;
// The closed-form (masked) kernel loads 32 activation bytes per k-step, so
// its plans stripe columns 32 at a time.
constexpr int64_t kMaskedStrip = 32;

// ~32k MACs per parallel task (mirrors row_grain, but for column-strip
// partitioned kernels).
inline int64_t strip_grain(int64_t m, int64_t k, int64_t strip) {
  const int64_t macs_per_strip = m * k * strip;
  if (macs_per_strip <= 0) return 1;
  const int64_t g = (int64_t{1} << 15) / macs_per_strip;
  return g < 1 ? 1 : g;
}

// Scalar blocked int kernels (moved verbatim from the pre-plan dispatch,
// except the packed LUT slices now arrive from the plan instead of being
// rebuilt per call). Partition rows over `pool` internally.
void blocked_approx_scalar(const int8_t* w, const int8_t* x, int32_t* c, int64_t m,
                           int64_t k, int64_t n, const int32_t* slices,
                           bool accumulate, ThreadPool& pool);
void blocked_exact_scalar(const int8_t* w, const int8_t* x, int32_t* c, int64_t m,
                          int64_t k, int64_t n, bool accumulate, ThreadPool& pool);

// Vectorized kernels: compute output columns [j0, j1) for every row. The
// weight operand arrives packed (GemmPlan::pack_weights layout: column-major
// in kFuse groups); `lines` is the transposed LUT (256 activation lines of
// 16 nibble products, 64-byte aligned, nibble-0 column zeroed); `tables` are
// the closed-form kernel's per-weight-nibble product tables (16 × 32 bytes
// for the low activation nibble, then 16 × 32 for the high one, each row
// duplicated for both 128-bit lanes, 32-byte aligned, nibble-0 rows zero).
// Bit-identical to the naive reference: same int32 product set per output
// element.
#if defined(AXNN_HAVE_AVX2_TU)
// The AVX2 float tier of blocked_f32, in its packing layout. pack_a packs
// rows [i0, i0 + mc) × k-steps [kb, kb + kc) of op(A); pack_b packs k-steps
// [kb, kb + kc) × columns [jc, jc + nc) of op(B). block multiplies packed
// A (mc rows) by packed B (nc columns) over kc k-steps into C (row stride
// ldc): stored when `store`, else added. Separate multiply and add, no FMA,
// so every element is bit-identical to the scalar tier.
void avx2_pack_a_f32(float* dst, const float* a, bool trans, int64_t m, int64_t k,
                     int64_t i0, int64_t mc, int64_t kb, int64_t kc);
void avx2_pack_b_f32(float* dst, const float* b, bool trans, int64_t k, int64_t n,
                     int64_t kb, int64_t kc, int64_t jc, int64_t nc);
void avx2_block_f32(const float* apack, const float* bpack, int64_t mc, int64_t nc,
                    int64_t kc, float* c, int64_t ldc, bool store);

void avx2_masked_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                      int64_t k, int64_t n, const int8_t* tables, bool accumulate,
                      int64_t j0, int64_t j1);
void avx2_approx_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                      int64_t k, int64_t n, const int32_t* lines, bool accumulate,
                      int64_t j0, int64_t j1);
void avx2_exact_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                     int64_t k, int64_t n, bool accumulate, int64_t j0, int64_t j1);
#endif
#if defined(AXNN_HAVE_NEON_TU)
void neon_approx_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                      int64_t k, int64_t n, const int32_t* lines, bool accumulate,
                      int64_t j0, int64_t j1);
void neon_exact_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                     int64_t k, int64_t n, bool accumulate, int64_t j0, int64_t j1);
#endif

}  // namespace axnn::kernels::detail
