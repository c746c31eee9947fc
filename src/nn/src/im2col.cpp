#include "axnn/nn/im2col.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "axnn/kernels/gemm.hpp"
#include "axnn/tensor/buffer_pool.hpp"
#include "axnn/tensor/threadpool.hpp"

namespace axnn::nn {

ConvGeom ConvGeom::of(const Shape& x, int64_t kernel, int64_t stride, int64_t padding) {
  if (x.rank() != 4) throw std::invalid_argument("ConvGeom: expected NCHW input");
  ConvGeom g;
  g.n = x[0];
  g.c = x[1];
  g.h = x[2];
  g.w = x[3];
  g.kernel = kernel;
  g.stride = stride;
  g.padding = padding;
  g.oh = (g.h + 2 * padding - kernel) / stride + 1;
  g.ow = (g.w + 2 * padding - kernel) / stride + 1;
  if (g.oh <= 0 || g.ow <= 0) throw std::invalid_argument("ConvGeom: non-positive output dims");
  return g;
}

namespace {

/// Unsigned integer of T's width: the bit pattern a 0/all-ones tap mask
/// is ANDed against.
template <typename T>
using MaskBits = std::conditional_t<sizeof(T) == 4, uint32_t, uint8_t>;

template <typename T>
using PoolVec = std::vector<T, PoolAllocator<T>>;

/// v where the mask is all ones, T{} where it is zero. Branch-free, and a
/// masked float is +0.0f (all bits clear), exactly what the zero fill gives.
template <typename T>
inline T keep_if(T v, MaskBits<T> m) {
  return std::bit_cast<T>(static_cast<MaskBits<T>>(std::bit_cast<MaskBits<T>>(v) & m));
}

/// Parallel grain of a lowering whose work items (patch rows, channels)
/// touch `per_item` elements each: the GEMM row_grain budget, so a small
/// lowering runs inline instead of fanning out across the pool.
int64_t lowering_grain(int64_t per_item) { return kernels::row_grain(1, per_item); }

/// Stride-1 "same" convs (oh == h, ow == w). Flattening the plane, output
/// q = i*w + j of tap (kh, kw) reads input q + shift with
/// shift = (kh - p)*w + (kw - p): a plane shifted by a constant. Clipping q
/// to [lo, hi), where q + shift lies in [0, h*w), rules out the rows above
/// and below the image; what remains are the columns j + kw - p outside
/// [0, w), which a per-kw mask zeroes. The mask is the same for every
/// channel, kh and image, so a patch row is one masked copy per image.
struct PlaneTap {
  int64_t kw, shift, lo, hi;
};

/// Patch row r's kw, plane shift and in-image range [lo, hi).
PlaneTap plane_tap(const ConvGeom& g, int64_t r) {
  const int64_t k = g.kernel, p = g.padding, hw = g.h * g.w;
  const int64_t kw = r % k;
  const int64_t kh = (r / k) % k;
  const int64_t shift = (kh - p) * g.w + (kw - p);
  return {kw, shift, std::max<int64_t>(0, -shift), std::min(hw, hw - shift)};
}

/// [kw * h*w + q]: all ones where column j = q % w of tap kw is in the image.
template <typename M>
PoolVec<M> plane_masks(const ConvGeom& g) {
  PoolVec<M> out(static_cast<size_t>(g.kernel * g.h * g.w));
  M* mk = out.data();
  for (int64_t kw = 0; kw < g.kernel; ++kw)
    for (int64_t i = 0; i < g.h; ++i)
      for (int64_t j = 0; j < g.w; ++j, ++mk) {
        const int64_t iw = j + kw - g.padding;
        *mk = iw >= 0 && iw < g.w ? static_cast<M>(~M{0}) : M{0};
      }
  return out;
}

bool is_shifted_plane(const ConvGeom& g) { return g.stride == 1 && g.oh == g.h && g.ow == g.w; }

template <typename T>
void shifted_plane_rows(const T* xd, T* cd, const ConvGeom& g) {
  const int64_t hw = g.h * g.w;
  const PoolVec<MaskBits<T>> masks = plane_masks<MaskBits<T>>(g);
  parallel_for(
      g.patch_rows(),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const PlaneTap t = plane_tap(g, r);
          const int64_t c = r / (g.kernel * g.kernel);
          const MaskBits<T>* m = masks.data() + t.kw * hw;
          T* crow = cd + r * g.out_cols();
          for (int64_t n = 0; n < g.n; ++n) {
            const T* xplane = xd + (n * g.c + c) * hw;
            T* dst = crow + n * hw;
            for (int64_t q = t.lo; q < t.hi; ++q) dst[q] = keep_if(xplane[q + t.shift], m[q]);
          }
        }
      },
      lowering_grain(g.out_cols()));
}

/// Every other geometry (the strided leaves among them): each in-image
/// output row is a fixed-width gather of ow taps. Per kw, the source column
/// of output column j is clamped into the row and paired with a mask that
/// zeroes the taps in the padding; output rows whose source row is padding
/// keep the zero fill.
template <typename T>
void gathered_rows(const T* xd, T* cd, const ConvGeom& g) {
  using M = MaskBits<T>;
  const int64_t k = g.kernel, ow = g.ow;
  PoolVec<int64_t> src_col(static_cast<size_t>(k * ow));
  PoolVec<M> masks(static_cast<size_t>(k * ow));
  for (int64_t kw = 0; kw < k; ++kw)
    for (int64_t j = 0; j < ow; ++j) {
      const int64_t iw = j * g.stride - g.padding + kw;
      const bool in = iw >= 0 && iw < g.w;
      src_col[static_cast<size_t>(kw * ow + j)] = in ? iw : 0;
      masks[static_cast<size_t>(kw * ow + j)] = in ? static_cast<M>(~M{0}) : M{0};
    }

  parallel_for(
      g.patch_rows(),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t kw = r % k;
          const int64_t kh = (r / k) % k;
          const int64_t c = r / (k * k);
          const int64_t* col = src_col.data() + kw * ow;
          const M* m = masks.data() + kw * ow;
          T* crow = cd + r * g.out_cols();
          for (int64_t n = 0; n < g.n; ++n) {
            const T* xplane = xd + (n * g.c + c) * g.h * g.w;
            for (int64_t i = 0; i < g.oh; ++i) {
              const int64_t ih = i * g.stride - g.padding + kh;
              if (ih < 0 || ih >= g.h) continue;
              const T* xrow = xplane + ih * g.w;
              T* cpos = crow + (n * g.oh + i) * ow;
              for (int64_t j = 0; j < ow; ++j) cpos[j] = keep_if(xrow[col[j]], m[j]);
            }
          }
        }
      },
      lowering_grain(g.out_cols()));
}

template <typename T>
BasicTensor<T> im2col_impl(const BasicTensor<T>& x, const ConvGeom& g) {
  // Zero-filled by construction: taps that fall in the padding and are not
  // written below stay zero.
  BasicTensor<T> cols(Shape{g.patch_rows(), g.out_cols()});
  if (is_shifted_plane(g))
    shifted_plane_rows(x.data(), cols.data(), g);
  else
    gathered_rows(x.data(), cols.data(), g);
  return cols;
}

// col2im: the adjoint of the two lowerings above. Every patch row of channel
// c adds back into channel c's planes only, so channels run in parallel;
// within a channel the rows go in (kh, kw) order, which is each input
// element's accumulation order. A masked tap leaves dx untouched (it does
// not add +0.0f), so dx is the per-element scatter-add bit for bit.

/// dst[i] += src[i] where the 0/all-ones mask[i] is set; elsewhere dst[i]
/// keeps its bits. A bitwise select of the sum, so the loop has no branch
/// and vectorizes.
void masked_add(float* __restrict dst, const float* __restrict src,
                const uint32_t* __restrict mask, int64_t count) {
  for (int64_t i = 0; i < count; ++i) {
    const uint32_t sum = std::bit_cast<uint32_t>(dst[i] + src[i]);
    const uint32_t old = std::bit_cast<uint32_t>(dst[i]);
    dst[i] = std::bit_cast<float>((sum & mask[i]) | (old & ~mask[i]));
  }
}

void shifted_plane_col2im(const float* cd, float* xd, const ConvGeom& g) {
  const int64_t hw = g.h * g.w;
  const PoolVec<uint32_t> masks = plane_masks<uint32_t>(g);
  const int64_t kk = g.kernel * g.kernel;
  parallel_for(
      g.c,
      [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c)
          for (int64_t r = c * kk; r < (c + 1) * kk; ++r) {
            const PlaneTap t = plane_tap(g, r);
            const uint32_t* m = masks.data() + t.kw * hw;
            const float* crow = cd + r * g.out_cols();
            for (int64_t n = 0; n < g.n; ++n)
              masked_add(xd + (n * g.c + c) * hw + t.lo + t.shift, crow + n * hw + t.lo,
                         m + t.lo, t.hi - t.lo);
          }
      },
      lowering_grain(kk * g.out_cols()));
}

void gathered_col2im(const float* cd, float* xd, const ConvGeom& g) {
  const int64_t k = g.kernel, s = g.stride, ow = g.ow;
  parallel_for(
      g.c,
      [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c)
          for (int64_t kh = 0; kh < k; ++kh)
            for (int64_t kw = 0; kw < k; ++kw) {
              // Output column j reads input column j*s + off. It grows with
              // j, so the in-image columns of the tap are one run [jlo, jhi)
              // and the masked ones are simply not visited.
              const int64_t off = kw - g.padding;
              const int64_t jlo = std::clamp<int64_t>((s - 1 - off) / s, 0, ow);
              const int64_t jhi = off >= g.w ? 0 : std::min(ow, (g.w - 1 - off) / s + 1);
              const float* crow = cd + ((c * k + kh) * k + kw) * g.out_cols();
              for (int64_t n = 0; n < g.n; ++n) {
                float* xplane = xd + (n * g.c + c) * g.h * g.w;
                for (int64_t i = 0; i < g.oh; ++i) {
                  const int64_t ih = i * s - g.padding + kh;
                  if (ih < 0 || ih >= g.h) continue;
                  float* xrow = xplane + ih * g.w;
                  const float* cpos = crow + (n * g.oh + i) * ow;
                  for (int64_t j = jlo; j < jhi; ++j) xrow[j * s + off] += cpos[j];
                }
              }
            }
      },
      lowering_grain(k * k * g.out_cols()));
}

}  // namespace

Tensor im2col(const Tensor& x, const ConvGeom& g) { return im2col_impl(x, g); }

TensorI8 im2col_i8(const TensorI8& x, const ConvGeom& g) { return im2col_impl(x, g); }

Tensor col2im(const Tensor& cols, const ConvGeom& g) {
  if (cols.shape() != Shape{g.patch_rows(), g.out_cols()})
    throw std::invalid_argument("col2im: cols shape mismatch");
  Tensor dx(Shape{g.n, g.c, g.h, g.w}, 0.0f);
  if (is_shifted_plane(g))
    shifted_plane_col2im(cols.data(), dx.data(), g);
  else
    gathered_col2im(cols.data(), dx.data(), g);
  return dx;
}

}  // namespace axnn::nn
