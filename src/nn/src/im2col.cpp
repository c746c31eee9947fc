#include "axnn/nn/im2col.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <type_traits>
#include <vector>

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

/// Stride-1 "same" convs (oh == h, ow == w). Flattening the plane, output
/// q = i*w + j of tap (kh, kw) reads input q + shift with
/// shift = (kh - p)*w + (kw - p): a plane shifted by a constant. Clipping q
/// to the range where q + shift lies in [0, h*w) rules out the rows above
/// and below the image; what remains are the columns j + kw - p outside
/// [0, w), which a per-kw mask zeroes. The mask is the same for every
/// channel, kh and image, so a patch row is one masked copy per image.
template <typename T>
void shifted_plane_rows(const T* xd, T* cd, const ConvGeom& g) {
  using M = MaskBits<T>;
  const int64_t k = g.kernel, p = g.padding, w = g.w, hw = g.h * g.w;
  PoolVec<M> masks(static_cast<size_t>(k * hw));
  M* mk = masks.data();
  for (int64_t kw = 0; kw < k; ++kw)
    for (int64_t i = 0; i < g.h; ++i)
      for (int64_t j = 0; j < w; ++j, ++mk) {
        const int64_t iw = j + kw - p;
        *mk = iw >= 0 && iw < w ? static_cast<M>(~M{0}) : M{0};
      }

  parallel_for(g.patch_rows(), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t kw = r % k;
      const int64_t kh = (r / k) % k;
      const int64_t c = r / (k * k);
      const int64_t shift = (kh - p) * w + (kw - p);
      const int64_t lo = std::max<int64_t>(0, -shift);
      const int64_t hi = std::min(hw, hw - shift);
      const M* m = masks.data() + kw * hw;
      T* crow = cd + r * g.out_cols();
      for (int64_t n = 0; n < g.n; ++n) {
        const T* xplane = xd + (n * g.c + c) * hw;
        T* dst = crow + n * hw;
        for (int64_t q = lo; q < hi; ++q) dst[q] = keep_if(xplane[q + shift], m[q]);
      }
    }
  });
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

  parallel_for(g.patch_rows(), [&](int64_t r0, int64_t r1) {
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
  });
}

template <typename T>
BasicTensor<T> im2col_impl(const BasicTensor<T>& x, const ConvGeom& g) {
  // Zero-filled by construction: taps that fall in the padding and are not
  // written below stay zero.
  BasicTensor<T> cols(Shape{g.patch_rows(), g.out_cols()});
  if (g.stride == 1 && g.oh == g.h && g.ow == g.w)
    shifted_plane_rows(x.data(), cols.data(), g);
  else
    gathered_rows(x.data(), cols.data(), g);
  return cols;
}

}  // namespace

Tensor im2col(const Tensor& x, const ConvGeom& g) { return im2col_impl(x, g); }

TensorI8 im2col_i8(const TensorI8& x, const ConvGeom& g) { return im2col_impl(x, g); }

Tensor col2im(const Tensor& cols, const ConvGeom& g) {
  Tensor dx(Shape{g.n, g.c, g.h, g.w}, 0.0f);
  const int64_t rows = g.patch_rows();
  const int64_t cols_n = g.out_cols();
  if (cols.shape() != Shape{rows, cols_n})
    throw std::invalid_argument("col2im: cols shape mismatch");
  const float* cd = cols.data();
  float* xd = dx.data();

  // Parallelise over input channels: every cols row with the same channel c
  // scatters only into that channel's planes, so channels are independent.
  parallel_for(g.c, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      for (int64_t kh = 0; kh < g.kernel; ++kh) {
        for (int64_t kw = 0; kw < g.kernel; ++kw) {
          const int64_t r = (c * g.kernel + kh) * g.kernel + kw;
          const float* crow = cd + r * cols_n;
          for (int64_t n = 0; n < g.n; ++n) {
            float* xplane = xd + (n * g.c + c) * g.h * g.w;
            for (int64_t i = 0; i < g.oh; ++i) {
              const int64_t ih = i * g.stride - g.padding + kh;
              if (ih < 0 || ih >= g.h) continue;
              const float* cpos = crow + (n * g.oh + i) * g.ow;
              float* xrow = xplane + ih * g.w;
              for (int64_t j = 0; j < g.ow; ++j) {
                const int64_t iw = j * g.stride - g.padding + kw;
                if (iw >= 0 && iw < g.w) xrow[iw] += cpos[j];
              }
            }
          }
        }
      }
    }
  });
  return dx;
}

}  // namespace axnn::nn
