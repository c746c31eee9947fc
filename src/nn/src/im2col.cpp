#include "axnn/nn/im2col.hpp"

#include <algorithm>
#include <stdexcept>

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

/// Output columns j whose tap iw = j*stride - padding + kw lies inside
/// [0, w): a contiguous range [lo, hi) fixed by the tap column kw.
struct ValidCols {
  int64_t lo, hi;
};

ValidCols valid_cols(const ConvGeom& g, int64_t kw) {
  const int64_t first = g.padding - kw;         // smallest j*stride allowed
  const int64_t last = g.w - 1 + g.padding - kw;  // largest j*stride allowed
  const int64_t lo = first <= 0 ? 0 : (first + g.stride - 1) / g.stride;
  const int64_t hi = last < 0 ? 0 : std::min(g.ow, last / g.stride + 1);
  return {std::min(lo, hi), hi};
}

template <typename T>
BasicTensor<T> im2col_impl(const BasicTensor<T>& x, const ConvGeom& g) {
  const int64_t rows = g.patch_rows();
  const int64_t cols_n = g.out_cols();
  BasicTensor<T> cols(Shape{rows, cols_n});
  const T* xd = x.data();
  T* cd = cols.data();

  parallel_for(rows, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t kw = r % g.kernel;
      const int64_t kh = (r / g.kernel) % g.kernel;
      const int64_t c = r / (g.kernel * g.kernel);
      // Per row, the padding split of every output row is the same: zeros,
      // a run of in-image taps (contiguous for stride 1), zeros.
      const ValidCols v = valid_cols(g, kw);
      const int64_t off = kw - g.padding;  // iw = j*stride + off
      T* crow = cd + r * cols_n;
      for (int64_t n = 0; n < g.n; ++n) {
        const T* xplane = xd + (n * g.c + c) * g.h * g.w;
        for (int64_t i = 0; i < g.oh; ++i) {
          const int64_t ih = i * g.stride - g.padding + kh;
          T* cpos = crow + (n * g.oh + i) * g.ow;
          if (ih < 0 || ih >= g.h) {
            std::fill(cpos, cpos + g.ow, T{});
            continue;
          }
          const T* xrow = xplane + ih * g.w;
          std::fill(cpos, cpos + v.lo, T{});
          if (g.stride == 1) {
            std::copy(xrow + v.lo + off, xrow + v.hi + off, cpos + v.lo);
          } else {
            for (int64_t j = v.lo; j < v.hi; ++j) cpos[j] = xrow[j * g.stride + off];
          }
          std::fill(cpos + v.hi, cpos + g.ow, T{});
        }
      }
    }
  });
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
