// Tests for the NN layer stack: im2col, conv, linear, batchnorm,
// activations, pooling, containers, SGD, serialization.
#include <gtest/gtest.h>


#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "axnn/axmul/registry.hpp"
#include "axnn/kernels/signed_lut.hpp"
#include "axnn/nn/activations.hpp"
#include "axnn/nn/batchnorm.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/nn/loss.hpp"
#include "axnn/nn/pooling.hpp"
#include "axnn/nn/sequential.hpp"
#include "axnn/nn/serialize.hpp"
#include "axnn/nn/sgd.hpp"
#include "axnn/tensor/ops.hpp"
#include "temp_path.hpp"

namespace axnn::nn {
namespace {

using axnn::test_util::unique_temp_path;

const ExecContext kFp = ExecContext::fp();
const ExecContext kFpTrain = ExecContext::fp(/*training=*/true);

TEST(Im2col, GeometryComputation) {
  const ConvGeom g = ConvGeom::of(Shape{2, 3, 8, 8}, 3, 1, 1);
  EXPECT_EQ(g.oh, 8);
  EXPECT_EQ(g.ow, 8);
  EXPECT_EQ(g.patch_rows(), 27);
  EXPECT_EQ(g.out_cols(), 128);
  const ConvGeom s2 = ConvGeom::of(Shape{1, 1, 8, 8}, 3, 2, 1);
  EXPECT_EQ(s2.oh, 4);
}

TEST(Im2col, ValuesAndPadding) {
  // 1x1x3x3 input, k=3, p=1: centre column equals the full image.
  Tensor x(Shape{1, 1, 3, 3});
  for (int64_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i + 1);
  const ConvGeom g = ConvGeom::of(x.shape(), 3, 1, 1);
  const Tensor cols = im2col(x, g);
  EXPECT_EQ(cols.shape(), (Shape{9, 9}));
  // Row 4 = (kh=1, kw=1) -> identity tap.
  for (int64_t p = 0; p < 9; ++p) EXPECT_FLOAT_EQ(cols(4, p), x[p]);
  // Row 0 = (kh=0, kw=0): output (0,0) reads x(-1,-1) = padding zero.
  EXPECT_FLOAT_EQ(cols(0, 0), 0.0f);
  // Output (2,2) with (kh=0,kw=0) reads x(1,1) = 5.
  EXPECT_FLOAT_EQ(cols(0, 8), 5.0f);
}

/// Per-element im2col reference: every tap bounds-checked on its own.
template <typename T>
BasicTensor<T> naive_im2col(const BasicTensor<T>& x, const ConvGeom& g) {
  BasicTensor<T> cols(Shape{g.patch_rows(), g.out_cols()});
  for (int64_t c = 0; c < g.c; ++c)
    for (int64_t kh = 0; kh < g.kernel; ++kh)
      for (int64_t kw = 0; kw < g.kernel; ++kw)
        for (int64_t n = 0; n < g.n; ++n)
          for (int64_t i = 0; i < g.oh; ++i)
            for (int64_t j = 0; j < g.ow; ++j) {
              const int64_t ih = i * g.stride - g.padding + kh;
              const int64_t iw = j * g.stride - g.padding + kw;
              const bool in = ih >= 0 && ih < g.h && iw >= 0 && iw < g.w;
              cols((c * g.kernel + kh) * g.kernel + kw, (n * g.oh + i) * g.ow + j) =
                  in ? x(n, c, ih, iw) : T{};
            }
  return cols;
}

/// im2col and im2col_i8 against the naive reference, bit for bit. The
/// int8 input spans the full range, -128 and 127 included.
void expect_matches_naive(const Tensor& x, const ConvGeom& g) {
  const Tensor want = naive_im2col(x, g);
  const Tensor got = im2col(x, g);
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < want.numel(); ++i)
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << "index " << i << ": " << got[i] << " vs " << want[i];

  TensorI8 xi(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i)
    xi[i] = static_cast<int8_t>((i * 37 + static_cast<int64_t>(x[i] * 40.0f)) % 256 - 128);
  xi[0] = -128;
  xi[x.numel() - 1] = 127;
  const TensorI8 want8 = naive_im2col(xi, g);
  const TensorI8 got8 = im2col_i8(xi, g);
  ASSERT_EQ(got8.shape(), want8.shape());
  for (int64_t i = 0; i < want8.numel(); ++i)
    ASSERT_EQ(got8[i], want8[i]) << "int8 index " << i;
}

std::string geom_name(const ConvGeom& g) {
  return "n " + std::to_string(g.n) + " c " + std::to_string(g.c) + " h " +
         std::to_string(g.h) + " w " + std::to_string(g.w) + " k " + std::to_string(g.kernel) +
         " s " + std::to_string(g.stride) + " p " + std::to_string(g.padding);
}

TEST(Im2col, MatchesNaiveReference) {
  Rng rng(21);
  // Small odd and even planes, a 1×1 image, and padding 2 (not "same").
  const int64_t dims[][2] = {{5, 7}, {6, 4}, {7, 6}, {4, 4}, {1, 1}};
  for (const auto& hw : dims)
    for (const int64_t k : {1, 3})
      for (const int64_t stride : {1, 2})
        for (const int64_t pad : {0, 1, 2}) {
          if (hw[0] + 2 * pad < k || hw[1] + 2 * pad < k) continue;
          const Tensor x = randn(Shape{2, 3, hw[0], hw[1]}, rng);
          const ConvGeom g = ConvGeom::of(x.shape(), k, stride, pad);
          SCOPED_TRACE(geom_name(g));
          expect_matches_naive(x, g);
        }

  // Every conv geometry a batch-8 fast-profile ResNet20 serves (each channel
  // count at each plane), then the MobileNetV2 depthwise convs.
  struct Leaf {
    int64_t k, stride, pad;
  };
  const Leaf leaves[] = {{3, 1, 1}, {3, 2, 1}, {1, 1, 0}, {1, 2, 0}};
  for (const int64_t c : {3, 4, 8, 16})
    for (const int64_t hw : {16, 8, 4})
      for (const Leaf& l : leaves) {
        const Tensor x = randn(Shape{8, c, hw, hw}, rng);
        const ConvGeom g = ConvGeom::of(x.shape(), l.k, l.stride, l.pad);
        SCOPED_TRACE(geom_name(g));
        expect_matches_naive(x, g);
      }
  const int64_t depthwise[][3] = {{8, 16, 1},  {24, 16, 1}, {36, 16, 1}, {36, 16, 2},
                                  {48, 8, 1},  {48, 8, 2},  {96, 4, 1}};
  for (const auto& d : depthwise) {
    const Tensor x = randn(Shape{8, d[0], d[1], d[1]}, rng);
    const ConvGeom g = ConvGeom::of(x.shape(), 3, d[2], 1);
    SCOPED_TRACE(geom_name(g));
    expect_matches_naive(x, g);
  }

  // All-negative input: every zero in the patch matrix is padding, and it
  // must be +0.0f (a masked -1.0f must not leave its sign bit behind).
  const Tensor neg(Shape{2, 3, 6, 6}, -1.0f);
  for (const int64_t stride : {1, 2}) {
    const Tensor cols = im2col(neg, ConvGeom::of(neg.shape(), 3, stride, 1));
    int64_t zeros = 0;
    for (int64_t i = 0; i < cols.numel(); ++i) {
      if (cols[i] != 0.0f) continue;
      ++zeros;
      ASSERT_FALSE(std::signbit(cols[i])) << "stride " << stride << " index " << i;
    }
    EXPECT_GT(zeros, 0) << "stride " << stride;
  }
}

/// The per-element col2im scatter-add the plane and row adjoints replaced:
/// every tap bounds-checked on its own, accumulated in (kh, kw) order.
Tensor naive_col2im(const Tensor& cols, const ConvGeom& g) {
  Tensor dx(Shape{g.n, g.c, g.h, g.w}, 0.0f);
  for (int64_t c = 0; c < g.c; ++c)
    for (int64_t kh = 0; kh < g.kernel; ++kh)
      for (int64_t kw = 0; kw < g.kernel; ++kw)
        for (int64_t n = 0; n < g.n; ++n)
          for (int64_t i = 0; i < g.oh; ++i)
            for (int64_t j = 0; j < g.ow; ++j) {
              const int64_t ih = i * g.stride - g.padding + kh;
              const int64_t iw = j * g.stride - g.padding + kw;
              if (ih < 0 || ih >= g.h || iw < 0 || iw >= g.w) continue;
              dx(n, c, ih, iw) += cols((c * g.kernel + kh) * g.kernel + kw, (n * g.oh + i) * g.ow + j);
            }
  return dx;
}

/// col2im against the naive reference, bit for bit. The gradients span six
/// decades, so any change of accumulation order shows, and every 5th/7th one
/// is a -0.0f/+0.0f (a masked tap must not touch dx, and a zero that lands
/// must add exactly as the reference adds it).
void expect_col2im_matches_naive(const ConvGeom& g, Rng& rng) {
  Tensor cols = randn(Shape{g.patch_rows(), g.out_cols()}, rng);
  for (int64_t i = 0; i < cols.numel(); ++i) {
    cols[i] *= std::pow(10.0f, static_cast<float>(i % 7) - 3.0f);
    if (i % 5 == 0) cols[i] = -0.0f;
    if (i % 7 == 0) cols[i] = 0.0f;
  }
  const Tensor want = naive_col2im(cols, g);
  const Tensor got = col2im(cols, g);
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < want.numel(); ++i)
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << "index " << i << ": " << got[i] << " vs " << want[i];
}

TEST(Im2col, Col2imMatchesNaiveReference) {
  Rng rng(22);
  const int64_t dims[][2] = {{5, 7}, {6, 4}, {7, 6}, {4, 4}, {1, 1}, {16, 16}};
  for (const auto& hw : dims)
    for (const int64_t k : {1, 3})
      for (const int64_t stride : {1, 2})
        for (const int64_t pad : {0, 1, 2}) {
          if (hw[0] + 2 * pad < k || hw[1] + 2 * pad < k) continue;
          const ConvGeom g = ConvGeom::of(Shape{2, 3, hw[0], hw[1]}, k, stride, pad);
          SCOPED_TRACE(geom_name(g));
          expect_col2im_matches_naive(g, rng);
        }
  // Every geometry a fine-tune step of the fast-profile ResNet20
  // back-propagates through, at batch 4.
  const int64_t leaves[][4] = {{3, 16, 3, 1}, {4, 16, 3, 1}, {4, 16, 3, 2}, {4, 16, 1, 2},
                               {8, 8, 3, 1},  {8, 8, 3, 2},  {8, 8, 1, 2},  {16, 4, 3, 1}};
  for (const auto& l : leaves) {
    const ConvGeom g = ConvGeom::of(Shape{4, l[0], l[1], l[1]}, l[2], l[3], l[2] / 2);
    SCOPED_TRACE(geom_name(g));
    expect_col2im_matches_naive(g, rng);
  }
  // All -0.0f gradients: every landed sum is +0.0f, every untouched
  // element keeps the zero fill's +0.0f.
  for (const int64_t stride : {1, 2}) {
    const ConvGeom g = ConvGeom::of(Shape{2, 3, 6, 6}, 3, stride, 1);
    const Tensor dx = col2im(Tensor(Shape{g.patch_rows(), g.out_cols()}, -0.0f), g);
    for (int64_t i = 0; i < dx.numel(); ++i)
      ASSERT_EQ(std::bit_cast<uint32_t>(dx[i]), 0u) << "stride " << stride << " index " << i;
  }
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), c> == <x, col2im(c)> for random x, c — the defining property
  // of the backward scatter.
  Rng rng(3);
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng);
  const ConvGeom g = ConvGeom::of(x.shape(), 3, 2, 1);
  const Tensor cols = im2col(x, g);
  const Tensor c = randn(cols.shape(), rng);
  const Tensor xback = col2im(c, g);
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cols.numel(); ++i) lhs += static_cast<double>(cols[i]) * c[i];
  for (int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * xback[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor* bias, int64_t stride,
                  int64_t padding, int64_t groups) {
  const int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], wd = x.shape()[3];
  const int64_t o = w.shape()[0], cg = w.shape()[1], k = w.shape()[2];
  const int64_t og = o / groups;
  const int64_t oh = (h + 2 * padding - k) / stride + 1;
  const int64_t ow = (wd + 2 * padding - k) / stride + 1;
  Tensor y(Shape{n, o, oh, ow}, 0.0f);
  for (int64_t b = 0; b < n; ++b)
    for (int64_t oc = 0; oc < o; ++oc) {
      const int64_t g = oc / og;
      for (int64_t i = 0; i < oh; ++i)
        for (int64_t j = 0; j < ow; ++j) {
          double acc = bias != nullptr ? (*bias)[oc] : 0.0;
          for (int64_t ic = 0; ic < cg; ++ic)
            for (int64_t kh = 0; kh < k; ++kh)
              for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t ih = i * stride - padding + kh;
                const int64_t iw = j * stride - padding + kw;
                if (ih < 0 || ih >= h || iw < 0 || iw >= wd) continue;
                acc += static_cast<double>(x(b, g * cg + ic, ih, iw)) * w(oc, ic, kh, kw);
              }
          y(b, oc, i, j) = static_cast<float>(acc);
        }
    }
  (void)c;
  return y;
}

struct ConvCase {
  int64_t in_ch, out_ch, k, stride, pad, groups, hw;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSweep, ForwardMatchesNaiveReference) {
  const ConvCase cc = GetParam();
  Rng rng(99);
  Conv2d conv({cc.in_ch, cc.out_ch, cc.k, cc.stride, cc.pad, cc.groups, true}, rng);
  // Non-trivial bias.
  for (int64_t i = 0; i < cc.out_ch; ++i)
    conv.bias_param().value[i] = 0.1f * static_cast<float>(i);
  const Tensor x = randn(Shape{2, cc.in_ch, cc.hw, cc.hw}, rng);
  const Tensor y = conv.forward(x, kFp);
  const Tensor ref = naive_conv(x, conv.weight().value, &conv.bias_param().value, cc.stride,
                                cc.pad, cc.groups);
  ASSERT_EQ(y.shape(), ref.shape());
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], ref[i], 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 1, 4},    // pointwise minimal
                      ConvCase{3, 8, 3, 1, 1, 1, 8},    // standard 3x3
                      ConvCase{4, 6, 3, 2, 1, 1, 9},    // strided, odd size
                      ConvCase{8, 8, 3, 1, 1, 8, 6},    // depthwise
                      ConvCase{4, 8, 1, 1, 0, 2, 5},    // grouped pointwise
                      ConvCase{2, 4, 5, 2, 2, 1, 11})); // 5x5 kernel

TEST(Conv2d, MacCount) {
  Rng rng(1);
  Conv2d conv({3, 8, 3, 1, 1, 1, false}, rng);
  const Tensor x(Shape{2, 3, 8, 8}, 0.0f);
  (void)conv.forward(x, kFp);
  // per sample: 8 * 3 * 9 * 64 = 13824; batch of 2.
  EXPECT_EQ(conv.last_mac_count(), 2 * 13824);
  EXPECT_EQ(conv.macs_per_sample(8, 8), 13824);
}

TEST(Conv2d, ConfigValidation) {
  Rng rng(1);
  EXPECT_THROW(Conv2d({0, 4, 3, 1, 1, 1, true}, rng), std::invalid_argument);
  EXPECT_THROW(Conv2d({3, 4, 3, 1, 1, 2, true}, rng), std::invalid_argument);  // 3 % 2
}

TEST(Conv2d, QuantForwardBeforeCalibrationThrows) {
  Rng rng(1);
  Conv2d conv({2, 2, 3, 1, 1, 1, true}, rng);
  const Tensor x(Shape{1, 2, 4, 4}, 0.5f);
  const approx::SignedMulTable tab;
  EXPECT_THROW(conv.forward(x, ExecContext::quant_exact()), std::logic_error);
  EXPECT_THROW(conv.forward(x, ExecContext::quant_approx(tab)), std::logic_error);
}

TEST(Conv2d, QuantExactEqualsFakeQuantReference) {
  Rng rng(7);
  Conv2d conv({3, 4, 3, 1, 1, 1, true}, rng);
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng, 0.0f, 0.5f);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);

  const Tensor y = conv.forward(x, ExecContext::quant_exact());
  const Tensor xq = quant::fake_quantize(x, conv.act_qparams());
  const Tensor wq = quant::fake_quantize(conv.weight().value, conv.weight_qparams());
  const Tensor ref = naive_conv(xq, wq, &conv.bias_param().value, 1, 1, 1);
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], ref[i], 2e-3f);
}

TEST(Conv2d, ApproxWithExactTableMatchesQuantExact) {
  Rng rng(8);
  Conv2d conv({3, 4, 3, 1, 1, 1, true}, rng);
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng, 0.0f, 0.5f);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);

  const Tensor yq = conv.forward(x, ExecContext::quant_exact());
  const approx::SignedMulTable exact_tab;
  const Tensor ya = conv.forward(x, ExecContext::quant_approx(exact_tab));
  for (int64_t i = 0; i < yq.numel(); ++i) EXPECT_NEAR(ya[i], yq[i], 2e-3f);
}

TEST(Conv2d, ApproxTruncatedReducesMagnitude) {
  Rng rng(9);
  Conv2d conv({3, 8, 3, 1, 1, 1, false}, rng);
  Tensor x = randn(Shape{2, 3, 8, 8}, rng, 0.5f, 0.3f);
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = std::max(0.0f, x[i]);  // post-ReLU-like
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);

  const Tensor yq = conv.forward(x, ExecContext::quant_exact());
  const approx::SignedMulTable trunc(axmul::make_lut("trunc5"));
  const Tensor ya = conv.forward(x, ExecContext::quant_approx(trunc));
  EXPECT_LT(ops::sum(ya), ops::sum(yq));  // truncation under-estimates
  EXPECT_GT(ops::mse(ya, yq), 0.0);
}

TEST(Conv2d, FoldScaleShift) {
  Rng rng(10);
  Conv2d conv({2, 3, 3, 1, 1, 1, false}, rng);
  const Tensor x = randn(Shape{1, 2, 5, 5}, rng);
  const Tensor y0 = conv.forward(x, kFp);
  conv.fold_scale_shift({2.0f, 0.5f, 1.0f}, {0.1f, -0.2f, 0.0f});
  const Tensor y1 = conv.forward(x, kFp);
  for (int64_t i = 0; i < 5 * 5; ++i) {
    EXPECT_NEAR(y1[i], 2.0f * y0[i] + 0.1f, 1e-4f);                 // channel 0
    EXPECT_NEAR(y1[25 + i], 0.5f * y0[25 + i] - 0.2f, 1e-4f);       // channel 1
    EXPECT_NEAR(y1[50 + i], y0[50 + i], 1e-4f);                     // channel 2
  }
}

TEST(Linear, ForwardMatchesReference) {
  Rng rng(11);
  Linear lin(5, 3, rng);
  lin.bias_param().value[1] = 0.5f;
  const Tensor x = randn(Shape{4, 5}, rng);
  const Tensor y = lin.forward(x, kFp);
  for (int64_t i = 0; i < 4; ++i)
    for (int64_t j = 0; j < 3; ++j) {
      double acc = lin.bias_param().value[j];
      for (int64_t k = 0; k < 5; ++k) acc += static_cast<double>(x(i, k)) * lin.weight().value(j, k);
      EXPECT_NEAR(y(i, j), acc, 1e-4f);
    }
}

TEST(Linear, ApproxExactTableMatchesQuantExact) {
  Rng rng(12);
  Linear lin(9, 4, rng);
  const Tensor x = randn(Shape{3, 9}, rng, 0.0f, 0.5f);
  (void)lin.forward(x, ExecContext::calibrate());
  lin.finalize_calibration(quant::Calibration::kMinPropQE);
  const Tensor yq = lin.forward(x, ExecContext::quant_exact());
  const approx::SignedMulTable exact_tab;
  const Tensor ya = lin.forward(x, ExecContext::quant_approx(exact_tab));
  for (int64_t i = 0; i < yq.numel(); ++i) EXPECT_NEAR(ya[i], yq[i], 1e-3f);
}

TEST(Linear, QuantForwardBeforeCalibrationThrows) {
  Rng rng(1);
  Linear lin(4, 2, rng);
  const Tensor x(Shape{1, 4}, 0.5f);
  const approx::SignedMulTable tab;
  EXPECT_THROW(lin.forward(x, ExecContext::quant_exact()), std::logic_error);
  EXPECT_THROW(lin.forward(x, ExecContext::quant_approx(tab)), std::logic_error);
}

TEST(BatchNorm, NormalizesInTraining) {
  Rng rng(13);
  BatchNorm2d bn(3);
  const Tensor x = randn(Shape{4, 3, 5, 5}, rng, 2.0f, 3.0f);
  const Tensor y = bn.forward(x, kFpTrain);
  // Per-channel mean ~0, var ~1.
  const int64_t hw = 25;
  for (int64_t c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    for (int64_t b = 0; b < 4; ++b)
      for (int64_t i = 0; i < hw; ++i) mean += y(b, c, i / 5, i % 5);
    mean /= 4 * hw;
    for (int64_t b = 0; b < 4; ++b)
      for (int64_t i = 0; i < hw; ++i) {
        const double d = y(b, c, i / 5, i % 5) - mean;
        var += d * d;
      }
    var /= 4 * hw;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  Rng rng(14);
  BatchNorm2d bn(2);
  // Warm up the running statistics.
  for (int i = 0; i < 50; ++i) {
    const Tensor x = randn(Shape{8, 2, 4, 4}, rng, 1.0f, 2.0f);
    (void)bn.forward(x, kFpTrain);
  }
  const Tensor x = randn(Shape{8, 2, 4, 4}, rng, 1.0f, 2.0f);
  const Tensor y = bn.forward(x, kFp);
  EXPECT_NEAR(ops::mean(y), 0.0, 0.2);
}

TEST(BatchNorm, FoldIntoConvMatchesEval) {
  Rng rng(15);
  Conv2d conv({3, 4, 3, 1, 1, 1, false}, rng);
  BatchNorm2d bn(4);
  // Give BN non-trivial state.
  for (int i = 0; i < 30; ++i) {
    const Tensor x = randn(Shape{4, 3, 6, 6}, rng);
    (void)bn.forward(conv.forward(x, kFpTrain), kFpTrain);
  }
  bn.gamma().value[0] = 1.7f;
  bn.beta().value[2] = -0.4f;

  const Tensor x = randn(Shape{2, 3, 6, 6}, rng);
  const Tensor ref = bn.forward(conv.forward(x, kFp), kFp);
  bn.fold_into(conv);
  const Tensor folded = conv.forward(x, kFp);
  for (int64_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(folded[i], ref[i], 1e-3f);
}

TEST(Sequential, FoldBatchnormsRemovesBnLayers) {
  Rng rng(16);
  Sequential net;
  net.emplace<Conv2d>(Conv2dConfig{3, 4, 3, 1, 1, 1, false}, rng);
  net.emplace<BatchNorm2d>(4);
  net.emplace<ReLU>();
  net.emplace<Conv2d>(Conv2dConfig{4, 4, 3, 1, 1, 1, false}, rng);
  net.emplace<BatchNorm2d>(4);
  for (int i = 0; i < 20; ++i) {
    const Tensor x = randn(Shape{4, 3, 6, 6}, rng);
    (void)net.forward(x, kFpTrain);
  }
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng);
  const Tensor ref = net.forward(x, kFp);
  EXPECT_EQ(net.size(), 5u);
  net.fold_batchnorms();
  EXPECT_EQ(net.size(), 3u);
  const Tensor folded = net.forward(x, kFp);
  for (int64_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(folded[i], ref[i], 1e-3f);
}

TEST(Activations, ReLUForwardBackward) {
  ReLU relu;
  Tensor x(Shape{4});
  x[0] = -1.0f; x[1] = 0.0f; x[2] = 2.0f; x[3] = -0.5f;
  const Tensor y = relu.forward(x, kFp);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  Tensor dy(Shape{4}, 1.0f);
  const Tensor dx = relu.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[2], 1.0f);
}

TEST(Activations, ReLU6Saturates) {
  ReLU6 relu6;
  Tensor x(Shape{3});
  x[0] = -1.0f; x[1] = 3.0f; x[2] = 9.0f;
  const Tensor y = relu6.forward(x, kFp);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
  EXPECT_FLOAT_EQ(y[2], 6.0f);
  Tensor dy(Shape{3}, 1.0f);
  const Tensor dx = relu6.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 1.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
}

TEST(Pooling, GlobalAvgPool) {
  Tensor x(Shape{1, 2, 2, 2});
  for (int64_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  GlobalAvgPool pool;
  const Tensor y = pool.forward(x, kFp);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y(0, 0), 1.5f);   // mean of 0..3
  EXPECT_FLOAT_EQ(y(0, 1), 5.5f);   // mean of 4..7
  Tensor dy(Shape{1, 2}, 4.0f);
  const Tensor dx = pool.backward(dy);
  for (int64_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(dx[i], 1.0f);
}

TEST(Pooling, AvgPool2x2) {
  Tensor x(Shape{1, 1, 2, 2});
  x[0] = 1.0f; x[1] = 2.0f; x[2] = 3.0f; x[3] = 4.0f;
  AvgPool2x2 pool;
  const Tensor y = pool.forward(x, kFp);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_THROW(pool.forward(Tensor(Shape{1, 1, 3, 3}), kFp), std::invalid_argument);
}

TEST(Loss, CrossEntropyKnownValue) {
  Tensor logits(Shape{1, 2}, 0.0f);  // uniform -> loss = ln 2
  const LossResult r = cross_entropy(logits, {0});
  EXPECT_NEAR(r.value, std::log(2.0), 1e-6);
  EXPECT_NEAR(r.grad(0, 0), 0.5f - 1.0f, 1e-6f);
  EXPECT_NEAR(r.grad(0, 1), 0.5f, 1e-6f);
}

TEST(Loss, CrossEntropyRejectsBadLabels) {
  Tensor logits(Shape{2, 3}, 0.0f);
  EXPECT_THROW(cross_entropy(logits, {0}), std::invalid_argument);
  EXPECT_THROW(cross_entropy(logits, {0, 5}), std::invalid_argument);
}

TEST(Loss, MseLossGradient) {
  Tensor a(Shape{2}, 1.0f), b(Shape{2}, 0.0f);
  const LossResult r = mse_loss(a, b);
  EXPECT_DOUBLE_EQ(r.value, 1.0);
  EXPECT_FLOAT_EQ(r.grad[0], 1.0f);  // 2*(1-0)/2
}

TEST(Sgd, GradientDescentReducesQuadratic) {
  // Minimise f(w) = 0.5 * w^2 by feeding grad = w.
  Param w(Tensor(Shape{1}, 4.0f));
  Sgd sgd({&w}, {0.1f, 0.0f, 0.0f, 0.1f, 0});
  for (int i = 0; i < 100; ++i) {
    w.grad[0] = w.value[0];
    sgd.step();
  }
  EXPECT_NEAR(w.value[0], 0.0f, 1e-3f);
}

TEST(Sgd, MomentumAcceleratesDescent) {
  Param w1(Tensor(Shape{1}, 4.0f)), w2(Tensor(Shape{1}, 4.0f));
  Sgd plain({&w1}, {0.01f, 0.0f, 0.0f, 0.1f, 0});
  Sgd mom({&w2}, {0.01f, 0.9f, 0.0f, 0.1f, 0});
  for (int i = 0; i < 20; ++i) {
    w1.grad[0] = w1.value[0];
    w2.grad[0] = w2.value[0];
    plain.step();
    mom.step();
    w1.zero_grad();
    w2.zero_grad();
  }
  EXPECT_LT(std::fabs(w2.value[0]), std::fabs(w1.value[0]));
}

TEST(Sgd, StepDecaySchedule) {
  Param w(Tensor(Shape{1}, 1.0f));
  Sgd sgd({&w}, {1.0f, 0.0f, 0.0f, 0.1f, 2});
  EXPECT_FLOAT_EQ(sgd.lr(), 1.0f);
  sgd.on_epoch_end();
  EXPECT_FLOAT_EQ(sgd.lr(), 1.0f);
  sgd.on_epoch_end();
  EXPECT_FLOAT_EQ(sgd.lr(), 0.1f);
  sgd.on_epoch_end();
  sgd.on_epoch_end();
  EXPECT_NEAR(sgd.lr(), 0.01f, 1e-6f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Param w(Tensor(Shape{1}, 1.0f));
  Sgd sgd({&w}, {0.1f, 0.0f, 0.5f, 0.1f, 0});
  sgd.step();  // grad = 0, decay pulls toward zero
  EXPECT_LT(w.value[0], 1.0f);
}

TEST(Serialize, RoundTripPreservesParamsAndBuffers) {
  Rng rng(17);
  Sequential net;
  net.emplace<Conv2d>(Conv2dConfig{2, 3, 3, 1, 1, 1, true}, rng);
  net.emplace<BatchNorm2d>(3);
  net.emplace<ReLU>();
  // Mutate BN buffers.
  for (int i = 0; i < 5; ++i) (void)net.forward(randn(Shape{2, 2, 4, 4}, rng), kFpTrain);

  const std::string path =
      unique_temp_path("axnn_test_params") + ".axnp";
  save_params(net, path);
  EXPECT_TRUE(is_param_file(path));

  Rng rng2(99);
  Sequential net2;
  net2.emplace<Conv2d>(Conv2dConfig{2, 3, 3, 1, 1, 1, true}, rng2);
  net2.emplace<BatchNorm2d>(3);
  net2.emplace<ReLU>();
  load_params(net2, path);

  const Tensor x = randn(Shape{1, 2, 4, 4}, rng);
  const Tensor y1 = net.forward(x, kFp);
  const Tensor y2 = net2.forward(x, kFp);
  for (int64_t i = 0; i < y1.numel(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
  std::filesystem::remove(path);
}

TEST(Serialize, MismatchedStructureThrows) {
  Rng rng(18);
  Sequential net;
  net.emplace<Linear>(4, 2, rng);
  const std::string path =
      unique_temp_path("axnn_test_bad") + ".axnp";
  save_params(net, path);
  Sequential other;
  other.emplace<Linear>(4, 3, rng);
  EXPECT_THROW(load_params(other, path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFile) {
  Sequential net;
  EXPECT_THROW(load_params(net, "/nonexistent/nope.axnp"), std::runtime_error);
  EXPECT_FALSE(is_param_file("/nonexistent/nope.axnp"));
}

TEST(LayerTree, CollectParamsAndCounts) {
  Rng rng(19);
  Sequential net;
  net.emplace<Conv2d>(Conv2dConfig{3, 4, 3, 1, 1, 1, true}, rng);   // 108 + 4
  net.emplace<Linear>(4, 2, rng);                                   // 8 + 2
  EXPECT_EQ(collect_params(net).size(), 4u);
  EXPECT_EQ(count_parameters(net), 108 + 4 + 8 + 2);
}

TEST(LayerTree, CopyStateTransfersEverything) {
  Rng rng(20);
  Sequential a, b;
  a.emplace<Conv2d>(Conv2dConfig{2, 2, 3, 1, 1, 1, true}, rng);
  a.emplace<BatchNorm2d>(2);
  b.emplace<Conv2d>(Conv2dConfig{2, 2, 3, 1, 1, 1, true}, rng);
  b.emplace<BatchNorm2d>(2);
  for (int i = 0; i < 5; ++i) (void)a.forward(randn(Shape{2, 2, 4, 4}, rng), kFpTrain);
  copy_state(a, b);
  const Tensor x = randn(Shape{1, 2, 4, 4}, rng);
  const Tensor ya = a.forward(x, kFp);
  const Tensor yb = b.forward(x, kFp);
  for (int64_t i = 0; i < ya.numel(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(LayerTree, ZeroGradRecursive) {
  Rng rng(21);
  Sequential net;
  net.emplace<Conv2d>(Conv2dConfig{1, 1, 3, 1, 1, 1, true}, rng);
  auto params = collect_params(net);
  params[0]->grad.fill(5.0f);
  net.zero_grad();
  EXPECT_FLOAT_EQ(params[0]->grad[0], 0.0f);
}

}  // namespace
}  // namespace axnn::nn
