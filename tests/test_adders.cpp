// Tests for approximate adders and the approximate-accumulation GEMM path.
#include <gtest/gtest.h>

#include <cmath>

#include "axnn/axmul/adder.hpp"
#include "axnn/axmul/registry.hpp"
#include "axnn/kernels/int_gemm.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/quant/calibration.hpp"
#include "axnn/tensor/ops.hpp"

namespace axnn::axmul {
namespace {

TEST(ExactAdder, IsExact) {
  ExactAdder a;
  EXPECT_EQ(a.add(3, 4), 7);
  EXPECT_EQ(a.add(-1000, 999), -1);
  EXPECT_EQ(a.name(), "exact_add");
}

TEST(TruncatedAdder, ZeroBitsIsExact) {
  TruncatedAdder a(0);
  for (int32_t x : {-100, -1, 0, 1, 12345})
    for (int32_t y : {-7, 0, 99}) EXPECT_EQ(a.add(x, y), x + y);
}

TEST(TruncatedAdder, DropsLowBits) {
  TruncatedAdder a(4);
  EXPECT_EQ(a.add(0x13, 0x25), 0x30);  // 0x10 + 0x20
  EXPECT_EQ(a.add(0xF, 0xF), 0);       // both fully truncated
  EXPECT_EQ(a.add(0x100, 0x200), 0x300);  // aligned operands exact
}

TEST(TruncatedAdder, ErrorBounded) {
  TruncatedAdder a(6);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const int32_t x = static_cast<int32_t>(rng.uniform_int(1 << 16)) - (1 << 15);
    const int32_t y = static_cast<int32_t>(rng.uniform_int(1 << 16)) - (1 << 15);
    const int32_t err = a.add(x, y) - (x + y);
    EXPECT_LE(std::abs(err), 2 * 63 + 1);
  }
}

TEST(LoaAdder, ZeroBitsIsExact) {
  LoaAdder a(0);
  EXPECT_EQ(a.add(123, -45), 78);
}

TEST(LoaAdder, OrLowerBits) {
  LoaAdder a(4);
  // low(a|b) = 0x3 | 0x5 = 0x7; high = 0x10 + 0x20 = 0x30.
  EXPECT_EQ(a.add(0x13, 0x25), 0x37);
}

TEST(LoaAdder, ErrorBoundedByLowerPart) {
  LoaAdder a(5);
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const int32_t x = static_cast<int32_t>(rng.uniform_int(1 << 14));
    const int32_t y = static_cast<int32_t>(rng.uniform_int(1 << 14));
    const int32_t err = a.add(x, y) - (x + y);
    EXPECT_LE(std::abs(err), 1 << 5);
  }
}

TEST(Adders, Validation) {
  EXPECT_THROW(TruncatedAdder(-1), std::invalid_argument);
  EXPECT_THROW(TruncatedAdder(30), std::invalid_argument);
  EXPECT_THROW(LoaAdder(25), std::invalid_argument);
}

TEST(Adders, FactoryRoundTrip) {
  EXPECT_EQ(make_adder("exact_add")->name(), "exact_add");
  EXPECT_EQ(make_adder("truncadd6")->name(), "truncadd6");
  EXPECT_EQ(make_adder("loa8")->name(), "loa8");
  EXPECT_THROW(make_adder("mystery"), std::invalid_argument);
}

class AdderSeveritySweep : public ::testing::TestWithParam<int> {};

TEST_P(AdderSeveritySweep, MoreBitsMoreError) {
  const int k = GetParam();
  const auto lo = compute_adder_stats(LoaAdder(k));
  const auto hi = compute_adder_stats(LoaAdder(k + 2));
  EXPECT_LE(lo.rms_error, hi.rms_error + 1e-9);
  const auto tlo = compute_adder_stats(TruncatedAdder(k));
  const auto thi = compute_adder_stats(TruncatedAdder(k + 2));
  EXPECT_LE(tlo.rms_error, thi.rms_error + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Bits, AdderSeveritySweep, ::testing::Values(1, 2, 4, 6, 8));

TEST(Adders, ExactStatsAreZero) {
  const auto s = compute_adder_stats(ExactAdder{});
  EXPECT_DOUBLE_EQ(s.rms_error, 0.0);
  EXPECT_DOUBLE_EQ(s.mre, 0.0);
}

TEST(AccumGemm, ExactAdderMatchesFastPath) {
  Rng rng(3);
  TensorI8 w(Shape{4, 19}), x(Shape{19, 7});
  for (int64_t i = 0; i < w.numel(); ++i)
    w[i] = static_cast<int8_t>(rng.uniform_int(15) - 7);
  for (int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<int8_t>(rng.uniform_int(255) - 127);
  const approx::SignedMulTable tab(make_lut("trunc3"));

  TensorI32 fast(Shape{4, 7}), accum(Shape{4, 7});
  kernels::gemm_approx({}, w.data(), x.data(), fast.data(), 4, 19, 7, tab);
  const ExactAdder exact_add;
  kernels::gemm_approx_accum({}, w.data(), x.data(), accum.data(), 4, 19, 7, tab,
                             exact_add);
  for (int64_t i = 0; i < fast.numel(); ++i) EXPECT_EQ(fast[i], accum[i]);
}

TEST(AccumGemm, ApproximateAdderPerturbsResult) {
  Rng rng(4);
  TensorI8 w(Shape{3, 40}), x(Shape{40, 5});
  for (int64_t i = 0; i < w.numel(); ++i)
    w[i] = static_cast<int8_t>(rng.uniform_int(15) - 7);
  for (int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<int8_t>(rng.uniform_int(128));
  const approx::SignedMulTable tab;  // exact multiplier, approximate adder

  TensorI32 ref(Shape{3, 5}), out(Shape{3, 5});
  kernels::gemm_exact({}, w.data(), x.data(), ref.data(), 3, 40, 5);
  const TruncatedAdder trunc(6);
  kernels::gemm_approx_accum({}, w.data(), x.data(), out.data(), 3, 40, 5, tab, trunc);
  int64_t diff = 0;
  for (int64_t i = 0; i < ref.numel(); ++i) diff += (ref[i] != out[i]);
  EXPECT_GT(diff, 0);
  // Error per output is bounded by k additions x per-add bound.
  for (int64_t i = 0; i < ref.numel(); ++i)
    EXPECT_LE(std::abs(ref[i] - out[i]), 40 * 2 * 63 + 64);
}

TEST(AccumGemm, ConvLayerHonoursContextAdder) {
  Rng rng(5);
  nn::Conv2d conv({2, 3, 3, 1, 1, 1, true}, rng);
  const Tensor input = randn(Shape{1, 2, 6, 6}, rng, 0.4f, 0.3f);
  (void)conv.forward(input, nn::ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);

  const approx::SignedMulTable tab;  // exact multiplier isolates the adder
  nn::ExecContext ctx = nn::ExecContext::quant_approx(tab);
  const Tensor ref = conv.forward(input, ctx);

  const TruncatedAdder trunc(7);
  const Tensor approx_out = conv.forward(input, ctx.with_adder(trunc));
  EXPECT_GT(ops::mse(ref, approx_out), 0.0);

  const ExactAdder exact_add;
  const Tensor same = conv.forward(input, ctx.with_adder(exact_add));
  for (int64_t i = 0; i < ref.numel(); ++i) EXPECT_FLOAT_EQ(same[i], ref[i]);
}

}  // namespace
}  // namespace axnn::axmul
