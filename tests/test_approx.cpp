// Tests for the signed multiplication table and approximate integer GEMM.
#include <gtest/gtest.h>

#include "axnn/axmul/registry.hpp"
#include "axnn/axmul/truncated.hpp"
#include "axnn/kernels/int_gemm.hpp"
#include "axnn/kernels/signed_lut.hpp"
#include "axnn/tensor/rng.hpp"
#include "axnn/tensor/tensor.hpp"

namespace axnn::approx {
namespace {

TEST(SignedMulTable, ExactTableMatchesProducts) {
  SignedMulTable tab;
  for (int a = -127; a <= 127; a += 13)
    for (int w = -7; w <= 7; ++w) EXPECT_EQ(tab(a, w), a * w);
}

TEST(SignedMulTable, SignMagnitudeWrapping) {
  SignedMulTable tab(axmul::MultiplierLut(axmul::TruncatedMultiplier(3)));
  axmul::TruncatedMultiplier m(3);
  for (int a = -127; a <= 127; a += 7)
    for (int w = -7; w <= 7; ++w) {
      const int32_t mag = m.multiply(static_cast<uint8_t>(std::abs(a)),
                                     static_cast<uint8_t>(std::abs(w)));
      const int32_t expect = ((a < 0) != (w < 0)) ? -mag : mag;
      EXPECT_EQ(tab(a, w), expect) << "a=" << a << " w=" << w;
    }
}

TEST(SignedMulTable, ZeroOperandsGiveZero) {
  SignedMulTable tab(axmul::MultiplierLut(axmul::TruncatedMultiplier(5)));
  for (int a = -127; a <= 127; ++a) EXPECT_EQ(tab(a, 0), 0);
  for (int w = -7; w <= 7; ++w) EXPECT_EQ(tab(0, w), 0);
}

TEST(SignedMulTable, NameCarriesThrough) {
  SignedMulTable tab(axmul::make_lut("trunc2"));
  EXPECT_EQ(tab.name(), "trunc2");
}

TensorI8 random_i8(Shape shape, Rng& rng, int lo, int hi) {
  TensorI8 t(shape);
  for (int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<int8_t>(lo + rng.uniform_int(hi - lo + 1));
  return t;
}

/// C[M,N] = W[M,K] ·~ X[K,N] through the kernel dispatch (Eq. 4).
TensorI32 approx_matmul(const TensorI8& w, const TensorI8& x, const SignedMulTable& tab) {
  const int64_t m = w.shape()[0], k = w.shape()[1], n = x.shape()[1];
  TensorI32 c(Shape{m, n});
  kernels::gemm_approx({}, w.data(), x.data(), c.data(), m, k, n, tab);
  return c;
}

TEST(ApproxGemm, ExactTableMatchesIntegerGemm) {
  Rng rng(1);
  const TensorI8 w = random_i8(Shape{5, 17}, rng, -7, 7);
  const TensorI8 x = random_i8(Shape{17, 9}, rng, -127, 127);
  SignedMulTable tab;  // exact
  const TensorI32 c = approx_matmul(w, x, tab);

  TensorI32 ref(Shape{5, 9});
  kernels::gemm_exact({}, w.data(), x.data(), ref.data(), 5, 17, 9);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], ref[i]);
}

TEST(ApproxGemm, MatchesScalarReferenceWithApproxTable) {
  Rng rng(2);
  const TensorI8 w = random_i8(Shape{4, 23}, rng, -7, 7);
  const TensorI8 x = random_i8(Shape{23, 11}, rng, 0, 127);
  SignedMulTable tab(axmul::make_lut("trunc4"));
  const TensorI32 c = approx_matmul(w, x, tab);
  for (int64_t i = 0; i < 4; ++i)
    for (int64_t j = 0; j < 11; ++j) {
      int32_t acc = 0;
      for (int64_t k = 0; k < 23; ++k) acc += tab(x(k, j), w(i, k));
      EXPECT_EQ(c(i, j), acc);
    }
}

TEST(ApproxGemm, ZeroWeightRowsGiveZeroOutput) {
  Rng rng(3);
  TensorI8 w(Shape{2, 8}, std::vector<int8_t>(16, 0));
  const TensorI8 x = random_i8(Shape{8, 5}, rng, -127, 127);
  SignedMulTable tab(axmul::make_lut("trunc5"));
  const TensorI32 c = approx_matmul(w, x, tab);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 0);
}

TEST(ApproxGemm, TruncationUnderestimatesMagnitude) {
  // With non-negative activations and weights, trunc products <= exact.
  Rng rng(4);
  const TensorI8 w = random_i8(Shape{6, 32}, rng, 0, 7);
  const TensorI8 x = random_i8(Shape{32, 16}, rng, 0, 127);
  SignedMulTable tab(axmul::make_lut("trunc5"));
  const TensorI32 approx = approx_matmul(w, x, tab);
  TensorI32 exact(Shape{6, 16});
  kernels::gemm_exact({}, w.data(), x.data(), exact.data(), 6, 32, 16);
  for (int64_t i = 0; i < approx.numel(); ++i) EXPECT_LE(approx[i], exact[i]);
}

class ApproxGemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ApproxGemmSizes, ConsistentAcrossSizes) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 131 + k * 17 + n);
  const TensorI8 w = random_i8(Shape{m, k}, rng, -7, 7);
  const TensorI8 x = random_i8(Shape{k, n}, rng, -127, 127);
  SignedMulTable tab(axmul::make_lut("trunc3"));
  const TensorI32 c = approx_matmul(w, x, tab);
  // Spot-check corners against the scalar definition (Eq. 4).
  for (const auto& [i, j] : {std::pair<int64_t, int64_t>{0, 0},
                            {m - 1, n - 1},
                            {0, n - 1},
                            {m - 1, 0}}) {
    int32_t acc = 0;
    for (int64_t kk = 0; kk < k; ++kk) acc += tab(x(kk, j), w(i, kk));
    EXPECT_EQ(c(i, j), acc);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ApproxGemmSizes,
                         ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 9, 4),
                                           std::make_tuple(16, 36, 64),
                                           std::make_tuple(8, 72, 100),
                                           std::make_tuple(31, 27, 33)));

}  // namespace
}  // namespace axnn::approx
