// Tests for symmetric power-of-two quantization and calibration.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "axnn/quant/calibration.hpp"
#include "axnn/quant/quantizer.hpp"
#include "axnn/tensor/ops.hpp"

namespace axnn::quant {
namespace {

TEST(QuantParams, SymmetricBounds) {
  QuantParams p{1.0f, 8};
  EXPECT_EQ(p.qmax(), 127);
  EXPECT_EQ(p.qmin(), -127);
  QuantParams w{1.0f, 4};
  EXPECT_EQ(w.qmax(), 7);
  EXPECT_EQ(w.qmin(), -7);
}

TEST(RoundToPow2, SnapsToNearestPower) {
  EXPECT_FLOAT_EQ(round_to_pow2(1.0f), 1.0f);
  EXPECT_FLOAT_EQ(round_to_pow2(0.9f), 1.0f);
  EXPECT_FLOAT_EQ(round_to_pow2(1.3f), 1.0f);
  EXPECT_FLOAT_EQ(round_to_pow2(3.0f), 4.0f);
  EXPECT_FLOAT_EQ(round_to_pow2(0.02f), 0.015625f);
  EXPECT_THROW(round_to_pow2(0.0f), std::invalid_argument);
}

TEST(ParamsForMaxAbs, StepIsPow2AndCovers) {
  for (float ma : {0.1f, 0.73f, 1.0f, 5.3f, 100.0f}) {
    for (int bits : {4, 8}) {
      const QuantParams p = params_for_max_abs(ma, bits);
      // Power of two: log2 is integral.
      const float l = std::log2f(p.step);
      EXPECT_FLOAT_EQ(l, std::round(l));
      EXPECT_GE(p.range(), ma * 0.999f);
      // Not wastefully large: halving the step would fail to cover.
      EXPECT_LT(p.step * 0.5f * static_cast<float>(p.qmax()), ma);
    }
  }
}

TEST(ParamsForMaxAbs, DegenerateZeroTensor) {
  const QuantParams p = params_for_max_abs(0.0f, 8);
  EXPECT_GT(p.step, 0.0f);
}

TEST(Quantize, RoundTripWithinHalfStep) {
  Rng rng(1);
  const Tensor x = randn(Shape{1000}, rng, 0.0f, 0.3f);
  const QuantParams p = calibrate_max_abs(x, 8);
  const TensorI32 q = quantize(x, p);
  const Tensor xd = dequantize(q, p);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(xd[i], x[i], 0.5f * p.step + 1e-6f);
}

TEST(Quantize, ClampsToRange) {
  Tensor x(Shape{3});
  x[0] = 100.0f; x[1] = -100.0f; x[2] = 0.0f;
  const QuantParams p{0.1f, 4};
  const TensorI32 q = quantize(x, p);
  EXPECT_EQ(q[0], 7);
  EXPECT_EQ(q[1], -7);
  EXPECT_EQ(q[2], 0);
}

TEST(Quantize, SaturatesInsteadOfWrapping) {
  // Scaled values far outside the int32 range used to wrap through lrintf;
  // the quantizers now clamp in float first. For every non-NaN input the
  // int8 and int32 results equal fake_quantize(x) / step; NaN gives 0.
  const float inf = std::numeric_limits<float>::infinity();
  for (const QuantParams p : {QuantParams{0.125f, 8}, QuantParams{0.5f, 4}}) {
    const float qmax = static_cast<float>(p.qmax());
    std::vector<float> scaled{inf, 1e20f, 5e9f, 3e9f, qmax + 0.5f, qmax - 0.5f, 0.5f, 1.5f, 2.5f};
    std::vector<float> xs;
    for (const float v : scaled) {
      xs.push_back(v * p.step);
      xs.push_back(-v * p.step);
    }
    xs.push_back(std::numeric_limits<float>::quiet_NaN());
    const int64_t n = static_cast<int64_t>(xs.size());
    const Tensor x(Shape{n}, xs);
    const Tensor fq = fake_quantize(x, p);
    const TensorI32 q32 = quantize(x, p);
    std::vector<int8_t> q8(xs.size());
    quantize_into(xs.data(), n, p, q8.data());
    for (int64_t i = 0; i < n; ++i) {
      SCOPED_TRACE("bits " + std::to_string(p.bits) + " x " + std::to_string(xs[i]));
      if (std::isnan(xs[i])) {
        EXPECT_EQ(q32[i], 0);
        EXPECT_EQ(q8[i], 0);
        continue;
      }
      const float want = fq[i] / p.step;
      EXPECT_EQ(static_cast<float>(q32[i]), want);
      EXPECT_EQ(static_cast<float>(q8[i]), want);
    }
    // Spot checks of the documented semantics: saturation and ties to even.
    EXPECT_EQ(q32[0], p.qmax());   // +inf
    EXPECT_EQ(q32[1], p.qmin());   // -inf
    EXPECT_EQ(q32[4], p.qmax());   // +5e9
    EXPECT_EQ(q32[7], p.qmin());   // -3e9
    EXPECT_EQ(q32[12], 0);         // +0.5 step ties to even
    EXPECT_EQ(q32[16], 2);         // +2.5 step ties to even
  }
}

TEST(Quantize, VectorPathsMatchScalarBitForBit) {
  // Long enough to run the AVX2 (32-wide), SSE2 (16/4-wide) and scalar tail
  // loops; special values are interleaved with random ones at every offset.
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {inf, -inf, std::numeric_limits<float>::quiet_NaN(), 1e20f, -1e20f,
                            5e9f, -5e9f, 3e9f, -3e9f, 0.0f, -0.0f};
  Rng rng(5);
  const Tensor noise = randn(Shape{32 * 5 + 16 + 4 + 3}, rng, 0.0f, 40.0f);
  std::vector<float> xs(noise.data(), noise.data() + noise.numel());
  for (size_t i = 0; i < xs.size(); i += 7) xs[i] = specials[(i / 7) % std::size(specials)];
  const int64_t n = static_cast<int64_t>(xs.size());
  for (const QuantParams p : {QuantParams{0.25f, 8}, QuantParams{1.0f, 4}, QuantParams{0.5f, 2}}) {
    std::vector<int8_t> v8(xs.size()), s8(xs.size());
    std::vector<int32_t> v32(xs.size()), s32(xs.size());
    for (int64_t off : {int64_t{0}, int64_t{1}, int64_t{3}}) {
      quantize_into(xs.data() + off, n - off, p, v8.data());
      detail::quantize_scalar(xs.data() + off, n - off, p, s8.data());
      quantize_into(xs.data() + off, n - off, p, v32.data());
      detail::quantize_scalar(xs.data() + off, n - off, p, s32.data());
      for (int64_t i = 0; i < n - off; ++i) {
        ASSERT_EQ(v8[i], s8[i]) << "int8 bits " << p.bits << " offset " << off << " i " << i;
        ASSERT_EQ(v32[i], s32[i]) << "int32 bits " << p.bits << " offset " << off << " i " << i;
        ASSERT_EQ(v8[i], v32[i]) << "bits " << p.bits << " offset " << off << " i " << i;
      }
    }
  }
}

TEST(FakeQuantize, MatchesQuantizeDequantize) {
  Rng rng(2);
  const Tensor x = randn(Shape{500}, rng);
  const QuantParams p = calibrate_max_abs(x, 4);
  const Tensor fq = fake_quantize(x, p);
  const Tensor qd = dequantize(quantize(x, p), p);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(fq[i], qd[i], 1e-6f);
}

TEST(FakeQuantize, IsIdempotent) {
  Rng rng(3);
  const Tensor x = randn(Shape{200}, rng);
  const QuantParams p = calibrate_max_abs(x, 8);
  const Tensor once = fake_quantize(x, p);
  const Tensor twice = fake_quantize(once, p);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(once[i], twice[i]);
}

TEST(SteMask, BlocksSaturatedValues) {
  Tensor x(Shape{3});
  const QuantParams p{0.1f, 4};  // range 0.7
  x[0] = 0.5f; x[1] = 0.71f; x[2] = -2.0f;
  const Tensor m = ste_mask(x, p);
  EXPECT_FLOAT_EQ(m[0], 1.0f);
  EXPECT_FLOAT_EQ(m[1], 0.0f);
  EXPECT_FLOAT_EQ(m[2], 0.0f);
}

TEST(QuantizationMse, ZeroForRepresentableValues) {
  Tensor x(Shape{4});
  const QuantParams p{0.25f, 8};
  x[0] = 0.25f; x[1] = -0.5f; x[2] = 0.0f; x[3] = 1.75f;
  EXPECT_NEAR(quantization_mse(x, p), 0.0, 1e-12);
}

class BitWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitWidthSweep, MoreBitsNeverWorse) {
  const int bits = GetParam();
  Rng rng(42);
  const Tensor x = randn(Shape{2000}, rng);
  const QuantParams lo = calibrate_max_abs(x, bits);
  const QuantParams hi = calibrate_max_abs(x, bits + 1);
  EXPECT_LE(quantization_mse(x, hi), quantization_mse(x, lo) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Bits, BitWidthSweep, ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(Calibration, MinMseNeverWorseThanMaxAbs) {
  Rng rng(5);
  // Heavy-tailed data: min-MSE should saturate the outlier and win. The
  // bulk needs enough spread that covering the outlier (and crushing the
  // bulk into the rounding floor) costs more than clipping it.
  Tensor x = randn(Shape{4000}, rng, 0.0f, 0.5f);
  x[0] = 16.0f;  // one extreme outlier
  const QuantParams pm = calibrate_max_abs(x, 4);
  const QuantParams pq = calibrate_min_mse(x, 4);
  EXPECT_LE(quantization_mse(x, pq), quantization_mse(x, pm) + 1e-12);
  EXPECT_LT(pq.step, pm.step);  // the outlier gets clipped
}

TEST(Calibration, MinPropQEUsesFunctional) {
  Rng rng(6);
  const Tensor x = randn(Shape{100}, rng);
  // A functional that prefers the largest candidate step.
  int calls = 0;
  const QuantParams p = calibrate_min_prop_qe(x, 4, [&](const QuantParams& q) {
    ++calls;
    return -static_cast<double>(q.step);
  });
  EXPECT_GT(calls, 1);
  // Largest candidate = one doubling above max-abs.
  const QuantParams base = calibrate_max_abs(x, 4);
  EXPECT_FLOAT_EQ(p.step, base.step * 2.0f);
  EXPECT_THROW(calibrate_min_prop_qe(x, 4, nullptr), std::invalid_argument);
}

TEST(Calibration, CandidateStepsArePow2Ladder) {
  const auto cands = candidate_steps(1.0f, 8, 3, 2);
  ASSERT_EQ(cands.size(), 6u);
  for (size_t i = 1; i < cands.size(); ++i)
    EXPECT_FLOAT_EQ(cands[i].step, cands[i - 1].step * 2.0f);
}

TEST(RangeObserver, TracksMaxAbs) {
  RangeObserver obs;
  EXPECT_FALSE(obs.seen());
  Tensor x(Shape{3});
  x[0] = 0.5f; x[1] = -2.5f; x[2] = 1.0f;
  obs.observe(x);
  EXPECT_TRUE(obs.seen());
  EXPECT_FLOAT_EQ(obs.max_abs(), 2.5f);
  obs.observe_value(-3.0f);
  EXPECT_FLOAT_EQ(obs.max_abs(), 3.0f);
  obs.reset();
  EXPECT_FALSE(obs.seen());
  EXPECT_FLOAT_EQ(obs.max_abs(), 0.0f);
}

TEST(RangeObserver, MinMseSaturatesOutliers) {
  RangeObserver obs;
  Rng rng(7);
  Tensor x = randn(Shape{5000}, rng, 0.0f, 0.05f);
  x[0] = 8.0f;
  obs.observe(x);
  const QuantParams worst_case = obs.params(8);
  const QuantParams dist_aware = obs.params_min_mse(8);
  EXPECT_LT(dist_aware.step, worst_case.step);
}

TEST(RangeObserver, ReservoirDecimationKeepsWorking) {
  RangeObserver obs(64);  // tiny reservoir forces several decimations
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) obs.observe_value(static_cast<float>(rng.normal()));
  const QuantParams p = obs.params_min_mse(8);
  EXPECT_GT(p.step, 0.0f);
}

}  // namespace
}  // namespace axnn::quant
