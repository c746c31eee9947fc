// Tests for the resilience subsystem: seeded fault injection (weights,
// activations, multiplier LUTs), CRC32, and the divergence guard.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "axnn/axmul/registry.hpp"
#include "axnn/kernels/signed_lut.hpp"
#include "axnn/resilience/crc32.hpp"
#include "axnn/resilience/fault.hpp"
#include "axnn/resilience/guard.hpp"
#include "axnn/tensor/rng.hpp"

namespace axnn::resilience {
namespace {

Tensor ramp_tensor(int64_t n, float base = 1.0f) {
  Tensor t(Shape{n});
  for (int64_t i = 0; i < n; ++i) t[i] = base + 0.001f * static_cast<float>(i);
  return t;
}

/// Bit-pattern equality: corrupted floats are frequently NaN, where
/// operator== is always false even for identical words.
bool bits_equal(float x, float y) {
  uint32_t a, b;
  std::memcpy(&a, &x, sizeof(a));
  std::memcpy(&b, &y, sizeof(b));
  return a == b;
}

FaultSpec heavy_spec(double rate = 0.2, uint64_t seed = 7) {
  FaultSpec fs;
  fs.rate = rate;
  fs.seed = seed;
  return fs;
}

TEST(FaultInjector, DisabledByDefaultAndAtRateZero) {
  const FaultInjector def;
  EXPECT_FALSE(def.enabled());

  FaultSpec fs;
  fs.rate = 0.0;
  const FaultInjector inj(fs);
  EXPECT_FALSE(inj.enabled());

  Tensor t = ramp_tensor(256);
  const Tensor orig = t;
  inj.corrupt(t);
  inj.begin_pass();
  inj.corrupt(t.data(), t.numel(), /*site=*/0);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], orig[i]);
  EXPECT_EQ(inj.flips(), 0);
}

TEST(FaultInjector, DeterministicForSameSeedAndPass) {
  Tensor a = ramp_tensor(1024);
  Tensor b = a;
  const FaultInjector i1(heavy_spec());
  const FaultInjector i2(heavy_spec());
  i1.begin_pass();
  i2.begin_pass();
  i1.corrupt(a.data(), a.numel(), /*site=*/3);
  i2.corrupt(b.data(), b.numel(), /*site=*/3);
  EXPECT_GT(i1.flips(), 0);
  EXPECT_EQ(i1.flips(), i2.flips());
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_TRUE(bits_equal(a[i], b[i])) << i;
}

TEST(FaultInjector, DifferentSeedsOrSitesDiffer) {
  const Tensor orig = ramp_tensor(4096);
  Tensor a = orig, b = orig, c = orig;
  const FaultInjector i1(heavy_spec(0.1, 7));
  const FaultInjector i2(heavy_spec(0.1, 8));
  i1.corrupt(a.data(), a.numel(), 0);
  i2.corrupt(b.data(), b.numel(), 0);
  i1.corrupt(c.data(), c.numel(), 1);  // same injector, other site
  const auto differs = [&](const Tensor& x, const Tensor& y) {
    for (int64_t i = 0; i < x.numel(); ++i)
      if (!bits_equal(x[i], y[i])) return true;
    return false;
  };
  EXPECT_TRUE(differs(a, b));
  EXPECT_TRUE(differs(a, c));
}

TEST(FaultInjector, TransientResamplesAcrossPasses) {
  const Tensor orig = ramp_tensor(4096);
  Tensor p0 = orig, p1 = orig;
  const FaultInjector inj(heavy_spec(0.05));
  inj.corrupt(p0.data(), p0.numel(), 0);  // pass 0
  inj.begin_pass();
  inj.corrupt(p1.data(), p1.numel(), 0);  // pass 1
  bool differs = false;
  for (int64_t i = 0; i < orig.numel() && !differs; ++i) differs = !bits_equal(p0[i], p1[i]);
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, StuckAtIsStableAcrossPasses) {
  FaultSpec fs = heavy_spec(0.05);
  fs.kind = FaultKind::kStuckAt;
  const FaultInjector inj(fs);
  const Tensor orig = ramp_tensor(4096);
  Tensor p0 = orig, p1 = orig;
  inj.corrupt(p0.data(), p0.numel(), 0);
  inj.begin_pass();
  inj.corrupt(p1.data(), p1.numel(), 0);
  for (int64_t i = 0; i < orig.numel(); ++i) EXPECT_TRUE(bits_equal(p0[i], p1[i])) << i;
  // And re-corrupting an already-faulty buffer is idempotent (bits are
  // forced, not toggled).
  Tensor again = p0;
  inj.begin_pass();
  inj.corrupt(again.data(), again.numel(), 0);
  for (int64_t i = 0; i < orig.numel(); ++i) EXPECT_TRUE(bits_equal(again[i], p0[i])) << i;
}

TEST(FaultInjector, HonorsBitRange) {
  FaultSpec fs = heavy_spec(1.0);  // hit every element
  fs.bit_lo = 31;                  // sign bit only
  fs.bit_hi = 32;
  const FaultInjector inj(fs);
  Tensor t = ramp_tensor(128, 2.0f);
  const Tensor orig = t;
  inj.corrupt(t.data(), t.numel(), 0);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(std::fabs(t[i]), orig[i]) << i;  // magnitude untouched
  }
  EXPECT_EQ(inj.flips(), t.numel());
}

TEST(FaultInjector, PassWindowGatesActivity) {
  FaultSpec fs = heavy_spec(1.0);
  fs.first_pass = 1;
  fs.last_pass = 2;
  const FaultInjector inj(fs);
  EXPECT_TRUE(inj.enabled());

  Tensor t = ramp_tensor(64);
  const Tensor orig = t;
  EXPECT_FALSE(inj.active());  // pass 0
  inj.corrupt(t);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], orig[i]);

  inj.begin_pass();  // pass 1: inside the window
  EXPECT_TRUE(inj.active());
  inj.corrupt(t);
  EXPECT_GT(inj.flips(), 0);

  Tensor u = ramp_tensor(64);
  inj.begin_pass();  // pass 2: window closed again
  EXPECT_FALSE(inj.active());
  const int64_t flips_before = inj.flips();
  inj.corrupt(u);
  EXPECT_EQ(inj.flips(), flips_before);
}

TEST(FaultInjector, CorruptTensorsHitsEveryTensor) {
  Tensor a = ramp_tensor(512), b = ramp_tensor(512);
  const Tensor oa = a, ob = b;
  const FaultInjector inj(heavy_spec(0.5));
  corrupt_tensors({&a, &b}, inj);
  const auto count_diffs = [](const Tensor& x, const Tensor& y) {
    int64_t n = 0;
    for (int64_t i = 0; i < x.numel(); ++i) n += !bits_equal(x[i], y[i]);
    return n;
  };
  EXPECT_GT(count_diffs(a, oa), 0);
  EXPECT_GT(count_diffs(b, ob), 0);
  // Distinct per-tensor sites: the two tensors must not share a fault map.
  bool same_map = true;
  for (int64_t i = 0; i < a.numel() && same_map; ++i)
    same_map = bits_equal(a[i], oa[i]) == bits_equal(b[i], ob[i]);
  EXPECT_FALSE(same_map);
}

TEST(FaultInjector, CorruptLutChangesProducts) {
  approx::SignedMulTable clean(axmul::make_lut("trunc5"));
  approx::SignedMulTable faulty = clean;
  FaultSpec fs = heavy_spec(0.05);
  fs.kind = FaultKind::kStuckAt;
  fs.bit_hi = 12;
  const FaultInjector inj(fs);
  corrupt_lut(faulty, inj);
  EXPECT_GT(inj.flips(), 0);
  int64_t diffs = 0;
  for (int32_t qa = -128; qa <= 127; ++qa)
    for (int32_t qw = -8; qw <= 7; ++qw) diffs += clean(qa, qw) != faulty(qa, qw);
  EXPECT_GT(diffs, 0);
}

TEST(Crc32, KnownVectorAndIncremental) {
  // IEEE 802.3 check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Incremental == one-shot.
  const uint32_t part = crc32(s, 4);
  EXPECT_EQ(crc32(s + 4, 5, part), crc32(s, 9));
  // Single bit flip changes the checksum.
  char buf[9];
  std::memcpy(buf, s, 9);
  buf[3] ^= 0x10;
  EXPECT_NE(crc32(buf, 9), crc32(s, 9));
}

TEST(Guard, L2Norm) {
  Tensor a(Shape{3});
  a[0] = 3.0f;
  a[1] = 0.0f;
  a[2] = 0.0f;
  Tensor b(Shape{1});
  b[0] = 4.0f;
  EXPECT_DOUBLE_EQ(l2_norm({&a, &b}), 5.0);
  EXPECT_DOUBLE_EQ(l2_norm({}), 0.0);
}

TEST(Guard, DisabledGuardNeverActs) {
  GuardConfig gc;
  gc.enabled = false;
  Tensor w = ramp_tensor(8);
  DivergenceGuard guard(gc, {&w});
  EXPECT_FALSE(guard.wants_grad_norm());
  const auto nan = std::nan("");
  EXPECT_EQ(guard.observe(nan, 1e30, 0, 0, 0.1f), DivergenceGuard::Action::kContinue);
  EXPECT_TRUE(guard.report().clean());
}

TEST(Guard, NanLossRollsBackToCommittedState) {
  Tensor w = ramp_tensor(16);
  const Tensor good = w;
  DivergenceGuard guard(GuardConfig{}, {&w});
  guard.commit();

  w.fill(777.0f);  // diverged weights the rollback must undo
  const auto act = guard.observe(std::nan(""), 0.0, /*epoch=*/2, /*batch=*/5, 0.1f);
  EXPECT_EQ(act, DivergenceGuard::Action::kRollback);
  for (int64_t i = 0; i < w.numel(); ++i) EXPECT_EQ(w[i], good[i]) << i;

  const auto& rep = guard.report();
  ASSERT_EQ(rep.events.size(), 1u);
  EXPECT_EQ(rep.rollbacks, 1);
  EXPECT_EQ(rep.events[0].cause, "nan-loss");
  EXPECT_EQ(rep.events[0].epoch, 2);
  EXPECT_EQ(rep.events[0].batch, 5);
  EXPECT_FLOAT_EQ(rep.events[0].lr_before, 0.1f);
  EXPECT_FLOAT_EQ(rep.events[0].lr_after, 0.05f);
  EXPECT_FALSE(rep.gave_up);
  EXPECT_NE(rep.summary().find("nan-loss"), std::string::npos);
}

TEST(Guard, GradExplosionDetectedOnlyWithLimit) {
  Tensor w = ramp_tensor(4);
  {
    DivergenceGuard guard(GuardConfig{}, {&w});  // limit 0: norm check off
    EXPECT_FALSE(guard.wants_grad_norm());
    EXPECT_EQ(guard.observe(0.5, 1e30, 0, 0, 0.1f), DivergenceGuard::Action::kContinue);
  }
  GuardConfig gc;
  gc.grad_norm_limit = 100.0;
  DivergenceGuard guard(gc, {&w});
  guard.commit();
  EXPECT_TRUE(guard.wants_grad_norm());
  EXPECT_EQ(guard.observe(0.5, 99.0, 0, 0, 0.1f), DivergenceGuard::Action::kContinue);
  EXPECT_EQ(guard.observe(0.5, 101.0, 0, 1, 0.1f), DivergenceGuard::Action::kRollback);
  EXPECT_EQ(guard.report().events[0].cause, "grad-explosion");
  // Non-finite norms count as explosions too.
  EXPECT_EQ(guard.observe(0.5, std::numeric_limits<double>::infinity(), 0, 2, 0.05f),
            DivergenceGuard::Action::kRollback);
}

TEST(Guard, FiniteLossExplosionDetectedWithLimit) {
  Tensor w = ramp_tensor(4);
  GuardConfig gc;
  gc.loss_limit = 1e6;
  DivergenceGuard guard(gc, {&w});
  guard.commit();
  EXPECT_EQ(guard.observe(2.5, 0.0, 0, 0, 0.1f), DivergenceGuard::Action::kContinue);
  EXPECT_EQ(guard.observe(1e30, 0.0, 0, 1, 0.1f), DivergenceGuard::Action::kRollback);
  EXPECT_EQ(guard.report().events[0].cause, "loss-explosion");
}

TEST(Guard, AbortsAfterRollbackBudget) {
  GuardConfig gc;
  gc.max_rollbacks = 2;
  Tensor w = ramp_tensor(4);
  const Tensor committed = w;
  DivergenceGuard guard(gc, {&w});
  guard.commit();
  w.fill(100.0f);  // diverged values the guard must roll back
  EXPECT_EQ(guard.observe(std::nan(""), 0.0, 0, 0, 0.1f), DivergenceGuard::Action::kRollback);
  w.fill(200.0f);
  EXPECT_EQ(guard.observe(std::nan(""), 0.0, 0, 0, 0.05f), DivergenceGuard::Action::kRollback);
  w.fill(300.0f);
  EXPECT_EQ(guard.observe(std::nan(""), 0.0, 0, 0, 0.025f), DivergenceGuard::Action::kAbort);
  EXPECT_TRUE(guard.report().gave_up);
  EXPECT_EQ(guard.report().rollbacks, 2);
  EXPECT_NE(guard.report().summary().find("gave up"), std::string::npos);
  // The abort restores the watched tensors too: an exhausted run must end at
  // the last committed snapshot, not at the diverged values.
  for (int64_t i = 0; i < w.numel(); ++i) EXPECT_EQ(w[i], committed[i]);
}

TEST(Guard, CommitAdvancesTheRollbackTarget) {
  Tensor w = ramp_tensor(8);
  DivergenceGuard guard(GuardConfig{}, {&w});
  guard.commit();
  w.fill(2.0f);
  guard.commit();  // 2.0 is now the good state
  w.fill(999.0f);
  (void)guard.observe(std::nan(""), 0.0, 1, 0, 0.1f);
  for (int64_t i = 0; i < w.numel(); ++i) EXPECT_EQ(w[i], 2.0f);
}

}  // namespace
}  // namespace axnn::resilience
