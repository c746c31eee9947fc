// Golden-reference tests for the unified axnn::kernels dispatch layer:
// kBlocked must agree with kNaive (the original triple-loop kernels) for
// every transpose/accumulate variant across odd shapes, the integer paths
// must match bit-for-bit, and results must be bit-identical across thread
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "axnn/axmul/adder.hpp"
#include "axnn/axmul/registry.hpp"
#include "axnn/axmul/truncated.hpp"
#include "axnn/kernels/gemm.hpp"
#include "axnn/kernels/int_gemm.hpp"
#include "axnn/kernels/isa.hpp"
#include "axnn/kernels/plan.hpp"
#include "axnn/tensor/rng.hpp"
#include "axnn/tensor/tensor.hpp"
#include "axnn/tensor/threadpool.hpp"

namespace {

using namespace axnn;
using kernels::Backend;
using kernels::GemmDesc;

constexpr int64_t kDims[] = {1, 3, 17, 64, 129};

std::vector<float> random_floats(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

std::vector<int8_t> random_i8(int64_t n, uint64_t seed, int lo, int hi) {
  Rng rng(seed);
  std::vector<int8_t> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<int8_t>(lo + rng.uniform_int(hi - lo + 1));
  return v;
}

void expect_close(const std::vector<float>& ref, const std::vector<float>& got,
                  int64_t k, const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  // Both backends accumulate in float (k rounding steps) except the naive
  // NT/TT paths, which use double; scale the tolerance with k.
  const float tol = 1e-5f * static_cast<float>(std::max<int64_t>(k, 1));
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(ref[i], got[i], tol * (1.0f + std::abs(ref[i])))
        << what << " at flat index " << i;
  }
}

// ---------------------------------------------------------------------------
// Float GEMM: blocked vs naive for every transpose/accumulate combination.
// ---------------------------------------------------------------------------

class FloatGolden : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(FloatGolden, BlockedMatchesNaive) {
  const auto [trans_a, trans_b, accumulate] = GetParam();
  const GemmDesc desc{.trans_a = trans_a, .trans_b = trans_b, .accumulate = accumulate};
  for (int64_t m : kDims) {
    for (int64_t k : kDims) {
      for (int64_t n : kDims) {
        const auto a = random_floats(m * k, 11 * m + k);
        const auto b = random_floats(k * n, 13 * k + n);
        const auto c0 = random_floats(m * n, 17 * m + n);
        std::vector<float> c_naive = c0;
        std::vector<float> c_blocked = c0;
        kernels::gemm(desc, a.data(), b.data(), c_naive.data(), m, k, n,
                      Backend::kNaive);
        kernels::gemm(desc, a.data(), b.data(), c_blocked.data(), m, k, n,
                      Backend::kBlocked);
        SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k << " n=" << n);
        expect_close(c_naive, c_blocked, k, "blocked vs naive");
      }
    }
  }
}

std::string variant_name(const ::testing::TestParamInfo<std::tuple<bool, bool, bool>>& info) {
  std::string s;
  s += std::get<0>(info.param) ? "TA" : "NA";
  s += std::get<1>(info.param) ? "TB" : "NB";
  s += std::get<2>(info.param) ? "Acc" : "Store";
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, FloatGolden,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                                            ::testing::Bool()),
                         variant_name);

TEST(Kernels, KZeroZeroesOrPreserves) {
  for (Backend backend : {Backend::kNaive, Backend::kBlocked}) {
    std::vector<float> c(6, 42.0f);
    kernels::gemm({}, nullptr, nullptr, c.data(), 2, 0, 3, backend);
    for (float v : c) EXPECT_EQ(v, 0.0f);
    std::vector<float> c2(6, 42.0f);
    kernels::gemm({.accumulate = true}, nullptr, nullptr, c2.data(), 2, 0, 3, backend);
    for (float v : c2) EXPECT_EQ(v, 42.0f);
  }
}

TEST(Kernels, EmptyOutputIsNoop) {
  kernels::gemm({}, nullptr, nullptr, nullptr, 0, 5, 3, Backend::kBlocked);
  kernels::gemm({}, nullptr, nullptr, nullptr, 3, 5, 0, Backend::kBlocked);
}

// ---------------------------------------------------------------------------
// Integer paths: approximate LUT, exact, adder-chained — bit-identical.
// ---------------------------------------------------------------------------

TEST(ApproxGolden, BlockedMatchesNaiveBitExact) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));
  for (int64_t m : kDims) {
    for (int64_t k : kDims) {
      for (int64_t n : kDims) {
        const auto w = random_i8(m * k, 3 * m + k, -7, 7);
        const auto x = random_i8(k * n, 5 * k + n, -127, 127);
        for (bool accumulate : {false, true}) {
          const GemmDesc desc{.accumulate = accumulate};
          std::vector<int32_t> c_naive(static_cast<size_t>(m * n), 9);
          std::vector<int32_t> c_blocked(static_cast<size_t>(m * n), 9);
          kernels::gemm_approx(desc, w.data(), x.data(), c_naive.data(), m, k, n, tab,
                               Backend::kNaive);
          kernels::gemm_approx(desc, w.data(), x.data(), c_blocked.data(), m, k, n,
                               tab, Backend::kBlocked);
          ASSERT_EQ(c_naive, c_blocked)
              << "m=" << m << " k=" << k << " n=" << n << " acc=" << accumulate;
        }
      }
    }
  }
}

TEST(ApproxGolden, ExactBlockedMatchesNaiveBitExact) {
  for (int64_t m : kDims) {
    for (int64_t k : kDims) {
      for (int64_t n : kDims) {
        const auto w = random_i8(m * k, 7 * m + k, -7, 7);
        const auto x = random_i8(k * n, 9 * k + n, -127, 127);
        std::vector<int32_t> c_naive(static_cast<size_t>(m * n));
        std::vector<int32_t> c_blocked(static_cast<size_t>(m * n));
        kernels::gemm_exact({}, w.data(), x.data(), c_naive.data(), m, k, n,
                            Backend::kNaive);
        kernels::gemm_exact({}, w.data(), x.data(), c_blocked.data(), m, k, n,
                            Backend::kBlocked);
        ASSERT_EQ(c_naive, c_blocked) << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ISA tiers: the vectorized blocked kernels must be bit-identical to the
// forced-scalar tier (the --no-simd / AXNN_SIMD=scalar escape hatch). Plans
// are keyed by ISA, so flipping it mid-process builds fresh plans for the
// scalar tier while the vector-tier plans stay cached and valid.
// ---------------------------------------------------------------------------

TEST(IsaGolden, ScalarTierMatchesVectorTierBitExact) {
  const kernels::Isa vector_isa = kernels::active_isa();
  if (vector_isa == kernels::Isa::kScalar)
    GTEST_SKIP() << "no vector ISA on this machine";
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));

  struct Restore {
    kernels::Isa isa;
    ~Restore() { kernels::set_isa(isa); }
  } restore{vector_isa};

  for (int64_t m : kDims) {
    for (int64_t k : kDims) {
      for (int64_t n : kDims) {
        const auto w = random_i8(m * k, 21 * m + k, -7, 7);
        const auto x = random_i8(k * n, 23 * k + n, -127, 127);
        const auto a = random_floats(m * k, 25 * m + k);
        const auto b = random_floats(k * n, 27 * k + n);
        std::vector<int32_t> approx_vec(static_cast<size_t>(m * n));
        std::vector<int32_t> exact_vec(static_cast<size_t>(m * n));
        std::vector<float> f32_vec(static_cast<size_t>(m * n));

        kernels::set_isa(vector_isa);
        kernels::gemm_approx({}, w.data(), x.data(), approx_vec.data(), m, k, n, tab,
                             Backend::kBlocked);
        kernels::gemm_exact({}, w.data(), x.data(), exact_vec.data(), m, k, n,
                            Backend::kBlocked);
        kernels::gemm({}, a.data(), b.data(), f32_vec.data(), m, k, n, Backend::kBlocked);

        kernels::set_isa(kernels::Isa::kScalar);
        std::vector<int32_t> approx_sc(static_cast<size_t>(m * n));
        std::vector<int32_t> exact_sc(static_cast<size_t>(m * n));
        std::vector<float> f32_sc(static_cast<size_t>(m * n));
        kernels::gemm_approx({}, w.data(), x.data(), approx_sc.data(), m, k, n, tab,
                             Backend::kBlocked);
        kernels::gemm_exact({}, w.data(), x.data(), exact_sc.data(), m, k, n,
                            Backend::kBlocked);
        kernels::gemm({}, a.data(), b.data(), f32_sc.data(), m, k, n, Backend::kBlocked);

        ASSERT_EQ(approx_vec, approx_sc) << "approx m=" << m << " k=" << k << " n=" << n;
        ASSERT_EQ(exact_vec, exact_sc) << "exact m=" << m << " k=" << k << " n=" << n;
        // Float is bit-stable across ISAs too: same operation order, no FMA.
        ASSERT_EQ(0, std::memcmp(f32_vec.data(), f32_sc.data(),
                                 f32_vec.size() * sizeof(float)))
            << "f32 m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

// The float tiers at the shapes a fine-tune step's backward runs (weight
// gradient 4×8192×36 nt, input gradient 36×4×8192 tn, stage 2 8×2048×72),
// then ragged edges: m not a multiple of the 4-row tile, n not of the
// 8-column strip, k not of the 8-step pack nor of the 256-step panel, and
// blocks that cross the 64-row and 256-column block edges. Every
// transpose/accumulate variant, bit for bit.
TEST(IsaGolden, F32EveryLayoutMatchesScalarTierBitExact) {
  const kernels::Isa vector_isa = kernels::active_isa();
  if (vector_isa == kernels::Isa::kScalar)
    GTEST_SKIP() << "no vector ISA on this machine";
  struct Restore {
    kernels::Isa isa;
    ~Restore() { kernels::set_isa(isa); }
  } restore{vector_isa};

  struct Dims {
    int64_t m, k, n;
  };
  const Dims shapes[] = {{4, 8192, 36}, {36, 4, 8192}, {8, 2048, 72}, {5, 259, 13},
                         {67, 515, 263}, {3, 7, 9},    {1, 300, 17},  {13, 1, 31}};
  for (const bool trans_a : {false, true})
    for (const bool trans_b : {false, true})
      for (const bool accumulate : {false, true}) {
        const GemmDesc desc{.trans_a = trans_a, .trans_b = trans_b, .accumulate = accumulate};
        for (const Dims& d : shapes) {
          const auto a = random_floats(d.m * d.k, 31 * d.m + d.k);
          const auto b = random_floats(d.k * d.n, 37 * d.k + d.n);
          const auto c0 = random_floats(d.m * d.n, 41 * d.m + d.n);
          std::vector<float> vec = c0, sc = c0;
          kernels::set_isa(vector_isa);
          kernels::gemm(desc, a.data(), b.data(), vec.data(), d.m, d.k, d.n, Backend::kBlocked);
          kernels::set_isa(kernels::Isa::kScalar);
          kernels::gemm(desc, a.data(), b.data(), sc.data(), d.m, d.k, d.n, Backend::kBlocked);
          ASSERT_EQ(0, std::memcmp(vec.data(), sc.data(), vec.size() * sizeof(float)))
              << "tA=" << trans_a << " tB=" << trans_b << " acc=" << accumulate
              << " m=" << d.m << " k=" << d.k << " n=" << d.n;
        }
      }
}

// ---------------------------------------------------------------------------
// Approximate kernel tiers: the closed form (truncated tables), the vector
// LUT and the scalar slice kernel must each equal the naive reference, and
// the tier is chosen by the table's content, never by its name.
// ---------------------------------------------------------------------------

struct NamedTable {
  std::string label;
  approx::SignedMulTable tab;
};

std::vector<NamedTable> tier_tables() {
  std::vector<NamedTable> out;
  for (const char* id : {"exact", "trunc1", "trunc2", "trunc3", "trunc4", "trunc5", "evoa29"})
    out.push_back({id, approx::SignedMulTable(axmul::make_lut(id))});
  for (int t = 0; t <= 11; ++t)
    out.push_back({"TruncatedMultiplier(" + std::to_string(t) + ")",
                   approx::SignedMulTable(axmul::TruncatedMultiplier(t))});
  return out;
}

kernels::PlanHandle approx_plan(const approx::SignedMulTable& tab, int64_t m) {
  const kernels::PlanKey key =
      kernels::make_int_key(kernels::OpKind::kApprox, {}, m, 36, 64, Backend::kBlocked, &tab);
  return kernels::PlanCache::global().acquire(key, &tab);
}

kernels::IntKernel approx_tier(const approx::SignedMulTable& tab, int64_t m) {
  return approx_plan(tab, m)->kernel();
}

TEST(TierGolden, EveryTierMatchesNaiveBitExact) {
  // Full int4/int8 operand ranges: -8 (nibble 8) and -128 are the edge cases
  // of the sign-magnitude wrapper. The column counts straddle the 16-wide
  // LUT strips and the 32-wide closed-form strips.
  for (const NamedTable& t : tier_tables()) {
    for (int64_t m : {1, 2, 3, 4, 8, 17}) {
      for (int64_t k : {1, 7, 8, 9, 36, 144}) {
        for (int64_t n : {1, 7, 8, 15, 16, 17, 31, 33, 2048}) {
          const auto w = random_i8(m * k, 31 * m + k, -8, 7);
          const auto x = random_i8(k * n, 37 * k + n, -128, 127);
          for (bool accumulate : {false, true}) {
            const GemmDesc desc{.accumulate = accumulate};
            std::vector<int32_t> c_naive(static_cast<size_t>(m * n), -3);
            std::vector<int32_t> c_plan(static_cast<size_t>(m * n), -3);
            kernels::gemm_approx(desc, w.data(), x.data(), c_naive.data(), m, k, n, t.tab,
                                 Backend::kNaive);
            kernels::gemm_approx(desc, w.data(), x.data(), c_plan.data(), m, k, n, t.tab,
                                 Backend::kBlocked);
            ASSERT_EQ(c_naive, c_plan)
                << t.label << " m=" << m << " k=" << k << " n=" << n << " acc=" << accumulate
                << " kern=" << approx_plan(t.tab, m)->kernel_name();
          }
        }
      }
    }
  }
}

TEST(TierGolden, TierFollowsTableContent) {
  if (kernels::active_isa() != kernels::Isa::kAvx2)
    GTEST_SKIP() << "the closed-form tier is AVX2-only";
  using kernels::IntKernel;
  for (const NamedTable& t : tier_tables()) {
    const bool truncated = t.label.rfind("evoa", 0) != 0;
    for (int64_t m : {1, 2, 4, 16}) {
      const IntKernel want = truncated ? IntKernel::kMasked
                             : m == 1  ? IntKernel::kRows
                                       : IntKernel::kLut;
      EXPECT_EQ(want, approx_tier(t.tab, m)) << t.label << " m=" << m;
    }
  }

  // One flipped product bit in a trunc5 copy: the LUT must take over, and
  // the corrupted copy still matches the naive reference through it.
  approx::SignedMulTable flipped(axmul::make_lut("trunc5"));
  flipped.mutable_data()[approx::SignedMulTable::index(-77, 3)] ^= 1;
  EXPECT_EQ(IntKernel::kLut, approx_tier(flipped, 4));
  EXPECT_EQ(IntKernel::kRows, approx_tier(flipped, 1));
  const int64_t m = 4, k = 36, n = 40;
  const auto w = random_i8(m * k, 5, -8, 7);
  const auto x = random_i8(k * n, 6, -128, 127);
  std::vector<int32_t> c_naive(static_cast<size_t>(m * n)), c_plan(static_cast<size_t>(m * n));
  kernels::gemm_approx({}, w.data(), x.data(), c_naive.data(), m, k, n, flipped,
                       Backend::kNaive);
  kernels::gemm_approx({}, w.data(), x.data(), c_plan.data(), m, k, n, flipped,
                       Backend::kBlocked);
  EXPECT_EQ(c_naive, c_plan);

  // Nibble-0 entries are never read (a zero weight adds exactly 0), so
  // corrupting one does not cost the closed form.
  approx::SignedMulTable nibble0(axmul::make_lut("trunc5"));
  nibble0.mutable_data()[approx::SignedMulTable::index(-77, 0)] = 12345;
  EXPECT_EQ(IntKernel::kMasked, approx_tier(nibble0, 4));

  // Exact-int plans report their own kernel; the tier name reaches inspect.
  const kernels::PlanKey exact_key =
      kernels::make_int_key(kernels::OpKind::kExactInt, {}, 4, 36, 64, Backend::kBlocked, nullptr);
  EXPECT_STREQ("exact", kernels::PlanCache::global().acquire(exact_key)->kernel_name());
  EXPECT_STREQ("masked", approx_plan(nibble0, 4)->kernel_name());
  EXPECT_STREQ("lut", approx_plan(flipped, 4)->kernel_name());
  EXPECT_STREQ("lut-rows", approx_plan(flipped, 1)->kernel_name());
}

TEST(ApproxGolden, AccumBackendsAgree) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));
  const axmul::LoaAdder adder(4);
  const int64_t m = 17, k = 64, n = 33;
  const auto w = random_i8(m * k, 21, -7, 7);
  const auto x = random_i8(k * n, 22, -127, 127);
  std::vector<int32_t> c_naive(static_cast<size_t>(m * n), 5);
  std::vector<int32_t> c_blocked(static_cast<size_t>(m * n), 5);
  kernels::gemm_approx_accum({.accumulate = true}, w.data(), x.data(), c_naive.data(),
                             m, k, n, tab, adder, Backend::kNaive);
  kernels::gemm_approx_accum({.accumulate = true}, w.data(), x.data(),
                             c_blocked.data(), m, k, n, tab, adder,
                             Backend::kBlocked);
  EXPECT_EQ(c_naive, c_blocked);
}

TEST(ApproxGolden, TransposeFlagsRejected) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));
  std::vector<int8_t> w(4), x(4);
  std::vector<int32_t> c(4);
  EXPECT_THROW(kernels::gemm_approx({.trans_a = true}, w.data(), x.data(), c.data(), 2,
                                    2, 2, tab, Backend::kBlocked),
               std::invalid_argument);
  EXPECT_THROW(kernels::gemm_exact({.trans_b = true}, w.data(), x.data(), c.data(), 2,
                                   2, 2, Backend::kNaive),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Determinism: bit-identical results across thread counts.
// ---------------------------------------------------------------------------

TEST(Determinism, FloatBitIdenticalAcrossThreadCounts) {
  const int64_t m = 129, k = 129, n = 65;
  const auto a = random_floats(m * k, 31);
  const auto b = random_floats(k * n, 32);
  for (Backend backend : {Backend::kNaive, Backend::kBlocked}) {
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        const GemmDesc desc{.trans_a = trans_a, .trans_b = trans_b};
        ThreadPool p1(1);
        std::vector<float> ref(static_cast<size_t>(m * n));
        kernels::gemm(desc, a.data(), b.data(), ref.data(), m, k, n, backend, &p1);
        for (int threads : {2, 8}) {
          ThreadPool pn(threads);
          std::vector<float> got(static_cast<size_t>(m * n));
          kernels::gemm(desc, a.data(), b.data(), got.data(), m, k, n, backend, &pn);
          ASSERT_EQ(0, std::memcmp(ref.data(), got.data(),
                                   ref.size() * sizeof(float)))
              << kernels::backend_name(backend) << " ta=" << trans_a
              << " tb=" << trans_b << " threads=" << threads;
        }
      }
    }
  }
}

TEST(Determinism, ApproxBitIdenticalAcrossThreadCounts) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  const int64_t m = 65, k = 129, n = 33;
  const auto w = random_i8(m * k, 41, -7, 7);
  const auto x = random_i8(k * n, 42, -127, 127);
  for (Backend backend : {Backend::kNaive, Backend::kBlocked}) {
    ThreadPool p1(1);
    std::vector<int32_t> ref(static_cast<size_t>(m * n));
    kernels::gemm_approx({}, w.data(), x.data(), ref.data(), m, k, n, tab, backend,
                         &p1);
    for (int threads : {2, 8}) {
      ThreadPool pn(threads);
      std::vector<int32_t> got(static_cast<size_t>(m * n));
      kernels::gemm_approx({}, w.data(), x.data(), got.data(), m, k, n, tab, backend,
                           &pn);
      ASSERT_EQ(ref, got) << kernels::backend_name(backend)
                          << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Backend selection plumbing.
// ---------------------------------------------------------------------------

TEST(BackendConfig, NamesAndDefaultRoundTrip) {
  EXPECT_STREQ("naive", kernels::backend_name(Backend::kNaive));
  EXPECT_STREQ("blocked", kernels::backend_name(Backend::kBlocked));
  const Backend saved = kernels::default_backend();
  kernels::set_default_backend(Backend::kNaive);
  EXPECT_EQ(Backend::kNaive, kernels::default_backend());
  // A naive default forces auto_backend to naive regardless of shape.
  EXPECT_EQ(Backend::kNaive, kernels::auto_backend(512, 512, 512));
  kernels::set_default_backend(saved);
}

TEST(BackendConfig, AutoBackendCutsOverOnSmallProblems) {
  const Backend saved = kernels::default_backend();
  kernels::set_default_backend(Backend::kBlocked);
  // Float rule: packing only pays off on big enough problems, whatever the
  // layout; below 8 rows only the transposed-B (dot-product) layouts go
  // blocked.
  const GemmDesc nn{}, tn{.trans_a = true}, nt{.trans_b = true};
  const GemmDesc tt{.trans_a = true, .trans_b = true};
  for (const GemmDesc& d : {nn, tn, nt, tt}) {
    EXPECT_EQ(Backend::kNaive, kernels::auto_backend_f32(d, 64, 3, 4));   // tiny
    EXPECT_EQ(Backend::kNaive, kernels::auto_backend_f32(d, 8, 2048, 4));  // 1x1 dW, n < 16
    EXPECT_EQ(Backend::kBlocked, kernels::auto_backend_f32(d, 64, 576, 1024));
    EXPECT_EQ(Backend::kBlocked, kernels::auto_backend_f32(d, 36, 4, 8192));  // stage-1 dX
  }
  for (const GemmDesc& d : {nn, tn}) {
    EXPECT_EQ(Backend::kNaive, kernels::auto_backend_f32(d, 1, 576, 1024));  // depthwise row
    EXPECT_EQ(Backend::kNaive, kernels::auto_backend_f32(d, 4, 36, 8192));   // stage-1 forward
  }
  for (const GemmDesc& d : {nt, tt}) {
    EXPECT_EQ(Backend::kBlocked, kernels::auto_backend_f32(d, 1, 576, 1024));
    EXPECT_EQ(Backend::kBlocked, kernels::auto_backend_f32(d, 4, 8192, 36));  // stage-1 dW
  }
  // Int rule: the column-striped plans take every shape, served ones included.
  EXPECT_EQ(Backend::kBlocked, kernels::auto_backend(1, 9, 2048));    // depthwise group
  EXPECT_EQ(Backend::kBlocked, kernels::auto_backend(4, 36, 2048));   // stage-1 conv, b8
  EXPECT_EQ(Backend::kBlocked, kernels::auto_backend(10, 64, 8));     // FC, b8
  EXPECT_EQ(Backend::kBlocked, kernels::auto_backend(64, 576, 1024));
  kernels::set_default_backend(Backend::kNaive);
  EXPECT_EQ(Backend::kNaive, kernels::auto_backend(64, 576, 1024));
  EXPECT_EQ(Backend::kNaive, kernels::auto_backend_f32(nt, 4, 8192, 36));
  EXPECT_EQ(Backend::kNaive, kernels::auto_backend_f32(nn, 64, 576, 1024));
  kernels::set_default_backend(saved);
}

TEST(BackendConfig, RowGrainScalesInverselyWithWork) {
  EXPECT_GE(kernels::row_grain(1, 1), kernels::row_grain(576, 1024));
  EXPECT_GE(kernels::row_grain(0, 0), int64_t{1});
  EXPECT_EQ(kernels::row_grain(1 << 5, 1 << 5), int64_t{1} << 5);
}

TEST(ThreadPoolGlobal, SetThreadsFailsLoudAfterFirstUse) {
  ThreadPool& pool = ThreadPool::global();  // force creation
  const int current = pool.size();
  EXPECT_NO_THROW(ThreadPool::set_global_threads(current));  // same size: no-op
  EXPECT_THROW(ThreadPool::set_global_threads(current + 1), std::logic_error);
}

// The kernel dispatch agrees with the scalar definition of the approximate
// GEMM (Eq. 4) on a shape no blocking tile divides.
TEST(MatmulApprox, MatchesKernelDispatch) {
  const int64_t m = 17, k = 33, n = 9;
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));
  const auto w = random_i8(m * k, 55, -7, 7);
  const auto x = random_i8(k * n, 56, -127, 127);

  std::vector<int32_t> got(static_cast<size_t>(m * n));
  kernels::gemm_approx({}, w.data(), x.data(), got.data(), m, k, n, tab);
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t kk = 0; kk < k; ++kk)
        acc += tab(x[static_cast<size_t>(kk * n + j)], w[static_cast<size_t>(i * k + kk)]);
      EXPECT_EQ(got[static_cast<size_t>(i * n + j)], acc) << "i=" << i << " j=" << j;
    }
}

}  // namespace
