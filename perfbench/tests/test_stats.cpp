// Tests of the benchmark's percentile rule and open-loop time accounting.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  EXPECT_EQ(percentile(v, 0.50), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.00), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, OrderIndependentAndUpperMedian) {
  EXPECT_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Percentile, SamplesBeyondTail) {
  // p99 of 1000 samples is rank 990: ten samples lie beyond it, the least
  // a tail percentile may rest on.
  EXPECT_EQ(samples_beyond(1000, 0.99), 10);
  EXPECT_EQ(samples_beyond(999, 0.99), 9);
  EXPECT_EQ(samples_beyond(100, 0.5), 50);
  EXPECT_EQ(samples_beyond(0, 0.99), 0);
}

TEST(OpenLoop, LatencyRunsFromIntendedTime) {
  // The generator stalled 30 ms before sending; the request then took 2 ms.
  OpenLoopStamp s{.intended_ns = 1'000'000'000, .sent_ns = 1'030'000'000,
                  .done_ns = 1'032'000'000};
  EXPECT_DOUBLE_EQ(s.latency_ms(), 32.0);
  EXPECT_DOUBLE_EQ(s.lateness_ms(), 30.0);
  // Sending early is not negative lateness.
  OpenLoopStamp early{.intended_ns = 100, .sent_ns = 50, .done_ns = 1'000'100};
  EXPECT_DOUBLE_EQ(early.lateness_ms(), 0.0);
  EXPECT_DOUBLE_EQ(early.latency_ms(), 1.0);
}

TEST(OpenLoop, ScheduleIsSeededAndAtTheRate) {
  const auto a = poisson_schedule(7, 500.0, 20.0, 2, 512);
  const auto b = poisson_schedule(7, 500.0, 20.0, 2, 512);
  const auto c = poisson_schedule(8, 500.0, 20.0, 2, 512);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].sample, b[i].sample);
  }
  EXPECT_NE(a.front().due_ns, c.front().due_ns);
  // 10000 expected arrivals; 4 standard deviations is 400.
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 400.0);
  int64_t tenant1 = 0, prev = -1;
  for (const Arrival& x : a) {
    EXPECT_GT(x.due_ns, prev);
    EXPECT_LT(x.due_ns, 20'000'000'000);
    EXPECT_GE(x.sample, 0);
    EXPECT_LT(x.sample, 512);
    tenant1 += x.tenant;
    prev = x.due_ns;
  }
  EXPECT_NEAR(static_cast<double>(tenant1) / static_cast<double>(a.size()), 0.5, 0.03);
}

}  // namespace
}  // namespace perfbench
