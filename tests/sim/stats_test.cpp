#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace perseas::sim {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.total(), 15.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
}

TEST(Summary, PercentilesAreExact) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.99), 99.01, 0.5);
}

TEST(Summary, PercentileInterleavedWithAdds) {
  Summary s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.median(), 15.0);
  s.add(30.0);  // re-sorts lazily after the mutation
  EXPECT_DOUBLE_EQ(s.median(), 20.0);
}

TEST(Summary, EmptyPercentileIsNaN) {
  Summary s;
  EXPECT_TRUE(std::isnan(s.percentile(0.0)));
  EXPECT_TRUE(std::isnan(s.percentile(0.5)));
  EXPECT_TRUE(std::isnan(s.percentile(1.0)));
  // Out-of-range q still throws, even on an empty summary.
  EXPECT_THROW((void)s.percentile(-0.1), std::invalid_argument);
}

TEST(Summary, EndpointQuantilesAreMinAndMax) {
  Summary s;
  for (const double x : {7.0, -3.0, 12.5, 0.25}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), -3.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 12.5);
  // Single sample: every quantile is that sample.
  Summary one;
  one.add(42.0);
  EXPECT_DOUBLE_EQ(one.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(1.0), 42.0);
}

TEST(Summary, BadQuantileThrows) {
  Summary s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(1.1), std::invalid_argument);
}

TEST(Summary, ClearResets) {
  Summary s;
  s.add(5.0);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
}

TEST(Summary, SingleSampleStddevIsZero) {
  Summary s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(LatencyRecorder, RecordsMicroseconds) {
  LatencyRecorder r;
  r.record(us(10));
  r.record(us(20));
  EXPECT_EQ(r.count(), 2u);
  EXPECT_DOUBLE_EQ(r.mean_us(), 15.0);
  EXPECT_DOUBLE_EQ(r.max_us(), 20.0);
}

TEST(LatencyRecorder, ThroughputIsInverseOfMeanLatency) {
  LatencyRecorder r;
  r.record(us(8));  // 8 us -> 125k ops/s
  EXPECT_NEAR(r.ops_per_second(), 125'000.0, 1.0);
}

TEST(LatencyRecorder, EmptyThroughputIsZero) {
  LatencyRecorder r;
  EXPECT_DOUBLE_EQ(r.ops_per_second(), 0.0);
}

}  // namespace
}  // namespace perseas::sim
