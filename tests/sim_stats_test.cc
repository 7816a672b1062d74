// Tests for LatencyRecorder, TimeSeries and Rng.
#include <gtest/gtest.h>

#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace bio::sim {
namespace {

using namespace bio::sim::literals;

TEST(LatencyRecorderTest, EmptyRecorderIsZero) {
  LatencyRecorder r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.mean(), 0.0);
  EXPECT_EQ(r.percentile(99.0), 0u);
}

TEST(LatencyRecorderTest, MeanAndMedian) {
  LatencyRecorder r;
  for (SimTime v : {10u, 20u, 30u, 40u, 50u}) r.add(v);
  EXPECT_DOUBLE_EQ(r.mean(), 30.0);
  EXPECT_EQ(r.median(), 30u);
  EXPECT_EQ(r.min(), 10u);
  EXPECT_EQ(r.max(), 50u);
}

TEST(LatencyRecorderTest, PercentilesOnKnownDistribution) {
  LatencyRecorder r;
  for (SimTime v = 1; v <= 100; ++v) r.add(v);
  EXPECT_EQ(r.percentile(99.0), 100u);
  EXPECT_EQ(r.percentile(90.0), 91u);
  EXPECT_EQ(r.percentile(50.0), 51u);
}

TEST(LatencyRecorderTest, AddAfterPercentileResorts) {
  LatencyRecorder r;
  r.add(100);
  EXPECT_EQ(r.max(), 100u);
  r.add(500);
  EXPECT_EQ(r.max(), 500u);
  r.add(1);
  EXPECT_EQ(r.min(), 1u);
}

TEST(LatencyRecorderTest, ClearResets) {
  LatencyRecorder r;
  r.add(10);
  r.clear();
  EXPECT_TRUE(r.empty());
}

TEST(TimeSeriesTest, MaxOfPoints) {
  TimeSeries ts;
  ts.record(0, 2.0);
  ts.record(10, 4.0);
  EXPECT_DOUBLE_EQ(ts.max_value(), 4.0);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) any_diff |= a.next_u64() != b.next_u64();
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng r(7);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

}  // namespace
}  // namespace bio::sim
