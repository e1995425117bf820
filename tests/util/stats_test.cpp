#include "src/util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace faucets {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownMeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(Samples, PercentilesOfKnownData) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95.0), 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, EmptyPercentileIsZero) {
  Samples s;
  EXPECT_EQ(s.percentile(50.0), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Samples, SingleElement) {
  Samples s;
  s.add(3.0);
  EXPECT_EQ(s.percentile(0.0), 3.0);
  EXPECT_EQ(s.percentile(100.0), 3.0);
  EXPECT_EQ(s.median(), 3.0);
}

TEST(Samples, AddAfterPercentileStillSorted) {
  Samples s;
  s.add(5.0);
  s.add(1.0);
  EXPECT_EQ(s.min(), 1.0);
  s.add(0.5);  // invalidates cached sort
  EXPECT_EQ(s.min(), 0.5);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h{0.0, 10.0, 5};
  h.add(-1.0);  // clamps into first bin
  h.add(0.5);
  h.add(3.0);
  h.add(9.9);
  h.add(42.0);  // clamps into last bin
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count_in_bin(0), 2u);
  EXPECT_EQ(h.count_in_bin(1), 1u);
  EXPECT_EQ(h.count_in_bin(4), 2u);
}

TEST(Histogram, ToStringFormat) {
  Histogram h{0.0, 2.0, 2};
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  EXPECT_EQ(h.to_string(), "[1 2]");
}

TEST(TimeWeighted, ConstantSignal) {
  TimeWeightedStats tw;
  tw.record(0.0, 4.0);
  tw.finish(10.0);
  EXPECT_DOUBLE_EQ(tw.time_weighted_mean(), 4.0);
  EXPECT_DOUBLE_EQ(tw.duration(), 10.0);
}

TEST(TimeWeighted, StepSignal) {
  TimeWeightedStats tw;
  tw.record(0.0, 0.0);
  tw.record(5.0, 10.0);
  tw.finish(10.0);
  // 5 s at 0 plus 5 s at 10 -> mean 5.
  EXPECT_DOUBLE_EQ(tw.time_weighted_mean(), 5.0);
}

TEST(TimeWeighted, RepeatedSameTimeTakesLastValue) {
  TimeWeightedStats tw;
  tw.record(0.0, 1.0);
  tw.record(0.0, 9.0);  // instantaneous revision
  tw.finish(2.0);
  EXPECT_DOUBLE_EQ(tw.time_weighted_mean(), 9.0);
}

TEST(TimeWeighted, UnstartedIsSafe) {
  TimeWeightedStats tw;
  tw.finish(5.0);
  EXPECT_EQ(tw.time_weighted_mean(), 0.0);
  EXPECT_FALSE(tw.started());
}

}  // namespace
}  // namespace faucets
