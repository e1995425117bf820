#include "src/qos/speedup.hpp"

#include <gtest/gtest.h>

namespace faucets::qos {
namespace {

TEST(Efficiency, DefaultIsPerfectSingleProc) {
  EfficiencyModel m;
  EXPECT_EQ(m.efficiency(1), 1.0);
  EXPECT_EQ(m.rate(1), 1.0);
}

TEST(Efficiency, LinearInterpolation) {
  EfficiencyModel m{10, 110, 1.0, 0.5};
  EXPECT_DOUBLE_EQ(m.efficiency(10), 1.0);
  EXPECT_DOUBLE_EQ(m.efficiency(110), 0.5);
  EXPECT_DOUBLE_EQ(m.efficiency(60), 0.75);
}

TEST(Efficiency, ClampsOutsideRange) {
  EfficiencyModel m{10, 20, 0.9, 0.8};
  EXPECT_DOUBLE_EQ(m.efficiency(5), 0.9);
  EXPECT_DOUBLE_EQ(m.efficiency(100), 0.8);
}

TEST(Efficiency, RateScalesWithProcs) {
  EfficiencyModel m{4, 16, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(m.rate(4), 4.0);
  EXPECT_DOUBLE_EQ(m.rate(16), 16.0);
}

TEST(Efficiency, TimeToComplete) {
  EfficiencyModel m{4, 16, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(m.time_to_complete(160.0, 16), 10.0);
  EXPECT_DOUBLE_EQ(m.time_to_complete(160.0, 4), 40.0);
}

TEST(Efficiency, ZeroProcsNeverFinishes) {
  EfficiencyModel m{1, 4, 1.0, 1.0};
  EXPECT_EQ(m.rate(0), 0.0);
  EXPECT_GE(m.time_to_complete(10.0, 0), EfficiencyModel::kNever);
}

TEST(Efficiency, DegenerateRangeUsesMinEfficiency) {
  EfficiencyModel m{8, 8, 0.7, 0.3};
  EXPECT_DOUBLE_EQ(m.efficiency(8), 0.7);
}

TEST(Efficiency, InvalidInputsClamped) {
  EfficiencyModel m{-5, -10, 2.0, 0.0};
  EXPECT_GE(m.min_procs(), 1);
  EXPECT_GE(m.max_procs(), m.min_procs());
  EXPECT_LE(m.efficiency(m.min_procs()), 1.0);
  // Over a real range, an efficiency of 0 at the top is raised above 0.
  EfficiencyModel ranged{1, 4, 2.0, 0.0};
  EXPECT_DOUBLE_EQ(ranged.efficiency(1), 1.0);
  EXPECT_GT(ranged.efficiency(4), 0.0);
}

TEST(Efficiency, MoreProcsNeverSlowsCompletion) {
  // With efficiency falling from 1.0 to 0.6 over [8, 64], total rate should
  // still rise with p for this parameterization.
  EfficiencyModel m{8, 64, 1.0, 0.6};
  double prev = m.time_to_complete(1000.0, 8);
  for (int p = 9; p <= 64; ++p) {
    const double t = m.time_to_complete(1000.0, p);
    EXPECT_LE(t, prev + 1e-9) << "slower at p=" << p;
    prev = t;
  }
}

}  // namespace
}  // namespace faucets::qos
