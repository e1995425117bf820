#include "src/qos/payoff.hpp"

#include <gtest/gtest.h>

namespace faucets::qos {
namespace {

TEST(Payoff, DefaultIsZeroEverywhere) {
  PayoffFunction f;
  EXPECT_EQ(f.value_at(0.0), 0.0);
  EXPECT_EQ(f.value_at(1e9), 0.0);
  EXPECT_FALSE(f.has_deadline());
}

TEST(Payoff, FlatPaysAlways) {
  auto f = PayoffFunction::flat(100.0);
  EXPECT_EQ(f.value_at(0.0), 100.0);
  EXPECT_EQ(f.value_at(1e9), 100.0);
  EXPECT_FALSE(f.has_deadline());
}

TEST(Payoff, FullBeforeSoftDeadline) {
  auto f = PayoffFunction::deadline(100.0, 200.0, 1000.0, 400.0, 50.0);
  EXPECT_EQ(f.value_at(0.0), 1000.0);
  EXPECT_EQ(f.value_at(100.0), 1000.0);
  EXPECT_TRUE(f.has_deadline());
  EXPECT_EQ(f.max_payoff(), 1000.0);
}

TEST(Payoff, LinearInterpolationBetweenDeadlines) {
  auto f = PayoffFunction::deadline(100.0, 200.0, 1000.0, 400.0, 50.0);
  EXPECT_DOUBLE_EQ(f.value_at(150.0), 700.0);  // halfway
  EXPECT_DOUBLE_EQ(f.value_at(125.0), 850.0);
  EXPECT_DOUBLE_EQ(f.value_at(200.0), 400.0);
}

TEST(Payoff, PenaltyAfterHardDeadline) {
  auto f = PayoffFunction::deadline(100.0, 200.0, 1000.0, 400.0, 50.0);
  EXPECT_DOUBLE_EQ(f.value_at(200.0001), -50.0);
  EXPECT_DOUBLE_EQ(f.value_at(1e9), -50.0);
}

TEST(Payoff, ZeroPenaltyMeansZeroAfterHard) {
  auto f = PayoffFunction::deadline(10.0, 20.0, 100.0, 50.0);
  EXPECT_EQ(f.value_at(25.0), 0.0);
}

TEST(Payoff, CoincidentDeadlines) {
  auto f = PayoffFunction::deadline(100.0, 100.0, 500.0, 500.0, 25.0);
  EXPECT_EQ(f.value_at(99.0), 500.0);
  EXPECT_EQ(f.value_at(100.0), 500.0);
  EXPECT_EQ(f.value_at(100.5), -25.0);
}

TEST(Payoff, HardBeforeSoftIsClampedToSoft) {
  auto f = PayoffFunction::deadline(100.0, 50.0, 500.0, 100.0, 0.0);
  EXPECT_EQ(f.hard_deadline(), 100.0);
}

TEST(Payoff, MonotoneNonIncreasingProperty) {
  auto f = PayoffFunction::deadline(50.0, 150.0, 800.0, 200.0, 80.0);
  double prev = f.value_at(0.0);
  for (double t = 0.0; t <= 300.0; t += 1.0) {
    const double v = f.value_at(t);
    EXPECT_LE(v, prev + 1e-9) << "payoff increased at t=" << t;
    prev = v;
  }
}

}  // namespace
}  // namespace faucets::qos
