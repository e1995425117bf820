#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/sweep/aggregate.hpp"
#include "src/sweep/gate.hpp"

namespace faucets::sweep {
namespace {

RunResult fake(std::size_t run, std::size_t point, std::size_t rep,
               const std::string& key, double util, double spent) {
  RunResult out;
  out.run_id = run;
  out.point_index = point;
  out.replicate = rep;
  out.point_key = key;
  out.metrics = {{"utilization", util}, {"total_spent", spent}};
  return out;
}

std::vector<RunResult> sample() {
  return {
      fake(0, 0, 0, "scheduler=fcfs|load=0.5", 0.40, 100.0),
      fake(1, 0, 1, "scheduler=fcfs|load=0.5", 0.60, 140.0),
      fake(2, 1, 0, "scheduler=payoff|load=0.5", 0.80, 200.0),
      fake(3, 1, 1, "scheduler=payoff|load=0.5", 0.90, 220.0),
  };
}

TEST(Aggregate, MeansAndConfidenceIntervals) {
  const auto rows = aggregate(sample());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].point_key, "scheduler=fcfs|load=0.5");
  EXPECT_EQ(rows[0].replicates, 2u);
  const auto* util = rows[0].metric("utilization");
  ASSERT_NE(util, nullptr);
  EXPECT_DOUBLE_EQ(util->mean(), 0.5);
  // n = 2, sample stddev = 0.1414..., ci95 = 1.96 * s / sqrt(2).
  EXPECT_NEAR(util->ci95(), 1.96 * std::sqrt(0.02) / std::sqrt(2.0), 1e-12);
  EXPECT_EQ(rows[0].metric("no_such_metric"), nullptr);
  const auto* spent = rows[1].metric("total_spent");
  ASSERT_NE(spent, nullptr);
  EXPECT_DOUBLE_EQ(spent->mean(), 210.0);
}

TEST(Aggregate, SingleReplicateHasZeroCi) {
  const auto rows = aggregate({fake(0, 0, 0, "k", 0.7, 10.0)});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].metric("utilization")->ci95(), 0.0);
}

TEST(Aggregate, RejectsMismatchedMetricSets) {
  auto results = sample();
  results[1].metrics = {{"utilization", 0.5}};  // dropped total_spent
  EXPECT_THROW((void)aggregate(results), std::invalid_argument);
}

TEST(Gate, PassesWhenWithinTolerance) {
  const auto rows = aggregate(sample());
  const auto baseline = Baseline::from_aggregate(rows, 0.05);
  EXPECT_TRUE(check_gate(baseline, rows).empty());
}

TEST(Gate, FlagsDriftBeyondTolerance) {
  const auto rows = aggregate(sample());
  const auto baseline = Baseline::from_aggregate(rows, 0.05);
  auto drifted = sample();
  for (auto& r : drifted) {
    if (r.point_index == 1) r.metrics[0].second += 0.2;  // utilization up
  }
  const auto violations = check_gate(baseline, aggregate(drifted));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].point_key, "scheduler=payoff|load=0.5");
  EXPECT_EQ(violations[0].metric, "utilization");
  EXPECT_NEAR(violations[0].baseline, 0.85, 1e-12);
  EXPECT_NEAR(violations[0].observed, 1.05, 1e-12);
  EXPECT_FALSE(violations[0].message.empty());
}

TEST(Gate, AbsoluteSlackAdmitsZeroBaselines) {
  RunResult zero = fake(0, 0, 0, "k", 0.0, 0.0);
  const auto rows = aggregate({zero});
  const auto baseline = Baseline::from_aggregate(rows, 0.05);
  EXPECT_TRUE(check_gate(baseline, rows).empty());  // 0 vs 0, no divide-by-zero
  zero.metrics[0].second = 0.01;
  const auto violations = check_gate(baseline, aggregate({zero}));
  ASSERT_EQ(violations.size(), 1u);  // relative band around 0 is just abs slack
}

TEST(Gate, MissingPointAndMetricAreViolations) {
  const auto rows = aggregate(sample());
  const auto baseline = Baseline::from_aggregate(rows, 0.05);
  // Observed sweep lost the payoff point entirely.
  const auto partial =
      aggregate({fake(0, 0, 0, "scheduler=fcfs|load=0.5", 0.40, 100.0),
                 fake(1, 0, 1, "scheduler=fcfs|load=0.5", 0.60, 140.0)});
  const auto violations = check_gate(baseline, partial);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].point_key, "scheduler=payoff|load=0.5");
}

TEST(Gate, ExtraObservedPointsAreIgnored) {
  const auto fcfs_only =
      aggregate({fake(0, 0, 0, "scheduler=fcfs|load=0.5", 0.40, 100.0),
                 fake(1, 0, 1, "scheduler=fcfs|load=0.5", 0.60, 140.0)});
  const auto baseline = Baseline::from_aggregate(fcfs_only, 0.05);
  // A larger sweep may be gated by a baseline covering a stable subset.
  EXPECT_TRUE(check_gate(baseline, aggregate(sample())).empty());
}

TEST(Baseline, JsonRoundTrip) {
  const auto rows = aggregate(sample());
  const auto baseline = Baseline::from_aggregate(rows, 0.07);
  const auto parsed = Baseline::parse(baseline.to_json());
  EXPECT_DOUBLE_EQ(parsed.default_tolerance(), 0.07);
  EXPECT_EQ(parsed.to_json(), baseline.to_json());
  ASSERT_EQ(parsed.points().size(), 2u);
  const auto& fcfs = parsed.points().at("scheduler=fcfs|load=0.5");
  EXPECT_DOUBLE_EQ(fcfs.at("utilization").mean, 0.5);
  EXPECT_DOUBLE_EQ(fcfs.at("utilization").tolerance, 0.07);
}

// A negative band used to parse, and then passed only exact matches: the
// gate allows max(tolerance * |mean|, abs), and abs defaults to 1e-9.
TEST(Baseline, ParseRefusesNegativeBands) {
  const std::pair<const char*, const char*> bad[] = {
      {R"({"points": {"p=1": {"util": {"mean": 1, "tolerance": -0.5}}}})",
       "'p=1' / util tolerance"},
      {R"({"points": {"p=1": {"util": {"mean": 1, "tolerance": 0.1, "abs": -1}}}})",
       "'p=1' / util abs"},
      {R"({"default_tolerance": -0.5, "points": {"p=1": {"util": {"mean": 1}}}})",
       "default_tolerance"},
  };
  for (const auto& [json, what] : bad) {
    try {
      (void)Baseline::parse(json);
      ADD_FAILURE() << "accepted: " << json;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  }
  // A zero band is an exact-match gate asked for on purpose.
  const auto exact = Baseline::parse(
      R"({"default_tolerance": 0, "points": {"p=1": {"util": {"mean": 1, "abs": 0}}}})");
  EXPECT_DOUBLE_EQ(exact.points().at("p=1").at("util").tolerance, 0.0);
  EXPECT_DOUBLE_EQ(exact.points().at("p=1").at("util").abs_slack, 0.0);
}

TEST(Baseline, ParseRejectsMalformedJson) {
  EXPECT_THROW((void)Baseline::parse("{"), std::invalid_argument);
  EXPECT_THROW((void)Baseline::parse("[]"), std::invalid_argument);
  EXPECT_THROW((void)Baseline::parse(R"({"points": 3})"), std::invalid_argument);
}

}  // namespace
}  // namespace faucets::sweep
