#include "src/sweep/spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

namespace faucets::sweep {
namespace {

constexpr const char* kBase = R"ini(
[grid]
users = 4
seed = 77

[cluster]
name = a
procs = 128
strategy = payoff

[workload]
jobs = 20
load = 0.8
)ini";

std::string with_sweep(const std::string& sweep_section) {
  return std::string(kBase) + "\n[sweep]\n" + sweep_section;
}

TEST(SweepSpec, NoSweepSectionIsASingleRun) {
  const auto spec = SweepSpec::parse_string(kBase);
  EXPECT_EQ(spec.mode(), SweepMode::kGrid);
  EXPECT_EQ(spec.run_count(), 1u);
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 1u);
  // Missing axes hold the base scenario's own values.
  EXPECT_EQ(points[0].scheduler, "base");
  EXPECT_NEAR(points[0].load, 0.8, 1e-9);
  EXPECT_EQ(spec.base_seed(), 77u);
}

TEST(SweepSpec, ExpansionOrderIsStableAndReplicateFastest) {
  const auto spec = SweepSpec::parse_string(
      with_sweep("schedulers = fcfs, payoff\nloads = 0.5, 0.9\nreplicates = 2\n"));
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 8u);
  EXPECT_EQ(spec.run_count(), 8u);
  // Scheduler is the slowest axis, replicate the fastest.
  EXPECT_EQ(points[0].scheduler, "fcfs");
  EXPECT_EQ(points[0].replicate, 0u);
  EXPECT_EQ(points[1].replicate, 1u);
  EXPECT_NEAR(points[0].load, 0.5, 1e-9);
  EXPECT_NEAR(points[2].load, 0.9, 1e-9);
  EXPECT_EQ(points[4].scheduler, "payoff");
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].run_id, i);
  }
  // Replicates of one grid point share its point_index and key.
  EXPECT_EQ(points[0].point_index, points[1].point_index);
  EXPECT_EQ(points[0].key(), points[1].key());
  EXPECT_NE(points[0].key(), points[2].key());
}

TEST(SweepSpec, KeyIsStableAndSelfDescribing) {
  const auto spec = SweepSpec::parse_string(
      with_sweep("schedulers = fcfs\nloads = 0.9\nloss = 0.1\n"));
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].key(),
            "scheduler=fcfs|bidgen=base|evaluator=base|load=0.9|loss=0.1");
}

TEST(SweepSpec, MaterializeAppliesOverridesAndLoad) {
  const auto spec = SweepSpec::parse_string(
      with_sweep("schedulers = fcfs\nloads = 0.5\nreplicates = 2\n"));
  const auto points = spec.expand();
  const auto scenario = spec.materialize(points[0]);
  EXPECT_EQ(scenario.seed, points[0].seed);
  ASSERT_EQ(scenario.clusters.size(), 1u);
  ASSERT_NE(scenario.clusters[0].strategy, nullptr);
  EXPECT_FALSE(scenario.clusters[0].strategy()->adaptive());  // fcfs is rigid
  // Replicates of a point get distinct workload seeds...
  EXPECT_NE(spec.materialize(points[0]).seed, spec.materialize(points[1]).seed);
  // ...and the fault stream is derived from (not equal to) the run seed.
  EXPECT_NE(scenario.grid.faults.seed, scenario.seed);
}

TEST(SweepSpec, BaseKeepsTheScenarioOwnStrategy) {
  const auto spec =
      SweepSpec::parse_string(with_sweep("schedulers = base, fcfs\n"));
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 2u);
  const auto kept = spec.materialize(points[0]);
  EXPECT_TRUE(kept.clusters[0].strategy()->adaptive());  // scenario says payoff
  const auto overridden = spec.materialize(points[1]);
  EXPECT_FALSE(overridden.clusters[0].strategy()->adaptive());
}

TEST(SweepSpec, RejectsBadInput) {
  // The trace is only named, never opened: the spec is refused first.
  const std::string traced = std::string(kBase) + "\n[trace]\nfile = x.swf\n\n[sweep]\n";
  const std::pair<std::string, const char*> bad[] = {
      {with_sweep("mode = banana\n"), "mode"},
      {with_sweep("schedulers = sjf\n"), "sjf"},
      {with_sweep("replicates = 0\n"), "replicates"},
      {with_sweep("loads = -0.5\n"), "loads"},
      {with_sweep("loads = fast\n"), "[sweep] loads"},
      {with_sweep("loads = nan\n"), "[sweep] loads"},
      {with_sweep("loads = 0.5, inf\n"), "[sweep] loads"},
      {with_sweep("loss = 1.5\n"), "loss"},
      {with_sweep("loss = nan\n"), "[sweep] loss"},
      {with_sweep("user_multipliers = 1.5\n"), "user_multipliers"},
      {traced + "user_multipliers = inf\n", "user_multipliers"},
      {with_sweep("time_compressions = 2\n"), "[trace]"},
      {traced + "time_compressions = 0\n", "time_compressions"},
      {traced + "time_compressions = nan\n", "[sweep] time_compressions"},
      {traced + "time_compressions = inf\n", "[sweep] time_compressions"},
  };
  for (const auto& [ini, key] : bad) {
    try {
      (void)SweepSpec::parse_string(ini);
      ADD_FAILURE() << "accepted: " << ini;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
}

// The removed warm-state forking's key is rejected, not silently ignored.
TEST(SweepSpec, WarmupUntilNamesTheRemovedWarmStateForking) {
  try {
    (void)SweepSpec::parse_string(with_sweep("warmup_until = 25\n"));
    ADD_FAILURE() << "warmup_until must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("warm-state forking"), std::string::npos)
        << e.what();
  }
}

TEST(SweepSpec, ClusterModeSweepsSchedulersAndLoadsOnly) {
  EXPECT_THROW((void)SweepSpec::parse_string(
                   with_sweep("mode = cluster\nbidgens = baseline\n")),
               std::invalid_argument);
  const auto spec = SweepSpec::parse_string(
      with_sweep("mode = cluster\nschedulers = fcfs\nloads = 0.9\n"));
  EXPECT_EQ(spec.mode(), SweepMode::kCluster);
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 1u);
  // Market axes never appear in a cluster-mode key.
  EXPECT_EQ(points[0].key(), "scheduler=fcfs|load=0.9");
}

TEST(SweepSpec, ClusterModeNeedsExactlyOneCluster) {
  const std::string two_clusters = std::string(kBase) +
                                   "\n[cluster]\nname = b\nprocs = 64\n"
                                   "\n[sweep]\nmode = cluster\n";
  EXPECT_THROW((void)SweepSpec::parse_string(two_clusters), std::invalid_argument);
}

TEST(SweepSpec, BaseSeedOverridesGridSeed) {
  const auto spec = SweepSpec::parse_string(with_sweep("base_seed = 4242\n"));
  EXPECT_EQ(spec.base_seed(), 4242u);
}

}  // namespace
}  // namespace faucets::sweep
