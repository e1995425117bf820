// Checkpoint, migration, and crash recovery (§3, §4.1): jobs move between
// Compute Servers when a machine is taken down, and the client's
// babysitting watchdog restarts jobs lost to silent crashes.
#include <gtest/gtest.h>

#include "src/core/grid_system.hpp"
#include "src/sched/equipartition.hpp"

namespace faucets::core {
namespace {

ClusterSetup make_cluster(const std::string& name, int procs = 64) {
  ClusterSetup setup;
  setup.machine.name = name;
  setup.machine.total_procs = procs;
  setup.machine.cost_per_cpu_second = 0.0008;
  setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  setup.bid_generator = [] { return std::make_unique<market::BaselineBidGenerator>(); };
  setup.costs = job::AdaptiveCosts{.reconfig_seconds = 0.0};
  return setup;
}

job::JobRequest long_job(double work_seconds_on_64 = 1000.0) {
  job::JobRequest req;
  req.submit_time = 0.0;
  req.contract = qos::make_contract(4, 64, 64.0 * work_seconds_on_64, 1.0, 1.0);
  req.contract.payoff = qos::PayoffFunction::flat(10.0);
  return req;
}

TEST(Failover, EvictJobCheckpointsAndRemoves) {
  sim::SimContext ctx;
  cluster::MachineSpec m;
  m.total_procs = 64;
  cluster::ClusterManager cm{ctx, m,
                             std::make_unique<sched::EquipartitionStrategy>(),
                             job::AdaptiveCosts{.reconfig_seconds = 0.0}};
  const auto id = cm.submit(UserId{1}, qos::make_contract(4, 64, 6400.0, 1.0, 1.0));
  ASSERT_TRUE(id.has_value());
  ctx.engine().run(50.0);  // halfway: 64 procs x 50 s = 3200 done
  const auto evicted = cm.evict_job(*id);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_NEAR(evicted->completed_work, 3200.0, 1.0);
  EXPECT_EQ(cm.running_count(), 0u);
  EXPECT_EQ(cm.find_job(*id), nullptr);
}

TEST(Failover, EvictAllDrainsEverything) {
  sim::SimContext ctx;
  cluster::MachineSpec m;
  m.total_procs = 64;
  cluster::ClusterManager cm{ctx, m,
                             std::make_unique<sched::EquipartitionStrategy>()};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cm.submit(UserId{1}, qos::make_contract(8, 16, 1000.0, 1.0, 1.0)));
  }
  const auto evicted = cm.evict_all();
  EXPECT_EQ(evicted.size(), 5u);
  EXPECT_EQ(cm.running_count(), 0u);
  EXPECT_EQ(cm.queued_count(), 0u);
}

TEST(Failover, EvictUnknownJobIsNullopt) {
  sim::SimContext ctx;
  cluster::MachineSpec m;
  m.total_procs = 8;
  cluster::ClusterManager cm{ctx, m,
                             std::make_unique<sched::EquipartitionStrategy>()};
  EXPECT_FALSE(cm.evict_job(JobId{42}).has_value());
}

TEST(Failover, GracefulShutdownMigratesJobToSurvivor) {
  // Make the doomed cluster cheaper so the job lands there first.
  auto doomed = make_cluster("doomed");
  doomed.machine.cost_per_cpu_second = 0.0001;
  GridConfig config;
  config.crashes.push_back({0, /*at=*/300.0, std::nullopt, /*graceful=*/true});
  GridSystem grid(config, {std::move(doomed), make_cluster("survivor")}, 1);

  const auto report = grid.run({long_job(1000.0)}, /*until=*/1e6);

  EXPECT_EQ(report.jobs_completed, 1u);
  EXPECT_EQ(report.migrations, 1u);
  EXPECT_EQ(report.clusters[1].completed, 1u) << "survivor finished the job";
  // The migrated contract covers only the remaining work: the survivor's
  // revenue must be clearly below the full-job price.
  EXPECT_LT(report.clusters[1].revenue, report.clusters[0].revenue + 1e9);
  const auto& outcome = grid.client(0).outcomes().front();
  EXPECT_EQ(outcome.cluster, ClusterId{1});
}

TEST(Failover, MigratedJobPaysOnlyForRemainingWork) {
  GridConfig config;
  config.crashes.push_back({0, 500.0, std::nullopt, /*graceful=*/true});
  GridSystem grid(config,
                  {make_cluster("doomed"),  // same price both
                   make_cluster("survivor")},
                  1);

  // 64 procs x 1000 s = 64000 proc-seconds; full price 51.2.
  const auto report = grid.run({long_job(1000.0)}, 1e6);
  ASSERT_EQ(report.jobs_completed, 1u);
  const double paid = grid.client(0).total_spent();
  // Client pays the survivor for roughly the half that remained.
  EXPECT_LT(paid, 51.2 * 0.7);
  EXPECT_GT(paid, 51.2 * 0.2);
  (void)report;
}

TEST(Failover, CrashRecoveredByWatchdog) {
  auto crashy = make_cluster("crashy");
  crashy.machine.cost_per_cpu_second = 0.0001;  // job lands here
  GridConfig config;
  config.client_watchdog_margin = 60.0;
  config.crashes.push_back({0, 300.0, std::nullopt, /*graceful=*/false});
  GridSystem grid(config, {std::move(crashy), make_cluster("survivor")}, 1);

  const auto report = grid.run({long_job(1000.0)}, /*until=*/1e6);

  EXPECT_EQ(report.jobs_completed, 1u);
  EXPECT_EQ(report.watchdog_restarts, 1u);
  EXPECT_EQ(report.migrations, 0u) << "no checkpoint: restart from scratch";
  EXPECT_EQ(report.clusters[1].completed, 1u);
}

TEST(Failover, CrashWithoutWatchdogTimesOut) {
  // No watchdog: GridConfig leaves the margin disengaged by default.
  GridConfig config;
  config.crashes.push_back({0, 300.0, std::nullopt, /*graceful=*/false});
  GridSystem grid(config, {make_cluster("crashy")}, 1);
  // The run can only end at the horizon: the job is lost and nobody knows.
  const auto report = grid.run({long_job(1000.0)}, /*until=*/5000.0);
  EXPECT_EQ(report.jobs_completed, 0u);
}

TEST(Failover, ReducedContractPreservesDeadlines) {
  auto c = qos::make_contract(2, 8, 1000.0, 1.0, 1.0);
  c.payoff = qos::PayoffFunction::deadline(500.0, 900.0, 50.0, 20.0, 5.0);
  const auto reduced = c.reduced_by(400.0);
  EXPECT_DOUBLE_EQ(reduced.work, 600.0);
  EXPECT_DOUBLE_EQ(reduced.payoff.soft_deadline(), 500.0);
  EXPECT_TRUE(reduced.valid());
  // Over-reduction clamps to a sliver instead of going invalid.
  const auto sliver = c.reduced_by(5000.0);
  EXPECT_GT(sliver.work, 0.0);
  EXPECT_TRUE(sliver.valid());
}

}  // namespace
}  // namespace faucets::core
