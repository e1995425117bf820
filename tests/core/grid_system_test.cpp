// End-to-end integration: the full Faucets protocol (login -> directory ->
// request-for-bids -> bid -> award -> upload -> run -> completion notice ->
// settlement) through the GridSystem facade.
#include "src/core/grid_system.hpp"

#include <gtest/gtest.h>

#include "src/sched/equipartition.hpp"
#include "src/sched/payoff_sched.hpp"

namespace faucets::core {
namespace {

ClusterSetup make_cluster(const std::string& name, int procs,
                          double cost = 0.0008, double speed = 1.0) {
  ClusterSetup setup;
  setup.machine.name = name;
  setup.machine.total_procs = procs;
  setup.machine.cost_per_cpu_second = cost;
  setup.machine.speed_factor = speed;
  setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  setup.bid_generator = [] { return std::make_unique<market::BaselineBidGenerator>(); };
  setup.costs = job::AdaptiveCosts{.reconfig_seconds = 0.0};
  return setup;
}

job::JobRequest simple_request(double t, double work = 6400.0,
                               std::size_t user = 0) {
  job::JobRequest req;
  req.submit_time = t;
  req.contract = qos::make_contract(4, 64, work, 1.0, 1.0);
  req.contract.payoff = qos::PayoffFunction::flat(10.0);
  req.user_index = user;
  return req;
}

TEST(GridSystem, RequiresClustersAndUsers) {
  // The constructor is the one way to build a grid, so it validates every
  // grid itself.
  GridConfig config;
  // No clusters / no users.
  EXPECT_THROW(GridSystem(config, {}, 1), std::invalid_argument);
  EXPECT_THROW(GridSystem(config, {make_cluster("a", 64)}, 0),
               std::invalid_argument);
  // Zero-processor machine.
  EXPECT_THROW(GridSystem(config, {make_cluster("empty", 0)}, 1),
               std::invalid_argument);
  // Missing factories.
  ClusterSetup no_strategy = make_cluster("b", 64);
  no_strategy.strategy = nullptr;
  EXPECT_THROW(GridSystem(config, {no_strategy}, 1), std::invalid_argument);
  ClusterSetup no_bidgen = make_cluster("c", 64);
  no_bidgen.bid_generator = nullptr;
  EXPECT_THROW(GridSystem(config, {no_bidgen}, 1), std::invalid_argument);
  // Fault plan naming clusters that do not exist.
  GridConfig crash = config;
  crash.crashes.push_back({3, 100.0, std::nullopt, false});
  EXPECT_THROW(GridSystem(crash, {make_cluster("d", 64)}, 1),
               std::invalid_argument);
  GridConfig partition = config;
  partition.partitions.push_back({2, 0.0, 10.0});
  EXPECT_THROW(GridSystem(partition, {make_cluster("e", 64)}, 1),
               std::invalid_argument);
  // Two clusters sharing a name would share every {cluster="..."}
  // instrument; the message names both indices.
  try {
    GridSystem(config, {make_cluster("f", 64), make_cluster("g", 64),
                        make_cluster("f", 32)},
               1);
    ADD_FAILURE() << "a repeated cluster name must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("clusters 0 and 2"), std::string::npos)
        << e.what();
  }
}

TEST(GridSystem, SingleJobFullProtocol) {
  GridSystem grid({}, {make_cluster("alpha", 64)}, 1);

  const auto report = grid.run({simple_request(0.0)});
  EXPECT_EQ(report.jobs_submitted, 1u);
  EXPECT_EQ(report.jobs_completed, 1u);
  EXPECT_EQ(report.jobs_unplaced, 0u);
  ASSERT_EQ(report.clusters.size(), 1u);
  EXPECT_EQ(report.clusters[0].completed, 1u);
  EXPECT_EQ(report.clusters[0].awards_confirmed, 1u);
  EXPECT_GT(report.clusters[0].revenue, 0.0);
  EXPECT_GT(report.total_spent, 0.0);
  EXPECT_DOUBLE_EQ(report.total_spent, report.clusters[0].revenue);
  EXPECT_GT(report.mean_award_latency, 0.0);
  EXPECT_LT(report.mean_award_latency, 1.0);
}

TEST(GridSystem, JobRegisteredWithAppSpector) {
  GridSystem grid({}, {make_cluster("alpha", 64)}, 1);
  (void)grid.run({simple_request(0.0)});
  EXPECT_EQ(grid.appspector().monitored_jobs(), 1u);
  const auto* view = grid.appspector().find(ClusterId{0}, JobId{0});
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->state, "completed");
}

// DaemonConfig::monitor_interval pushes a status update for every running
// job to AppSpector each interval, so a watched job's view moves while the
// job runs, not only at its start and completion.
TEST(GridSystem, MonitorIntervalPushesUpdatesWhileAJobRuns) {
  GridConfig config;
  config.daemon.monitor_interval = 60.0;
  GridSystem grid(config, {make_cluster("alpha", 64)}, 1);
  std::vector<std::uint64_t> seen;  // the job's update count at each probe
  for (const double t : {150.0, 270.0, 390.0}) {
    grid.engine().schedule_at(t, [&grid, &seen] {
      const auto* view = grid.appspector().find(ClusterId{0}, JobId{0});
      seen.push_back(view == nullptr ? 0 : view->updates);
    });
  }
  // 64 processors for 600 s: the job runs through ten intervals.
  const auto report = grid.run({simple_request(0.0, 64.0 * 600.0)});
  EXPECT_EQ(report.jobs_completed, 1u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_GT(seen[0], 0u);
  EXPECT_EQ(seen[1] - seen[0], 2u) << "one push per 60 s while running";
  EXPECT_EQ(seen[2] - seen[1], 2u) << "one push per 60 s while running";
  const auto* view = grid.appspector().find(ClusterId{0}, JobId{0});
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->state, "completed");
  EXPECT_GT(view->updates, seen[2]);
}

TEST(GridSystem, LeastCostClientPicksCheaperCluster) {
  GridSystem grid({},
                  {make_cluster("pricey", 64, /*cost=*/0.01),
                   make_cluster("cheap", 64, /*cost=*/0.001)},
                  1);

  const auto report = grid.run({simple_request(0.0)});
  EXPECT_EQ(report.clusters[1].completed, 1u);
  EXPECT_EQ(report.clusters[0].completed, 0u);
}

TEST(GridSystem, EarliestCompletionPrefersFasterMachine) {
  GridConfig config;
  config.evaluator = [] {
    return std::make_unique<market::EarliestCompletionEvaluator>();
  };
  GridSystem grid(config,
                  {make_cluster("slow", 64, 0.0001, /*speed=*/1.0),
                   make_cluster("fast", 64, 0.01, /*speed=*/4.0)},
                  1);

  const auto report = grid.run({simple_request(0.0)});
  EXPECT_EQ(report.clusters[1].completed, 1u) << "fast machine promises earlier";
}

TEST(GridSystem, ManyJobsAcrossClustersAllComplete) {
  std::vector<ClusterSetup> clusters;
  for (int i = 0; i < 4; ++i) {
    clusters.push_back(make_cluster("c" + std::to_string(i), 128));
  }
  GridSystem grid({}, std::move(clusters), 8);

  job::WorkloadParams params;
  params.job_count = 80;
  params.user_count = 8;
  params.cluster_count = 4;
  params.shaping.procs_cap = 128;
  params.min_procs_lo = 2;
  params.min_procs_hi = 16;
  job::WorkloadGenerator::calibrate_load(params, 0.5, 4 * 128);
  const auto report = grid.run(job::WorkloadGenerator{params, 77}.generate());

  EXPECT_EQ(report.jobs_submitted, 80u);
  EXPECT_EQ(report.jobs_completed + report.jobs_unplaced, 80u);
  EXPECT_GT(report.jobs_completed, 70u);
  // Every cluster should have processed some of the load.
  for (const auto& c : report.clusters) EXPECT_GT(c.bids_issued, 0u);
  EXPECT_GT(report.messages, 80u * 4u);
}

TEST(GridSystem, RejectedEverywhereIsUnplaced) {
  GridSystem grid({}, {make_cluster("tiny", 8)}, 1);

  job::JobRequest req;
  req.submit_time = 0.0;
  req.contract = qos::make_contract(64, 128, 1000.0);  // larger than machine
  const auto report = grid.run({req});
  EXPECT_EQ(report.jobs_completed, 0u);
  EXPECT_EQ(report.jobs_unplaced, 1u);
}

TEST(GridSystem, BarterCreditsFlowToExecutor) {
  auto c0 = make_cluster("home", 64);
  c0.barter_credits = 1000.0;
  auto c1 = make_cluster("away", 64);
  c1.barter_credits = 1000.0;
  // One user, home cluster 0.
  GridConfig config;
  config.central.billing = BillingMode::kBarter;
  config.clients_prefer_home = true;
  GridSystem grid(config, {std::move(c0), std::move(c1)}, 1);

  // Saturate the home cluster so the second job must go away.
  std::vector<job::JobRequest> reqs;
  job::JobRequest big;
  big.submit_time = 0.0;
  big.contract = qos::make_contract(64, 64, 64.0 * 5000.0, 1.0, 1.0);
  big.contract.payoff = qos::PayoffFunction::flat(10.0);
  reqs.push_back(big);
  job::JobRequest second;
  second.submit_time = 10.0;
  second.contract = qos::make_contract(64, 64, 6400.0, 1.0, 1.0);
  // Earliest-completion matters: prefer_home tries home first, but the
  // deadline check on the home bid (completion after hard deadline) makes
  // it non-viable, pushing the job to the away cluster.
  second.contract.payoff =
      qos::PayoffFunction::deadline(400.0, 800.0, 100.0, 50.0, 0.0);
  reqs.push_back(second);

  const auto report = grid.run(std::move(reqs));
  EXPECT_EQ(report.jobs_completed, 2u);
  const double home_balance = report.clusters[0].barter_balance;
  const double away_balance = report.clusters[1].barter_balance;
  EXPECT_LT(home_balance, 1000.0) << "home cluster paid for the away run";
  EXPECT_GT(away_balance, 1000.0) << "executor earned credits";
  EXPECT_NEAR(home_balance + away_balance, 2000.0, 1e-9) << "credits conserved";
}

TEST(GridSystem, ServiceUnitModeChargesAccounts) {
  GridConfig config;
  config.central.billing = BillingMode::kServiceUnits;
  config.user_initial_funds = 500.0;
  GridSystem grid(config, {make_cluster("su", 64)}, 1);
  const auto report = grid.run({simple_request(0.0)});
  EXPECT_EQ(report.jobs_completed, 1u);
  EXPECT_GT(grid.central().user_accounts().total_charged(), 0.0);
}

}  // namespace
}  // namespace faucets::core
