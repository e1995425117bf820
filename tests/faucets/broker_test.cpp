// Brokered submission (§5.3): the client agent performs directory lookup,
// RFB fan-out, evaluation, and two-phase award on the client's behalf.
#include <gtest/gtest.h>

#include "src/core/grid_system.hpp"
#include "src/sched/equipartition.hpp"
#include "src/sched/payoff_sched.hpp"

namespace faucets {
namespace {

core::ClusterSetup make_cluster(const std::string& name, double cost) {
  core::ClusterSetup setup;
  setup.machine.name = name;
  setup.machine.total_procs = 64;
  setup.machine.cost_per_cpu_second = cost;
  setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  setup.bid_generator = [] { return std::make_unique<market::BaselineBidGenerator>(); };
  setup.costs = job::AdaptiveCosts{.reconfig_seconds = 0.0};
  return setup;
}

job::JobRequest simple_job(double t = 0.0) {
  job::JobRequest req;
  req.submit_time = t;
  req.contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
  req.contract.payoff = qos::PayoffFunction::flat(10.0);
  return req;
}

/// A grid whose clients hand every job to the broker agent.
core::GridConfig brokered() {
  core::GridConfig config;
  config.brokered_submission = true;
  return config;
}

TEST(Broker, PlacesJobEndToEnd) {
  core::GridSystem grid(brokered(),
                        {make_cluster("a", 0.0008), make_cluster("b", 0.0002)}, 1);

  const auto report = grid.run({simple_job()});
  EXPECT_EQ(report.jobs_completed, 1u);
  ASSERT_NE(grid.broker(), nullptr);
  EXPECT_EQ(grid.broker()->submissions(), 1u);
  EXPECT_EQ(grid.broker()->placed(), 1u);
  // The default least-cost evaluator: the cheap cluster wins.
  EXPECT_EQ(report.clusters[1].completed, 1u);
  EXPECT_GT(report.total_spent, 0.0);
}

TEST(Broker, ClientTrafficIsConstantInServerCount) {
  auto run_with = [](bool via_broker, int servers) {
    core::GridConfig config;
    config.brokered_submission = via_broker;
    std::vector<core::ClusterSetup> clusters;
    for (int i = 0; i < servers; ++i) {
      clusters.push_back(make_cluster("c" + std::to_string(i), 0.0008));
    }
    core::GridSystem grid(config, std::move(clusters), 1);
    (void)grid.run({simple_job()});
    return grid.network().traffic_of(grid.client(0).id());
  };

  // Direct mode: client traffic grows with server count (broadcast RFB).
  const auto direct_4 = run_with(false, 4);
  const auto direct_16 = run_with(false, 16);
  EXPECT_GT(direct_16, direct_4 + 8) << "broadcast should scale with servers";

  // Brokered: the client exchanges a constant number of messages.
  const auto brokered_4 = run_with(true, 4);
  const auto brokered_16 = run_with(true, 16);
  EXPECT_EQ(brokered_4, brokered_16);
  EXPECT_LT(brokered_16, direct_16);
}

TEST(Broker, CriteriaRespected) {
  auto fast = make_cluster("fast", 0.01);
  fast.machine.speed_factor = 4.0;
  core::GridConfig config = brokered();
  config.evaluator = [] {
    return std::make_unique<market::EarliestCompletionEvaluator>();
  };
  core::GridSystem grid(config, {make_cluster("slow", 0.0001), std::move(fast)}, 1);
  const auto report = grid.run({simple_job()});
  EXPECT_EQ(report.clusters[1].completed, 1u)
      << "earliest-completion must pick the fast machine despite its price";
}

TEST(Broker, NoServersReportsFailure) {
  auto tiny = make_cluster("tiny", 0.0008);
  tiny.machine.total_procs = 8;
  core::GridSystem grid(brokered(), {std::move(tiny)}, 1);
  job::JobRequest req;
  req.submit_time = 0.0;
  req.contract = qos::make_contract(64, 128, 1000.0);
  const auto report = grid.run({req});
  EXPECT_EQ(report.jobs_unplaced, 1u);
  EXPECT_EQ(grid.broker()->failed(), 1u);
}

TEST(Broker, CentralUnreachableAfterLoginEndsTimedOut) {
  core::GridSystem grid(brokered(), {make_cluster("a", 0.0008)}, 1);
  // The client logs in at t = 0; from t = 5 on the Central Server is cut
  // off, so the broker's directory lookups for the job submitted at t = 10
  // all time out.
  grid.network().set_faults({.partitions = {{grid.central().id(), 5.0, 1e9}}});
  const auto report = grid.run({simple_job(10.0)}, 1e6);
  EXPECT_EQ(report.jobs_unplaced, 1u);
  EXPECT_EQ(grid.broker()->failed(), 1u);
  EXPECT_TRUE(grid.client(0).logged_in());
  EXPECT_EQ(grid.client(0).outcomes().at(0).status,
            SubmissionOutcome::Status::kTimedOut)
      << "a directory timeout must not read as 'no bids'";
}

TEST(Broker, HomeClusterWinsOverCheaperBids) {
  // One user, whose home is cluster 0: the dearer home bid wins outright.
  core::GridConfig config = brokered();
  config.clients_prefer_home = true;
  core::GridSystem grid(
      config, {make_cluster("home", 0.0008), make_cluster("cheap", 0.0002)}, 1);
  const auto report = grid.run({simple_job()});
  EXPECT_EQ(report.jobs_completed, 1u);
  EXPECT_EQ(report.clusters[0].completed, 1u);
  EXPECT_EQ(report.clusters[1].completed, 0u);
}

TEST(Broker, TwoPhaseRetryGoesToNextBest) {
  std::vector<core::ClusterSetup> clusters;
  // Payoff strategy with zero lookahead: the second concurrent award to
  // the cheap cluster is refused at commit time.
  for (const auto& [name, cost] :
       {std::pair{"cheap", 0.0001}, std::pair{"fallback", 0.01}}) {
    auto setup = make_cluster(name, cost);
    setup.strategy = [] {
      sched::PayoffStrategyParams p;
      p.lookahead = 0.0;
      return std::make_unique<sched::PayoffStrategy>(p);
    };
    clusters.push_back(std::move(setup));
  }
  core::GridSystem grid(brokered(), std::move(clusters), 2);

  std::vector<job::JobRequest> reqs;
  for (std::size_t u = 0; u < 2; ++u) {
    job::JobRequest req;
    req.submit_time = 0.0;
    req.contract = qos::make_contract(64, 64, 64.0 * 300.0, 1.0, 1.0);
    req.contract.payoff = qos::PayoffFunction::flat(100.0);
    req.user_index = u;
    reqs.push_back(std::move(req));
  }
  const auto report = grid.run(std::move(reqs), 1e6);
  EXPECT_EQ(report.jobs_completed, 2u);
  EXPECT_EQ(report.clusters[0].completed, 1u);
  EXPECT_EQ(report.clusters[1].completed, 1u);
}

TEST(Broker, EvictionStillReachesClientDirectly) {
  core::GridConfig config = brokered();
  config.crashes.push_back({0, 30.0, std::nullopt, /*graceful=*/true});
  core::GridSystem grid(
      config, {make_cluster("doomed", 0.0001), make_cluster("survivor", 0.01)}, 1);

  job::JobRequest req;
  req.submit_time = 0.0;
  req.contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
  req.contract.payoff = qos::PayoffFunction::flat(10.0);
  const auto report = grid.run({req}, 1e6);
  EXPECT_EQ(report.jobs_completed, 1u);
  EXPECT_EQ(report.migrations, 1u);
  EXPECT_EQ(report.clusters[1].completed, 1u);
}

}  // namespace
}  // namespace faucets
