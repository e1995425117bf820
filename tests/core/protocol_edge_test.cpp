// Protocol edge cases: two-phase commit races (§5.3), determinism of the
// whole simulation, and the Cluster Manager's trace feed.
#include <gtest/gtest.h>

#include "src/core/grid_system.hpp"
#include "src/sched/equipartition.hpp"
#include "src/sched/payoff_sched.hpp"

namespace faucets::core {
namespace {

ClusterSetup payoff_cluster(const std::string& name, int procs,
                            double cost = 0.0008) {
  ClusterSetup setup;
  setup.machine.name = name;
  setup.machine.total_procs = procs;
  setup.machine.cost_per_cpu_second = cost;
  setup.strategy = [] {
    sched::PayoffStrategyParams p;
    p.lookahead = 0.0;  // accept only what can start right now
    return std::make_unique<sched::PayoffStrategy>(p);
  };
  setup.bid_generator = [] { return std::make_unique<market::BaselineBidGenerator>(); };
  return setup;
}

TEST(TwoPhase, ConcurrentAwardsRaceAndOneIsRefused) {
  // Two clients bid for the last slot of the cheap cluster at the same
  // instant. Both get bids; the award of the loser must be refused (the
  // second phase of the protocol) and retried on the expensive cluster.
  GridSystem grid({},
                  {payoff_cluster("cheap", 64, 0.0001),
                   payoff_cluster("fallback", 64, 0.01)},
                  2);

  std::vector<job::JobRequest> reqs;
  for (std::size_t u = 0; u < 2; ++u) {
    job::JobRequest req;
    req.submit_time = 0.0;
    // Rigid 64-proc job: only one fits the cheap cluster at a time, and
    // with lookahead 0 the second submission is rejected outright.
    req.contract = qos::make_contract(64, 64, 64.0 * 300.0, 1.0, 1.0);
    req.contract.payoff = qos::PayoffFunction::flat(100.0);
    req.user_index = u;
    reqs.push_back(std::move(req));
  }
  const auto report = grid.run(std::move(reqs), 1e6);

  EXPECT_EQ(report.jobs_completed, 2u);
  std::uint64_t refused = 0;
  for (const auto& c : report.clusters) refused += c.awards_refused;
  EXPECT_GE(refused, 1u) << "the race must trip the two-phase refusal";
  EXPECT_EQ(report.clusters[0].completed, 1u);
  EXPECT_EQ(report.clusters[1].completed, 1u) << "loser retried elsewhere";
}

TEST(Determinism, IdenticalSeedsIdenticalReports) {
  auto run_once = [] {
    std::vector<ClusterSetup> clusters;
    for (int i = 0; i < 3; ++i) {
      ClusterSetup setup;
      setup.machine.name = "c" + std::to_string(i);
      setup.machine.total_procs = 128;
      setup.machine.cost_per_cpu_second = 0.0005 + 0.0001 * i;
      setup.strategy = [] { return std::make_unique<sched::PayoffStrategy>(); };
      setup.bid_generator = [] {
        return std::make_unique<market::UtilizationBidGenerator>();
      };
      clusters.push_back(std::move(setup));
    }
    GridSystem grid({}, std::move(clusters), 6);
    job::WorkloadParams params;
    params.job_count = 120;
    params.user_count = 6;
    params.shaping.procs_cap = 128;
    job::WorkloadGenerator::calibrate_load(params, 0.8, 3 * 128);
    return grid.run(job::WorkloadGenerator{params, 4242}.generate());
  };

  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_unplaced, b.jobs_unplaced);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_DOUBLE_EQ(a.total_spent, b.total_spent);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].completed, b.clusters[i].completed);
    EXPECT_DOUBLE_EQ(a.clusters[i].revenue, b.clusters[i].revenue);
    EXPECT_DOUBLE_EQ(a.clusters[i].utilization, b.clusters[i].utilization);
  }
}

TEST(Trace, ClusterManagerEmitsLifecycleEvents) {
  sim::SimContext ctx;
  cluster::MachineSpec m;
  m.total_procs = 64;
  cluster::ClusterManager cm{ctx, m,
                             std::make_unique<sched::EquipartitionStrategy>(),
                             job::AdaptiveCosts{.reconfig_seconds = 0.0,
                                                .checkpoint_seconds = 0.0,
                                                .restart_seconds = 0.0}};
  ASSERT_TRUE(cm.submit(UserId{1}, qos::make_contract(4, 64, 3200.0, 1.0, 1.0)));
  ASSERT_TRUE(cm.submit(UserId{2}, qos::make_contract(4, 64, 6400.0, 1.0, 1.0)));
  ctx.engine().run();

  auto has = [&](obs::TraceEventKind kind, JobId job) {
    bool found = false;
    ctx.trace().for_each([&](const obs::TraceEvent& ev) {
      if (ev.kind == kind && obs::payload_of(ev.kind) == obs::TracePayload::kJob &&
          ev.payload.job.job == job) {
        found = true;
      }
    });
    return found;
  };
  EXPECT_TRUE(has(obs::TraceEventKind::kJobAccepted, JobId{0}));
  EXPECT_TRUE(has(obs::TraceEventKind::kJobStarted, JobId{0}));
  EXPECT_TRUE(has(obs::TraceEventKind::kJobShrunk, JobId{0}))
      << "second arrival shrinks the first";
  EXPECT_TRUE(has(obs::TraceEventKind::kJobExpanded, JobId{1}))
      << "first completion expands the second";
  EXPECT_TRUE(has(obs::TraceEventKind::kJobCompleted, JobId{0}));
  EXPECT_TRUE(has(obs::TraceEventKind::kJobCompleted, JobId{1}));
  // Times are non-decreasing across the whole buffer.
  double last = 0.0;
  ctx.trace().for_each([&](const obs::TraceEvent& ev) {
    EXPECT_LE(last, ev.time);
    last = ev.time;
  });
}

TEST(Trace, RejectionIsTraced) {
  sim::SimContext ctx;
  cluster::MachineSpec m;
  m.total_procs = 8;
  cluster::ClusterManager cm{ctx, m,
                             std::make_unique<sched::EquipartitionStrategy>()};
  EXPECT_FALSE(cm.submit(UserId{1}, qos::make_contract(64, 64, 100.0)).has_value());
  std::vector<UserId> rejected;
  ctx.trace().for_each([&](const obs::TraceEvent& ev) {
    if (ev.kind == obs::TraceEventKind::kJobRejected) {
      rejected.push_back(ev.payload.job.user);
    }
  });
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0], UserId{1});
  EXPECT_EQ(ctx.metrics().counter_value(
                "faucets_cm_jobs_rejected_total{cluster=\"cluster\"}"),
            1u);
}

}  // namespace
}  // namespace faucets::core
