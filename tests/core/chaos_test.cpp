// The fault-tolerance acceptance scenario: a lossy WAN plus a mid-run
// cluster crash, run under a fixed seed, and a brokered variant that adds a
// network partition. Every submitted job must reach a terminal state
// (completed or unplaced, never stranded), every reservation lease must be
// released, every lifecycle span closed — and the whole thing must be
// bit-for-bit repeatable.
#include <gtest/gtest.h>

#include "src/core/grid_system.hpp"
#include "src/sched/equipartition.hpp"

namespace faucets::core {
namespace {

ClusterSetup make_cluster(const std::string& name, double cost) {
  ClusterSetup setup;
  setup.machine.name = name;
  setup.machine.total_procs = 64;
  setup.machine.cost_per_cpu_second = cost;
  setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  setup.bid_generator = [] { return std::make_unique<market::BaselineBidGenerator>(); };
  setup.costs = job::AdaptiveCosts{.reconfig_seconds = 0.0,
                                   .checkpoint_seconds = 0.0,
                                   .restart_seconds = 0.0};
  return setup;
}

std::vector<job::JobRequest> workload(std::size_t n) {
  std::vector<job::JobRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    job::JobRequest req;
    req.submit_time = static_cast<double>(i) * 40.0;
    req.user_index = i % 3;
    req.contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
    req.contract.payoff = qos::PayoffFunction::flat(10.0);
    reqs.push_back(std::move(req));
  }
  return reqs;
}

struct ChaosOutcome {
  GridReport report;
  std::uint64_t retry_attempts = 0;
  std::uint64_t retry_timeouts = 0;
  std::uint64_t completed = 0;
  std::uint64_t unplaced = 0;
  std::uint64_t pending = 0;
  std::size_t open_spans = 0;
  std::size_t live_leases = 0;
};

ChaosOutcome run_grid(GridSystem& grid, std::vector<job::JobRequest> requests) {
  ChaosOutcome out;
  out.report = grid.run(std::move(requests), /*until=*/1e6);
  out.retry_attempts =
      grid.context().metrics().counter_value("faucets_retry_attempts_total");
  out.retry_timeouts =
      grid.context().metrics().counter_value("faucets_retry_timeouts_total");
  for (std::size_t c = 0; c < grid.client_count(); ++c) {
    for (const auto& o : grid.client(c).outcomes()) {
      switch (o.status) {
        case SubmissionOutcome::Status::kCompleted:
          ++out.completed;
          break;
        case SubmissionOutcome::Status::kNoServers:
        case SubmissionOutcome::Status::kNoBids:
        case SubmissionOutcome::Status::kAllRefused:
        case SubmissionOutcome::Status::kTimedOut:
          ++out.unplaced;
          break;
        case SubmissionOutcome::Status::kPending:
        case SubmissionOutcome::Status::kPlaced:
          ++out.pending;
          break;
      }
    }
  }
  for (const obs::Span& s : grid.obs().spans().spans()) {
    if (s.open()) ++out.open_spans;
  }
  for (std::size_t d = 0; d < grid.cluster_count(); ++d) {
    out.live_leases += grid.daemon(d).cm().active_reservations();
  }
  return out;
}

ChaosOutcome run_chaos(bool restart) {
  auto grid = GridBuilder()
                  .cluster(make_cluster("alpha", 0.0001))
                  .cluster(make_cluster("beta", 0.0005))
                  .cluster(make_cluster("gamma", 0.0009))
                  .watchdog(120.0)
                  .loss(0.10)
                  .fault_seed(0xc0ffee)
                  .crash(0, 200.0,
                         restart ? std::optional<double>(600.0) : std::nullopt)
                  .users(3)
                  .build();
  return run_grid(*grid, workload(12));
}

/// Brokered submission on eight clusters under 5% loss, a partition of
/// cluster 2 during [100, 300), and a crash of cluster 0 at 200 that
/// restarts at 700.
ChaosOutcome run_brokered_chaos() {
  GridBuilder builder;
  for (int i = 0; i < 8; ++i) {
    builder.cluster(make_cluster("chaos" + std::to_string(i), 0.0002 + i * 0.0001));
  }
  auto grid = builder.users(6)
                  .watchdog(120.0)
                  .brokered()
                  .loss(0.05)
                  .fault_seed(0xfa11)
                  .partition(2, 100.0, 300.0)
                  .crash(0, 200.0, /*restart_at=*/700.0)
                  .build();
  std::vector<job::JobRequest> reqs;
  for (std::size_t i = 0; i < 30; ++i) {
    job::JobRequest req;
    req.submit_time = 5.0 + static_cast<double>(i) * 25.0;
    req.user_index = i % 6;
    req.contract = qos::make_contract(4, 64, 3200.0, 1.0, 1.0);
    req.contract.payoff = qos::PayoffFunction::flat(10.0);
    reqs.push_back(std::move(req));
  }
  return run_grid(*grid, std::move(reqs));
}

TEST(Chaos, LossAndCrashLeaveNoStrandedJobs) {
  const auto out = run_chaos(/*restart=*/true);

  // Terminal-state accounting: nothing pending, nothing stranded.
  EXPECT_EQ(out.report.jobs_submitted, 12u);
  EXPECT_EQ(out.pending, 0u) << "every submission must reach a terminal state";
  EXPECT_EQ(out.completed + out.unplaced, 12u);
  EXPECT_EQ(out.report.jobs_completed, out.completed);
  EXPECT_EQ(out.report.jobs_unplaced, out.unplaced);
  // With two surviving clusters and a restart, the lossy wire alone must not
  // sink the run: most of the work still completes.
  EXPECT_GE(out.completed, 8u);

  // The 10% loss forces visible retry work.
  EXPECT_GT(out.retry_attempts, 0u);
  EXPECT_GT(out.retry_timeouts, 0u);

  // No capacity is still held hostage and no lifecycle span dangles.
  EXPECT_EQ(out.live_leases, 0u);
  EXPECT_EQ(out.open_spans, 0u);
}

TEST(Chaos, BrokeredLossPartitionAndCrashLeaveNoStrandedJobs) {
  const auto out = run_brokered_chaos();
  EXPECT_EQ(out.report.jobs_submitted, 30u);
  EXPECT_EQ(out.pending, 0u) << "every submission must reach a terminal state";
  EXPECT_EQ(out.completed + out.unplaced, out.report.jobs_submitted);
  EXPECT_GE(out.completed, 15u) << "the surviving clusters carry the load";
  EXPECT_EQ(out.live_leases, 0u);
  EXPECT_EQ(out.open_spans, 0u);
}

TEST(Chaos, CrashWithoutRestartStillTerminates) {
  const auto out = run_chaos(/*restart=*/false);
  EXPECT_EQ(out.pending, 0u);
  EXPECT_EQ(out.completed + out.unplaced, 12u);
  EXPECT_EQ(out.live_leases, 0u);
  EXPECT_EQ(out.open_spans, 0u);
}

TEST(Chaos, FixedSeedIsDeterministic) {
  const auto a = run_chaos(/*restart=*/true);
  const auto b = run_chaos(/*restart=*/true);
  EXPECT_EQ(a.report.jobs_completed, b.report.jobs_completed);
  EXPECT_EQ(a.report.jobs_unplaced, b.report.jobs_unplaced);
  EXPECT_EQ(a.report.messages, b.report.messages);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_EQ(a.retry_timeouts, b.retry_timeouts);
  EXPECT_DOUBLE_EQ(a.report.total_spent, b.report.total_spent);
  EXPECT_DOUBLE_EQ(a.report.makespan, b.report.makespan);
}

TEST(Chaos, PartitionHealLetsTheJobThrough) {
  // One cluster, partitioned from before the submission until t=400: the
  // first rounds time out, then the healed link gets a fresh RFB round and
  // the job lands.
  auto grid_ptr = GridBuilder()
                      .cluster(make_cluster("solo", 0.0005))
                      .retry({.max_attempts = 6, .base_timeout = 30.0,
                              .multiplier = 2.0, .max_timeout = 240.0})
                      .partition(0, 0.0, 400.0)
                      .users(1)
                      .build();
  GridSystem& grid = *grid_ptr;

  const auto report = grid.run(workload(1), /*until=*/1e6);
  EXPECT_EQ(report.jobs_completed, 1u)
      << "the healed partition must get a re-bid, not a permanent failure";
  EXPECT_GT(grid.network().dropped_of(obs::DropReason::kPartitioned), 0u);
  EXPECT_GT(grid.context().metrics().counter_value("faucets_retry_attempts_total"),
            0u);
  for (const obs::Span& s : grid.obs().spans().spans()) {
    EXPECT_FALSE(s.open());
  }
}

TEST(Chaos, FaultFreeGridsKeepTheOneShotMarket) {
  // No faults configured: bid_rounds stays 1 and a grid with no viable
  // server fails a job immediately instead of burning the backoff budget.
  auto grid_ptr = GridBuilder().cluster(make_cluster("tiny", 0.0005)).users(1).build();
  GridSystem& grid = *grid_ptr;
  std::vector<job::JobRequest> reqs = workload(1);
  reqs[0].contract = qos::make_contract(128, 256, 1000.0);  // never fits
  const auto report = grid.run(std::move(reqs), 1e6);
  EXPECT_EQ(report.jobs_unplaced, 1u);
  EXPECT_EQ(grid.context().metrics().counter_value("faucets_retry_attempts_total"),
            0u)
      << "a fault-free grid must not retry";
}

}  // namespace
}  // namespace faucets::core
