// The fault-tolerance acceptance scenario: a lossy WAN plus a mid-run
// cluster crash, run under a fixed seed, and a brokered variant that adds a
// network partition. Every submitted job must reach a terminal state
// (completed or unplaced, never stranded), and the run must drain and pass
// the grid's end-of-run audit (no lease held, no span open, credits
// conserved) — and the whole thing must be bit-for-bit repeatable. The
// Audit tests break each audited invariant on purpose, with the live plane
// off, and check that the audit names it.
#include <gtest/gtest.h>

#include <functional>

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
  setup.costs = job::AdaptiveCosts{.reconfig_seconds = 0.0};
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

/// Passes when the run drained and every audit term holds; a failure names
/// the first failing term.
::testing::AssertionResult drained_clean(const obs::live::Audit& audit) {
  if (!audit.drained) return ::testing::AssertionFailure() << "the run did not drain";
  if (const auto term = audit.first_failure()) {
    return ::testing::AssertionFailure()
           << "audit failed: " << obs::to_string(*term) << " observed "
           << audit.observed(*term);
  }
  return ::testing::AssertionSuccess();
}

struct ChaosOutcome {
  GridReport report;
  obs::live::Audit audit;
  std::uint64_t retry_attempts = 0;
  std::uint64_t retry_timeouts = 0;
  std::uint64_t completed = 0;
  std::uint64_t unplaced = 0;
  std::uint64_t pending = 0;
};

ChaosOutcome run_grid(GridSystem& grid, std::vector<job::JobRequest> requests) {
  ChaosOutcome out;
  out.report = grid.run(std::move(requests), /*until=*/1e6);
  out.audit = grid.audit();
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
  return out;
}

ChaosOutcome run_chaos(bool restart) {
  GridConfig config;
  config.client_watchdog_margin = 120.0;
  config.faults.loss_rate = 0.10;
  config.faults.seed = 0xc0ffee;
  config.crashes.push_back(
      {0, 200.0, restart ? std::optional<double>(600.0) : std::nullopt,
       /*graceful=*/false});
  GridSystem grid(config,
                  {make_cluster("alpha", 0.0001), make_cluster("beta", 0.0005),
                   make_cluster("gamma", 0.0009)},
                  3);
  return run_grid(grid, workload(12));
}

/// Brokered submission on eight clusters under 5% loss, a partition of
/// cluster 2 during [100, 300), and a crash of cluster 0 at 200 that
/// restarts at 700.
ChaosOutcome run_brokered_chaos() {
  std::vector<ClusterSetup> clusters;
  for (int i = 0; i < 8; ++i) {
    clusters.push_back(make_cluster("chaos" + std::to_string(i), 0.0002 + i * 0.0001));
  }
  GridConfig config;
  config.client_watchdog_margin = 120.0;
  config.brokered_submission = true;
  config.faults.loss_rate = 0.05;
  config.faults.seed = 0xfa11;
  config.partitions.push_back({2, 100.0, 300.0});
  config.crashes.push_back({0, 200.0, /*restart_at=*/700.0, /*graceful=*/false});
  GridSystem grid(config, std::move(clusters), 6);
  std::vector<job::JobRequest> reqs;
  for (std::size_t i = 0; i < 30; ++i) {
    job::JobRequest req;
    req.submit_time = 5.0 + static_cast<double>(i) * 25.0;
    req.user_index = i % 6;
    req.contract = qos::make_contract(4, 64, 3200.0, 1.0, 1.0);
    req.contract.payoff = qos::PayoffFunction::flat(10.0);
    reqs.push_back(std::move(req));
  }
  return run_grid(grid, std::move(reqs));
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
  EXPECT_TRUE(drained_clean(out.audit));
}

TEST(Chaos, BrokeredLossPartitionAndCrashLeaveNoStrandedJobs) {
  const auto out = run_brokered_chaos();
  EXPECT_EQ(out.report.jobs_submitted, 30u);
  EXPECT_EQ(out.pending, 0u) << "every submission must reach a terminal state";
  EXPECT_EQ(out.completed + out.unplaced, out.report.jobs_submitted);
  EXPECT_GE(out.completed, 15u) << "the surviving clusters carry the load";
  EXPECT_TRUE(drained_clean(out.audit));
}

TEST(Chaos, CrashWithoutRestartStillTerminates) {
  const auto out = run_chaos(/*restart=*/false);
  EXPECT_EQ(out.pending, 0u);
  EXPECT_EQ(out.completed + out.unplaced, 12u);
  EXPECT_TRUE(drained_clean(out.audit));
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
  GridConfig config;
  config.retry = {.max_attempts = 6, .base_timeout = 30.0, .multiplier = 2.0,
                  .max_timeout = 240.0};
  config.partitions.push_back({0, 0.0, 400.0});
  GridSystem grid(config, {make_cluster("solo", 0.0005)}, 1);

  const auto report = grid.run(workload(1), /*until=*/1e6);
  EXPECT_EQ(report.jobs_completed, 1u)
      << "the healed partition must get a re-bid, not a permanent failure";
  EXPECT_GT(grid.network().dropped_of(obs::DropReason::kPartitioned), 0u);
  EXPECT_GT(grid.context().metrics().counter_value("faucets_retry_attempts_total"),
            0u);
  EXPECT_TRUE(drained_clean(grid.audit()));
}

TEST(Chaos, FaultFreeGridsKeepTheOneShotMarket) {
  // No faults configured: bid_rounds stays 1 and a grid with no viable
  // server fails a job immediately instead of burning the backoff budget.
  GridSystem grid({}, {make_cluster("tiny", 0.0005)}, 1);
  std::vector<job::JobRequest> reqs = workload(1);
  reqs[0].contract = qos::make_contract(128, 256, 1000.0);  // never fits
  const auto report = grid.run(std::move(reqs), 1e6);
  EXPECT_EQ(report.jobs_unplaced, 1u);
  EXPECT_EQ(grid.context().metrics().counter_value("faucets_retry_attempts_total"),
            0u)
      << "a fault-free grid must not retry";
}

TEST(Chaos, CentralUnreachableFromTheStartTimesOutEveryJob) {
  // The Central Server is cut off before any login. Each client spends its
  // login retry schedule (75 s by default) and then fails the jobs queued
  // behind the login; a job that arrives later fails at once.
  GridSystem grid({}, {make_cluster("alpha", 0.0001), make_cluster("beta", 0.0005)},
                  2);
  grid.network().set_faults({.partitions = {{grid.central().id(), 0.0, 1e9}}});
  std::vector<job::JobRequest> reqs = workload(4);
  for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].user_index = i % 2;
  reqs[3].submit_time = 500.0;
  const auto out = run_grid(grid, std::move(reqs));
  EXPECT_EQ(out.report.jobs_submitted, 4u);
  EXPECT_EQ(out.report.jobs_unplaced, out.report.jobs_submitted);
  for (std::size_t c = 0; c < grid.client_count(); ++c) {
    EXPECT_FALSE(grid.client(c).logged_in());
    ASSERT_EQ(grid.client(c).outcomes().size(), 2u);
    for (const auto& o : grid.client(c).outcomes()) {
      EXPECT_EQ(o.status, SubmissionOutcome::Status::kTimedOut);
    }
  }
  EXPECT_TRUE(drained_clean(out.audit));
}

// ------------------------------------------------------------------ Audit

/// Two 64-proc clusters, eight jobs, live plane off; `sabotage` runs from a
/// pause hook at t = 50, mid-run.
obs::live::Audit audit_after(const std::function<void(GridSystem&)>& sabotage) {
  GridSystem grid({}, {make_cluster("alpha", 0.0001), make_cluster("beta", 0.0005)},
                  3);
  EXPECT_EQ(grid.live(), nullptr);
  bool fired = false;
  if (sabotage) {
    grid.set_pause_hook(50.0, [&] {
      sabotage(grid);
      fired = true;
      return true;
    });
  }
  (void)grid.run(workload(8), /*until=*/1e6);
  EXPECT_EQ(fired, static_cast<bool>(sabotage));
  EXPECT_TRUE(grid.audit().drained);
  return grid.audit();
}

TEST(Audit, CleanRunPasses) {
  const obs::live::Audit audit = audit_after(nullptr);
  EXPECT_TRUE(drained_clean(audit));
  EXPECT_EQ(audit.submitted, 8u);
  EXPECT_EQ(audit.in_flight(), 0);
}

TEST(Audit, LeakedLeaseFailsTheLeaseTerm) {
  // A lease whose expiry timer is cancelled stays held forever.
  const obs::live::Audit audit = audit_after([](GridSystem& grid) {
    auto& cm = grid.daemon(1).cm();
    const auto id = cm.reserve(qos::make_contract(1, 2, 10.0), 51.0);
    ASSERT_TRUE(id.has_value());
    EXPECT_TRUE(cm.leak_reservation_for_test(*id));
  });
  EXPECT_EQ(audit.held_leases, 1u);
  EXPECT_EQ(audit.first_failure(), obs::MonitorKind::kLeaseLeak);
}

TEST(Audit, MintedCreditsFailTheLedgerTerm) {
  // An account for a cluster that does not exist adds credits no transfer
  // moved.
  const obs::live::Audit audit = audit_after([](GridSystem& grid) {
    grid.central().open_barter_account(ClusterId{99}, 5.0);
  });
  EXPECT_DOUBLE_EQ(audit.ledger_residual, 5.0);
  EXPECT_EQ(audit.first_failure(), obs::MonitorKind::kLedgerConservation);
}

TEST(Audit, UnendedSpanFailsTheSpanTerm) {
  const obs::live::Audit audit = audit_after([](GridSystem& grid) {
    (void)grid.context().spans().start_span(obs::SpanKind::kRfb, 50.0);
  });
  EXPECT_EQ(audit.open_spans, 1u);
  EXPECT_EQ(audit.open_submissions, 0u);
  EXPECT_EQ(audit.first_failure(), obs::MonitorKind::kSpanBalance);
}

}  // namespace
}  // namespace faucets::core
