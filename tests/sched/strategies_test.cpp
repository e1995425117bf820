// Tests for FCFS, EASY backfill and the profit-driven payoff strategy,
// driven through a real ClusterManager inside the event ctx.engine().
#include <gtest/gtest.h>

#include "src/cluster/server.hpp"
#include "src/sched/backfill.hpp"
#include "src/sched/fcfs.hpp"
#include "src/sched/payoff_sched.hpp"

namespace faucets::sched {
namespace {

cluster::MachineSpec machine_of(int procs) {
  cluster::MachineSpec m;
  m.total_procs = procs;
  return m;
}

job::AdaptiveCosts zero_costs() {
  return job::AdaptiveCosts{.reconfig_seconds = 0.0};
}

TEST(RigidRequest, PolicySizes) {
  const auto c = qos::make_contract(4, 64, 100.0);
  EXPECT_EQ(rigid_request_size(c, RigidRequest::kMin, 128), 4);
  EXPECT_EQ(rigid_request_size(c, RigidRequest::kMax, 128), 64);
  EXPECT_EQ(rigid_request_size(c, RigidRequest::kMedian, 128), 16);  // sqrt(256)
  // Machine smaller than max clamps.
  EXPECT_EQ(rigid_request_size(c, RigidRequest::kMax, 32), 32);
}

TEST(Fcfs, HeadOfLineBlocking) {
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<FcfsStrategy>(RigidRequest::kMax),
                             zero_costs()};
  // J1 takes 60 procs for 100 s; J2 needs 50 (blocked); J3 needs 10 and
  // would fit, but FCFS must not let it jump the queue.
  ASSERT_TRUE(cm.submit(UserId{1}, qos::make_contract(60, 60, 6000.0, 1.0, 1.0)));
  ASSERT_TRUE(cm.submit(UserId{2}, qos::make_contract(50, 50, 500.0, 1.0, 1.0)));
  ASSERT_TRUE(cm.submit(UserId{3}, qos::make_contract(10, 10, 100.0, 1.0, 1.0)));
  EXPECT_EQ(cm.running_count(), 1u);
  EXPECT_EQ(cm.queued_count(), 2u);
  ctx.engine().run();
  cm.finish_metrics();
  EXPECT_EQ(cm.metrics().completed(), 3u);
}

TEST(Fcfs, StartsJobsInOrderWhenTheyFit) {
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<FcfsStrategy>(RigidRequest::kMax),
                             zero_costs()};
  ASSERT_TRUE(cm.submit(UserId{1}, qos::make_contract(40, 40, 400.0, 1.0, 1.0)));
  ASSERT_TRUE(cm.submit(UserId{2}, qos::make_contract(40, 40, 400.0, 1.0, 1.0)));
  EXPECT_EQ(cm.running_count(), 2u);
}

TEST(Backfill, FillsAroundReservation) {
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<BackfillStrategy>(RigidRequest::kMax),
                             zero_costs()};
  // J1: 60 procs 100 s. J2: 50 procs (blocked; reservation at t=100).
  // J3: 10 procs, 50 s -> finishes before the reservation, may backfill.
  ASSERT_TRUE(cm.submit(UserId{1}, qos::make_contract(60, 60, 6000.0, 1.0, 1.0)));
  ASSERT_TRUE(cm.submit(UserId{2}, qos::make_contract(50, 50, 500.0, 1.0, 1.0)));
  ASSERT_TRUE(cm.submit(UserId{3}, qos::make_contract(10, 10, 100.0, 1.0, 1.0)));
  EXPECT_EQ(cm.running_count(), 2u) << "J3 should backfill";
  ctx.engine().run();
  cm.finish_metrics();
  EXPECT_EQ(cm.metrics().completed(), 3u);
}

TEST(Backfill, DoesNotDelayReservation) {
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<BackfillStrategy>(RigidRequest::kMax),
                             zero_costs()};
  // J1: 30 procs until t=100. J2 (head): 90 procs, reserved at t=100 with
  // only 10 spare nodes then. J3: 40 procs for 200 s fits now but runs past
  // the shadow time and exceeds the spare nodes: must NOT start.
  ASSERT_TRUE(cm.submit(UserId{1}, qos::make_contract(30, 30, 3000.0, 1.0, 1.0)));
  ASSERT_TRUE(cm.submit(UserId{2}, qos::make_contract(90, 90, 900.0, 1.0, 1.0)));
  ASSERT_TRUE(cm.submit(UserId{3}, qos::make_contract(40, 40, 8000.0, 1.0, 1.0)));
  EXPECT_EQ(cm.running_count(), 1u)
      << "a long 40-proc job would steal the reservation's processors";
  ctx.engine().run();
  cm.finish_metrics();
  EXPECT_EQ(cm.metrics().completed(), 3u);
}

TEST(Payoff, AcceptsProfitableJob) {
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<PayoffStrategy>(), zero_costs()};
  auto c = qos::make_contract(10, 50, 1000.0, 1.0, 1.0);
  c.payoff = qos::PayoffFunction::deadline(500.0, 1000.0, 100.0, 40.0, 10.0);
  const auto d = cm.query(c);
  EXPECT_TRUE(d.accept);
  EXPECT_LT(d.estimated_completion, 500.0);
}

TEST(Payoff, RejectsUnprofitableDeadline) {
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<PayoffStrategy>(), zero_costs()};
  // Deadline already impossible: even at max procs the job needs 100 s but
  // the hard deadline is at 10 s.
  auto c = qos::make_contract(10, 10, 1000.0, 1.0, 1.0);
  c.payoff = qos::PayoffFunction::deadline(5.0, 10.0, 100.0, 40.0, 10.0);
  const auto d = cm.query(c);
  EXPECT_FALSE(d.accept);
}

TEST(Payoff, ZeroLookaheadRejectsWhenBusy) {
  PayoffStrategyParams params;
  params.lookahead = 0.0;
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<PayoffStrategy>(params), zero_costs()};
  // Fill the machine with a rigid flat-payoff job.
  auto filler = qos::make_contract(100, 100, 10000.0, 1.0, 1.0);
  filler.payoff = qos::PayoffFunction::flat(1.0);
  ASSERT_TRUE(cm.submit(UserId{1}, filler));
  // A new job cannot start *now*: the prototype rule rejects it.
  auto c = qos::make_contract(10, 10, 100.0, 1.0, 1.0);
  c.payoff = qos::PayoffFunction::flat(50.0);
  EXPECT_FALSE(cm.query(c).accept);
}

TEST(Payoff, LookaheadAcceptsFutureWindow) {
  PayoffStrategyParams params;
  params.lookahead = 1000.0;
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<PayoffStrategy>(params), zero_costs()};
  auto filler = qos::make_contract(100, 100, 10000.0, 1.0, 1.0);  // done at 100 s
  filler.payoff = qos::PayoffFunction::flat(1.0);
  ASSERT_TRUE(cm.submit(UserId{1}, filler));
  auto c = qos::make_contract(10, 10, 100.0, 1.0, 1.0);
  c.payoff = qos::PayoffFunction::flat(50.0);
  const auto d = cm.query(c);
  EXPECT_TRUE(d.accept);
  EXPECT_GE(d.estimated_completion, 100.0);
}

TEST(Payoff, HighPayoffJobShrinksLowPriority) {
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<PayoffStrategy>(), zero_costs()};
  // Background job happily expands to the machine.
  auto bg = qos::make_contract(20, 100, 50000.0, 1.0, 1.0);
  bg.payoff = qos::PayoffFunction::flat(1.0);
  ASSERT_TRUE(cm.submit(UserId{1}, bg));
  for (const auto* j : cm.running_jobs()) EXPECT_EQ(j->procs(), 100);
  // Urgent job arrives needing 80 procs.
  auto urgent = qos::make_contract(80, 80, 800.0, 1.0, 1.0);
  urgent.payoff = qos::PayoffFunction::deadline(60.0, 120.0, 500.0, 100.0, 0.0);
  ASSERT_TRUE(cm.submit(UserId{2}, urgent));
  int bg_procs = 0;
  int urgent_procs = 0;
  for (const auto* j : cm.running_jobs()) {
    if (j->contract().min_procs == 80) {
      urgent_procs = j->procs();
    } else {
      bg_procs = j->procs();
    }
  }
  EXPECT_EQ(urgent_procs, 80);
  EXPECT_EQ(bg_procs, 20);
}

TEST(Payoff, DisplacementLossBlocksHarmfulJob) {
  PayoffStrategyParams charging;
  charging.charge_displacement_loss = true;
  PayoffStrategyParams free_params;
  free_params.charge_displacement_loss = false;

  auto build = [&](PayoffStrategyParams p, sim::SimContext& ctx) {
    return std::make_unique<cluster::ClusterManager>(
        ctx, machine_of(100), std::make_unique<PayoffStrategy>(p), zero_costs());
  };

  // A deadline job holds the machine with little slack; a tiny-payoff job
  // whose presence would push it past its deadline must be rejected when
  // loss accounting is on.
  auto valuable = qos::make_contract(50, 100, 10000.0, 1.0, 1.0);
  valuable.payoff = qos::PayoffFunction::deadline(105.0, 110.0, 1000.0, 0.0, 0.0);
  auto cheap = qos::make_contract(50, 50, 5000.0, 1.0, 1.0);
  cheap.payoff = qos::PayoffFunction::flat(0.5);

  sim::SimContext c1;
  auto cm1 = build(charging, c1);
  ASSERT_TRUE(cm1->submit(UserId{1}, valuable));
  EXPECT_FALSE(cm1->query(cheap).accept)
      << "0.5 payoff cannot compensate a 1000-payoff deadline miss";

  sim::SimContext c2;
  auto cm2 = build(free_params, c2);
  ASSERT_TRUE(cm2->submit(UserId{1}, valuable));
  EXPECT_TRUE(cm2->query(cheap).accept)
      << "without loss accounting the window exists and payoff is positive";
}

TEST(Payoff, PriorityBoostsTightDeadlines) {
  const auto now = 0.0;
  auto tight = qos::make_contract(10, 10, 1000.0, 1.0, 1.0);
  tight.payoff = qos::PayoffFunction::deadline(110.0, 200.0, 100.0, 10.0, 0.0);
  auto loose = qos::make_contract(10, 10, 1000.0, 1.0, 1.0);
  loose.payoff = qos::PayoffFunction::deadline(10000.0, 20000.0, 100.0, 10.0, 0.0);
  job::Job jt{JobId{1}, UserId{1}, tight, 0.0};
  job::Job jl{JobId{2}, UserId{1}, loose, 0.0};
  EXPECT_GT(PayoffStrategy::priority(jt, now), PayoffStrategy::priority(jl, now));
}

}  // namespace
}  // namespace faucets::sched
