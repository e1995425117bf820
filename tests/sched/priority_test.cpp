// Intranet priority scheduling (§5.5.4): management priorities, preemption
// with restart, and fair usage.
#include <gtest/gtest.h>

#include "src/cluster/server.hpp"
#include "src/sched/priority_sched.hpp"

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

qos::QosContract job_with_priority(int priority, int min_procs = 20,
                                   int max_procs = 100, double work = 10000.0) {
  auto c = qos::make_contract(min_procs, max_procs, work, 1.0, 1.0);
  c.priority = priority;
  return c;
}

TEST(Priority, HigherPriorityPreemptsLower) {
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<PriorityStrategy>(), zero_costs()};
  // Two rigid low-priority jobs fill the machine.
  ASSERT_TRUE(cm.submit(UserId{1}, job_with_priority(0, 50, 50)));
  ASSERT_TRUE(cm.submit(UserId{2}, job_with_priority(0, 50, 50)));
  EXPECT_EQ(cm.running_count(), 2u);
  // A management-priority job needing 80 procs arrives: one low job must
  // be preempted, the other keeps running in the leftover 20... which is
  // below its minimum of 50, so both are vacated.
  ASSERT_TRUE(cm.submit(UserId{3}, job_with_priority(5, 80, 80)));
  int high_procs = 0;
  for (const auto* j : cm.running_jobs()) {
    if (j->contract().priority == 5) high_procs = j->procs();
  }
  EXPECT_EQ(high_procs, 80);
  EXPECT_EQ(cm.queued_count(), 2u) << "both 50-proc jobs preempted";
  ctx.engine().run();
  cm.finish_metrics();
  EXPECT_EQ(cm.metrics().completed(), 3u) << "preempted jobs restart later";
}

TEST(Priority, NoPreemptionKeepsRunnersRunning) {
  PriorityStrategyParams params;
  params.allow_preemption = false;
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<PriorityStrategy>(params),
                             zero_costs()};
  ASSERT_TRUE(cm.submit(UserId{1}, job_with_priority(0, 50, 50)));
  ASSERT_TRUE(cm.submit(UserId{2}, job_with_priority(0, 50, 50)));
  ASSERT_TRUE(cm.submit(UserId{3}, job_with_priority(5, 80, 80)));
  // High priority waits: nobody is preempted.
  EXPECT_EQ(cm.running_count(), 2u);
  EXPECT_EQ(cm.queued_count(), 1u);
  ctx.engine().run();
  cm.finish_metrics();
  EXPECT_EQ(cm.metrics().completed(), 3u);
}

TEST(Priority, EqualPriorityKeepsSubmissionOrder) {
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<PriorityStrategy>(), zero_costs()};
  ASSERT_TRUE(cm.submit(UserId{1}, job_with_priority(0, 60, 60)));
  ASSERT_TRUE(cm.submit(UserId{2}, job_with_priority(0, 60, 60)));
  EXPECT_EQ(cm.running_count(), 1u);
  EXPECT_EQ(cm.queued_count(), 1u);
}

TEST(Priority, AdaptiveJobsShrinkBeforePreemption) {
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<PriorityStrategy>(), zero_costs()};
  // Malleable background job expands to the machine.
  ASSERT_TRUE(cm.submit(UserId{1}, job_with_priority(0, 20, 100)));
  for (const auto* j : cm.running_jobs()) EXPECT_EQ(j->procs(), 100);
  // Priority job needs 80: the background job shrinks to 20, no preemption.
  ASSERT_TRUE(cm.submit(UserId{2}, job_with_priority(3, 80, 80)));
  EXPECT_EQ(cm.running_count(), 2u);
  for (const auto* j : cm.running_jobs()) {
    if (j->contract().priority == 0) {
      EXPECT_EQ(j->procs(), 20);
    }
  }
}

TEST(Priority, EffectivePriorityDropsWithUsage) {
  PriorityStrategyParams params;
  params.fair_usage_weight = 1000.0;
  params.fair_usage_grace = 500.0;
  PriorityStrategy strategy{params};
  job::Job heavy{JobId{1}, UserId{1}, job_with_priority(2), 0.0};
  job::Job light{JobId{2}, UserId{2}, job_with_priority(2), 0.0};
  EXPECT_DOUBLE_EQ(strategy.effective_priority(heavy), 2.0);
  strategy.charge_usage(UserId{1}, 2500.0);  // 2000 over grace -> -2
  EXPECT_DOUBLE_EQ(strategy.effective_priority(heavy), 0.0);
  EXPECT_DOUBLE_EQ(strategy.effective_priority(light), 2.0);
  EXPECT_DOUBLE_EQ(strategy.usage_of(UserId{1}), 2500.0);
}

TEST(Priority, FairUsageLetsStarvedUserIn) {
  // Same nominal priority, but user 1 has burned far more than their
  // share: user 2's queued job outranks user 1's.
  PriorityStrategyParams params;
  params.fair_usage_weight = 100.0;
  auto strategy = std::make_unique<PriorityStrategy>(params);
  auto* strat = strategy.get();
  strat->charge_usage(UserId{1}, 10000.0);  // effective priority -100

  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100), std::move(strategy),
                             zero_costs()};
  ASSERT_TRUE(cm.submit(UserId{1}, job_with_priority(0, 60, 60)));
  EXPECT_EQ(cm.running_count(), 1u);
  ASSERT_TRUE(cm.submit(UserId{2}, job_with_priority(0, 60, 60)));
  // Preemption: the hog is vacated in favour of the starved user.
  int running_owner = -1;
  for (const auto* j : cm.running_jobs()) {
    running_owner = static_cast<int>(j->owner().value());
  }
  EXPECT_EQ(running_owner, 2);
  EXPECT_GT(strat->preemptions(), 0u);
}

TEST(Priority, AdmissionEstimatesShareAmongPeers) {
  sim::SimContext ctx;
  cluster::ClusterManager cm{ctx, machine_of(100),
                             std::make_unique<PriorityStrategy>(), zero_costs()};
  const auto d = cm.query(job_with_priority(0, 10, 100, 1000.0));
  EXPECT_TRUE(d.accept);
  EXPECT_GT(d.estimated_completion, 0.0);
  const auto huge = cm.query(job_with_priority(0, 200, 400));
  EXPECT_FALSE(huge.accept);
}

}  // namespace
}  // namespace faucets::sched
