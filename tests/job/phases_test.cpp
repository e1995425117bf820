// Phase-structured jobs (§2.1): execution follows each phase's own
// efficiency model, and the Cluster Manager re-evaluates allocations at
// phase boundaries.
#include <gtest/gtest.h>

#include "src/cluster/server.hpp"
#include "src/job/job.hpp"
#include "src/sched/equipartition.hpp"

namespace faucets::job {
namespace {

qos::QosContract phased_contract() {
  // Phase 1: 1000 work, perfectly scalable.
  // Phase 2: 2000 work, efficiency 0.5 everywhere (communication bound).
  qos::QosContract c = qos::make_contract(2, 10, 0.0, 1.0, 1.0);
  qos::Phase p1{"compute", 1000.0, qos::EfficiencyModel{2, 10, 1.0, 1.0}, {}};
  qos::Phase p2{"exchange", 2000.0, qos::EfficiencyModel{2, 10, 0.5, 0.5}, {}};
  c.phases = {p1, p2};
  return c;
}

TEST(Phases, TotalWorkSumsPhases) {
  Job j{JobId{1}, UserId{1}, phased_contract(), 0.0};
  EXPECT_TRUE(j.phased());
  EXPECT_DOUBLE_EQ(j.total_work(), 3000.0);
  EXPECT_DOUBLE_EQ(j.remaining_work(), 3000.0);
  EXPECT_EQ(j.current_phase(), 0u);
}

TEST(Phases, AdvanceCrossesBoundary) {
  Job j{JobId{1}, UserId{1}, phased_contract(), 0.0};
  j.start(0.0, 10, 1.0);
  // Phase 1: rate 10 -> done at t=100. Phase 2: rate 5 -> 400 s more.
  j.advance_to(50.0);
  EXPECT_EQ(j.current_phase(), 0u);
  EXPECT_DOUBLE_EQ(j.phase_remaining(), 500.0);
  j.advance_to(100.0);
  EXPECT_EQ(j.current_phase(), 1u);
  EXPECT_DOUBLE_EQ(j.phase_remaining(), 2000.0);
  j.advance_to(300.0);  // 200 s into phase 2 at rate 5
  EXPECT_DOUBLE_EQ(j.remaining_work(), 1000.0);
}

TEST(Phases, AdvanceAcrossMultipleBoundariesInOneStep) {
  Job j{JobId{1}, UserId{1}, phased_contract(), 0.0};
  j.start(0.0, 10, 1.0);
  j.advance_to(500.0);  // 100 s phase 1 + 400 s phase 2 = exactly done
  EXPECT_NEAR(j.remaining_work(), 0.0, 1e-9);
  EXPECT_EQ(j.current_phase(), 2u);
}

TEST(Phases, ProjectedFinishIntegratesPhases) {
  Job j{JobId{1}, UserId{1}, phased_contract(), 0.0};
  j.start(0.0, 10, 1.0);
  EXPECT_DOUBLE_EQ(j.projected_finish(0.0), 500.0);
  j.advance_to(100.0);
  EXPECT_DOUBLE_EQ(j.projected_finish(100.0), 500.0);
  // Mid-interval query without bookkeeping event:
  EXPECT_DOUBLE_EQ(j.projected_finish(300.0), 500.0);
}

TEST(Phases, NextEventTimeIsPhaseBoundary) {
  Job j{JobId{1}, UserId{1}, phased_contract(), 0.0};
  j.start(0.0, 10, 1.0);
  EXPECT_DOUBLE_EQ(j.next_event_time(0.0), 100.0);
  j.advance_to(100.0);
  EXPECT_DOUBLE_EQ(j.next_event_time(100.0), 500.0);
}

TEST(Phases, ReallocationMidPhaseUsesPhaseModel) {
  Job j{JobId{1}, UserId{1}, phased_contract(), 0.0};
  j.start(0.0, 10, 1.0, AdaptiveCosts{.reconfig_seconds = 0.0});
  j.advance_to(100.0);  // phase 2 begins, rate 5 on 10 procs
  j.reallocate(100.0, 2);  // rate = 2 * 0.5 = 1
  EXPECT_DOUBLE_EQ(j.projected_finish(100.0), 100.0 + 2000.0);
}

TEST(Phases, ProgressAtMidPhase) {
  Job j{JobId{1}, UserId{1}, phased_contract(), 0.0};
  j.start(0.0, 10, 1.0);
  EXPECT_NEAR(j.progress_at(100.0), 1000.0 / 3000.0, 1e-9);
  EXPECT_NEAR(j.progress_at(300.0), 2000.0 / 3000.0, 1e-9);
}

TEST(Phases, TimeToFinishOnIntegratesPhases) {
  Job j{JobId{1}, UserId{1}, phased_contract(), 0.0};
  j.start(0.0, 10, 1.0, AdaptiveCosts{.reconfig_seconds = 0.0});
  // On 2 procs: phase1 1000/2 = 500 s, phase2 2000/1 = 2000 s.
  EXPECT_DOUBLE_EQ(j.time_to_finish_on(2), 2500.0);
}

TEST(Phases, ClusterManagerCompletesPhasedJob) {
  sim::SimContext ctx;
  cluster::MachineSpec machine;
  machine.total_procs = 10;
  cluster::ClusterManager cm{ctx, machine,
                             std::make_unique<sched::EquipartitionStrategy>(),
                             AdaptiveCosts{.reconfig_seconds = 0.0}};
  ASSERT_TRUE(cm.submit(UserId{1}, phased_contract()).has_value());
  ctx.engine().run();
  cm.finish_metrics();
  EXPECT_EQ(cm.metrics().completed(), 1u);
  EXPECT_NEAR(ctx.engine().now(), 500.0, 1e-6);
}

TEST(Phases, SchedulerWakesAtBoundary) {
  // Two jobs: a phased one and a malleable background job. When the phased
  // job crosses into its communication-bound phase nothing changes for
  // equipartition allocations, but the engine must have processed an event
  // at t=100 (the boundary wake-up).
  sim::SimContext ctx;
  cluster::MachineSpec machine;
  machine.total_procs = 10;
  cluster::ClusterManager cm{ctx, machine,
                             std::make_unique<sched::EquipartitionStrategy>(),
                             AdaptiveCosts{.reconfig_seconds = 0.0}};
  ASSERT_TRUE(cm.submit(UserId{1}, phased_contract()).has_value());
  bool seen_boundary_event = false;
  ctx.engine().schedule_at(100.0, [&] { seen_boundary_event = true; });
  ctx.engine().run(100.0);
  EXPECT_TRUE(seen_boundary_event);
  ctx.engine().run();
  cm.finish_metrics();
  EXPECT_EQ(cm.metrics().completed(), 1u);
}

}  // namespace
}  // namespace faucets::job
