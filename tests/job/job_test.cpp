#include "src/job/job.hpp"

#include <gtest/gtest.h>

namespace faucets::job {
namespace {

Job make_job(double work = 1000.0, int min_procs = 2, int max_procs = 10,
             double submit = 0.0) {
  return Job{JobId{1}, UserId{1},
             qos::make_contract(min_procs, max_procs, work, 1.0, 1.0), submit};
}

TEST(Job, InitialState) {
  Job j = make_job();
  EXPECT_EQ(j.state(), JobState::kCreated);
  EXPECT_EQ(j.procs(), 0);
  EXPECT_DOUBLE_EQ(j.remaining_work(), 1000.0);
}

TEST(Job, RunsToCompletionAtConstantAllocation) {
  Job j = make_job(1000.0, 2, 10);
  j.mark_queued();
  j.start(0.0, 10, 1.0);
  EXPECT_EQ(j.state(), JobState::kRunning);
  EXPECT_DOUBLE_EQ(j.projected_finish(0.0), 100.0);  // 1000 / (10 * 1.0)
  j.advance_to(50.0);
  EXPECT_DOUBLE_EQ(j.remaining_work(), 500.0);
  j.advance_to(100.0);
  EXPECT_NEAR(j.remaining_work(), 0.0, 1e-9);
  j.complete(100.0);
  EXPECT_EQ(j.state(), JobState::kCompleted);
  EXPECT_DOUBLE_EQ(j.response_time(), 100.0);
}

TEST(Job, SpeedFactorAccelerates) {
  Job j = make_job(1000.0, 2, 10);
  j.start(0.0, 10, 2.0);
  EXPECT_DOUBLE_EQ(j.projected_finish(0.0), 50.0);
}

TEST(Job, StartBelowMinimumThrows) {
  Job j = make_job(1000.0, 4, 8);
  EXPECT_THROW(j.start(0.0, 2, 1.0), std::invalid_argument);
}

TEST(Job, StartAboveMaxClamps) {
  Job j = make_job(1000.0, 2, 8);
  j.start(0.0, 100, 1.0);
  EXPECT_EQ(j.procs(), 8);
}

TEST(Job, ShrinkExtendsFinishTime) {
  AdaptiveCosts costs{.reconfig_seconds = 0.0};
  Job j = make_job(1000.0, 2, 10);
  j.start(0.0, 10, 1.0, costs);
  j.reallocate(50.0, 5);  // 500 work left at rate 5
  EXPECT_EQ(j.procs(), 5);
  EXPECT_DOUBLE_EQ(j.projected_finish(50.0), 150.0);
  EXPECT_EQ(j.reconfig_count(), 1);
}

TEST(Job, ExpandShortensFinishTime) {
  AdaptiveCosts costs{.reconfig_seconds = 0.0};
  Job j = make_job(1000.0, 2, 10);
  j.start(0.0, 5, 1.0, costs);
  j.reallocate(100.0, 10);  // 500 left at rate 10
  EXPECT_DOUBLE_EQ(j.projected_finish(100.0), 150.0);
}

TEST(Job, ReconfigurationCostStallsProgress) {
  AdaptiveCosts costs{.reconfig_seconds = 10.0};
  Job j = make_job(1000.0, 2, 10);
  j.start(0.0, 10, 1.0, costs);
  j.reallocate(50.0, 5);
  // 10 s stall, then 500 work at rate 5 -> finish at 50 + 10 + 100 = 160.
  EXPECT_DOUBLE_EQ(j.projected_finish(50.0), 160.0);
  // Advancing through the stall must not consume work.
  j.advance_to(55.0);
  EXPECT_DOUBLE_EQ(j.remaining_work(), 500.0);
  j.advance_to(70.0);
  EXPECT_DOUBLE_EQ(j.remaining_work(), 450.0);
}

// What AppSpector displays between bookkeeping events: progress earned
// since the last advance_to counts before anything books it.
TEST(Job, ProgressCountsWorkEarnedSinceTheLastEvent) {
  Job j = make_job(1000.0, 2, 10);
  EXPECT_DOUBLE_EQ(j.progress_at(0.0), 0.0);
  j.start(0.0, 10, 1.0);
  EXPECT_DOUBLE_EQ(j.progress_at(25.0), 0.25);
  EXPECT_DOUBLE_EQ(j.projected_finish(25.0), 100.0);
  EXPECT_DOUBLE_EQ(j.remaining_work(), 1000.0);  // nothing booked yet
  j.advance_to(40.0);
  EXPECT_DOUBLE_EQ(j.progress_at(40.0), 0.4);
  EXPECT_DOUBLE_EQ(j.progress_at(70.0), 0.7);
  EXPECT_DOUBLE_EQ(j.progress_at(500.0), 1.0);  // never past the end
}

TEST(Job, ProgressHoldsThroughAReconfigurationStall) {
  AdaptiveCosts costs{.reconfig_seconds = 10.0};
  Job j = make_job(1000.0, 2, 10);
  j.start(0.0, 10, 1.0, costs);
  j.reallocate(50.0, 5);  // 500 left; stalled until 60, then rate 5
  EXPECT_DOUBLE_EQ(j.progress_at(50.0), 0.5);
  EXPECT_DOUBLE_EQ(j.progress_at(58.0), 0.5);
  EXPECT_DOUBLE_EQ(j.projected_finish(58.0), 160.0);
  EXPECT_DOUBLE_EQ(j.progress_at(60.0), 0.5);
  EXPECT_DOUBLE_EQ(j.progress_at(80.0), 0.6);  // 20 s at rate 5
  // Vacated to the queue, it earns nothing.
  j.reallocate(80.0, 0);
  EXPECT_DOUBLE_EQ(j.progress_at(200.0), 0.6);
}

// ClusterManager::projected_utilization sizes queued work with this.
TEST(Job, TimeToFinishOnAddsThePendingStall) {
  AdaptiveCosts costs{.reconfig_seconds = 10.0};
  Job j = make_job(1000.0, 2, 10);
  EXPECT_DOUBLE_EQ(j.time_to_finish_on(5), 200.0);  // not running: no stall
  j.start(0.0, 10, 1.0, costs);
  j.advance_to(50.0);  // 500 left
  EXPECT_DOUBLE_EQ(j.time_to_finish_on(10), 50.0);         // current size
  EXPECT_DOUBLE_EQ(j.time_to_finish_on(20), 50.0);         // clamped to max 10
  EXPECT_DOUBLE_EQ(j.time_to_finish_on(5), 10.0 + 100.0);  // resize stalls first
  EXPECT_GE(j.time_to_finish_on(1), 1e300);                // below the minimum
}

TEST(Job, ReallocateToSameSizeIsNoop) {
  Job j = make_job();
  j.start(0.0, 10, 1.0);
  j.reallocate(10.0, 10);
  EXPECT_EQ(j.reconfig_count(), 0);
}

TEST(Job, VacateToQueue) {
  AdaptiveCosts costs{.reconfig_seconds = 0.0};
  Job j = make_job(1000.0, 2, 10);
  j.start(0.0, 10, 1.0, costs);
  j.reallocate(50.0, 0);
  EXPECT_EQ(j.state(), JobState::kQueued);
  EXPECT_EQ(j.procs(), 0);
  EXPECT_DOUBLE_EQ(j.remaining_work(), 500.0);
  EXPECT_GE(j.projected_finish(50.0), 1e300);
  // Resume later.
  j.reallocate(100.0, 5);
  EXPECT_EQ(j.state(), JobState::kRunning);
  EXPECT_DOUBLE_EQ(j.projected_finish(100.0), 200.0);
}

TEST(Job, CheckpointAndRestartPreservesProgress) {
  AdaptiveCosts costs{.reconfig_seconds = 0.0};
  Job j = make_job(1000.0, 2, 10);
  j.start(0.0, 10, 1.0, costs);
  j.checkpoint(40.0);  // 600 left
  EXPECT_EQ(j.state(), JobState::kCheckpointed);
  EXPECT_DOUBLE_EQ(j.remaining_work(), 600.0);
  EXPECT_EQ(j.procs(), 0);
}

TEST(Job, ShrunkJobFinishesOnItsRemainingWork) {
  AdaptiveCosts costs{.reconfig_seconds = 0.0};
  Job j = make_job(1000.0, 2, 10);
  j.start(0.0, 10, 1.0, costs);
  j.reallocate(50.0, 4);  // 500 work left at rate 4
  EXPECT_DOUBLE_EQ(j.remaining_work(), 500.0);
  EXPECT_DOUBLE_EQ(j.projected_finish(50.0), 175.0);
  j.advance_to(150.0);
  EXPECT_DOUBLE_EQ(j.remaining_work(), 100.0);
  j.advance_to(175.0);
  EXPECT_NEAR(j.remaining_work(), 0.0, 1e-9);
  j.complete(175.0);
  EXPECT_EQ(j.state(), JobState::kCompleted);
  EXPECT_DOUBLE_EQ(j.finish_time(), 175.0);
  EXPECT_EQ(j.procs(), 0);
}

TEST(Job, EarnedPayoffUsesFinishTime) {
  auto contract = qos::make_contract(2, 10, 1000.0, 1.0, 1.0);
  contract.payoff = qos::PayoffFunction::deadline(150.0, 250.0, 100.0, 40.0, 10.0);
  Job j{JobId{1}, UserId{1}, contract, 0.0};
  j.start(0.0, 10, 1.0);
  j.advance_to(100.0);
  j.complete(100.0);
  EXPECT_DOUBLE_EQ(j.earned_payoff(), 100.0);
}

TEST(Job, BoundedSlowdownFloorsShortJobs) {
  Job j = make_job(10.0, 1, 1);  // 10 s of work on 1 proc
  j.start(90.0, 1, 1.0);
  j.advance_to(100.0);
  j.complete(100.0);
  // Waited 90 s for a 10-s job: response 100 s over max(run,10)=10.
  EXPECT_DOUBLE_EQ(j.bounded_slowdown(), 10.0);
}

TEST(Job, WaitTimeAndFailure) {
  Job j = make_job();
  j.mark_queued();
  j.mark_failed(25.0);
  EXPECT_EQ(j.state(), JobState::kFailed);
  EXPECT_DOUBLE_EQ(j.finish_time(), 25.0);
}

TEST(Job, StateNames) {
  EXPECT_EQ(to_string(JobState::kRunning), "running");
  EXPECT_EQ(to_string(JobState::kCompleted), "completed");
}

}  // namespace
}  // namespace faucets::job
