#include "src/job/workload.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace faucets::job {
namespace {

TEST(Workload, DeterministicForSameSeed) {
  WorkloadParams params;
  params.job_count = 50;
  auto a = WorkloadGenerator{params, 7}.generate();
  auto b = WorkloadGenerator{params, 7}.generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].contract.work, b[i].contract.work);
    EXPECT_EQ(a[i].contract.min_procs, b[i].contract.min_procs);
  }
}

TEST(Workload, DifferentSeedsDiffer) {
  WorkloadParams params;
  params.job_count = 20;
  auto a = WorkloadGenerator{params, 1}.generate();
  auto b = WorkloadGenerator{params, 2}.generate();
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].contract.work != b[i].contract.work) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Workload, SortedBySubmitTime) {
  WorkloadParams params;
  params.job_count = 200;
  auto reqs = WorkloadGenerator{params, 3}.generate();
  for (std::size_t i = 1; i < reqs.size(); ++i) {
    EXPECT_LE(reqs[i - 1].submit_time, reqs[i].submit_time);
  }
}

TEST(Workload, AllContractsValid) {
  WorkloadParams params;
  params.job_count = 300;
  for (const auto& req : WorkloadGenerator{params, 5}.generate()) {
    EXPECT_TRUE(req.contract.valid());
    EXPECT_GE(req.contract.min_procs, params.min_procs_lo);
    EXPECT_LE(req.contract.min_procs, params.min_procs_hi);
    // procs_cap = 0 means uncapped; ProcsCapRespected covers the capped case.
    if (params.shaping.procs_cap > 0) {
      EXPECT_LE(req.contract.max_procs, params.shaping.procs_cap);
    }
  }
}

TEST(Workload, RigidFractionOneMakesAllRigid) {
  WorkloadParams params;
  params.job_count = 100;
  params.rigid_fraction = 1.0;
  for (const auto& req : WorkloadGenerator{params, 5}.generate()) {
    EXPECT_EQ(req.contract.min_procs, req.contract.max_procs);
  }
}

TEST(Workload, ProcsCapRespected) {
  WorkloadParams params;
  params.job_count = 100;
  params.shaping.procs_cap = 64;
  for (const auto& req : WorkloadGenerator{params, 5}.generate()) {
    EXPECT_LE(req.contract.max_procs, 64);
  }
}

TEST(Workload, DeadlinesAfterSubmission) {
  WorkloadParams params;
  params.job_count = 100;
  for (const auto& req : WorkloadGenerator{params, 9}.generate()) {
    const auto& payoff = req.contract.payoff;
    ASSERT_TRUE(payoff.has_deadline());
    EXPECT_GT(payoff.soft_deadline(), req.submit_time);
    EXPECT_GE(payoff.hard_deadline(), payoff.soft_deadline());
    EXPECT_GT(payoff.max_payoff(), 0.0);
  }
}

TEST(Workload, DeadlineFractionZeroMakesFlatPayoffs) {
  WorkloadParams params;
  params.job_count = 50;
  params.shaping.deadline_fraction = 0.0;
  for (const auto& req : WorkloadGenerator{params, 9}.generate()) {
    EXPECT_FALSE(req.contract.payoff.has_deadline());
  }
}

TEST(Workload, MeanWorkMatchesLognormalFormula) {
  WorkloadParams params;
  params.job_count = 50000;
  double sum = 0.0;
  const auto reqs = WorkloadGenerator{params, 11}.generate();
  for (const auto& req : reqs) sum += req.contract.work;
  const double expected = WorkloadGenerator::mean_work();
  EXPECT_NEAR(sum / static_cast<double>(reqs.size()) / expected, 1.0, 0.05);
}

TEST(Workload, CalibrateLoadSetsInterarrival) {
  WorkloadParams params;
  WorkloadGenerator::calibrate_load(params, 0.8, 512);
  // Offered load = mean_work / (interarrival * procs) should equal 0.8.
  const double offered =
      WorkloadGenerator::mean_work() / (params.mean_interarrival * 512.0);
  EXPECT_NEAR(offered, 0.8, 1e-9);
}

TEST(Workload, UsersAndHomeClustersAssigned) {
  WorkloadParams params;
  params.job_count = 200;
  params.user_count = 8;
  params.cluster_count = 4;
  for (const auto& req : WorkloadGenerator{params, 13}.generate()) {
    EXPECT_LT(req.user_index, 8u);
    EXPECT_LT(req.home_cluster, 4u);
    EXPECT_EQ(req.home_cluster, req.user_index % 4);
  }
}

TEST(FragmentationScenario, MatchesPaperSetup) {
  const auto reqs = fragmentation_scenario(600.0);
  ASSERT_EQ(reqs.size(), 2u);
  const auto& b = reqs[0];
  const auto& a = reqs[1];
  EXPECT_EQ(b.contract.min_procs, 400);
  EXPECT_EQ(b.contract.max_procs, 1000);
  EXPECT_EQ(a.contract.min_procs, 600);
  EXPECT_EQ(a.contract.max_procs, 600);
  EXPECT_EQ(a.submit_time, 600.0);
  EXPECT_TRUE(a.contract.payoff.has_deadline());
  EXPECT_GT(a.contract.payoff.max_payoff(), b.contract.payoff.max_payoff());
}

}  // namespace
}  // namespace faucets::job
