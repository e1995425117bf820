#include "src/job/source.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/job/workload.hpp"

namespace faucets::job {
namespace {

JobRequest req_at(double t, std::size_t user) {
  JobRequest req;
  req.submit_time = t;
  req.user_index = user;
  return req;
}

TEST(VectorSource, SortsBySubmitTimeAndDrains) {
  std::vector<JobRequest> reqs;
  reqs.push_back(req_at(30.0, 1));
  reqs.push_back(req_at(10.0, 2));
  reqs.push_back(req_at(20.0, 3));
  VectorSource source{std::move(reqs)};

  EXPECT_FALSE(source.exhausted());
  EXPECT_DOUBLE_EQ(source.peek_next_submit_time(), 10.0);
  EXPECT_EQ(source.next().user_index, 2u);
  EXPECT_EQ(source.next().user_index, 3u);
  EXPECT_DOUBLE_EQ(source.peek_next_submit_time(), 30.0);
  EXPECT_EQ(source.next().user_index, 1u);
  EXPECT_TRUE(source.exhausted());
  EXPECT_DOUBLE_EQ(source.peek_next_submit_time(), WorkloadSource::kNoMoreJobs);
}

TEST(VectorSource, StableForEqualSubmitTimes) {
  std::vector<JobRequest> reqs;
  for (std::size_t u = 0; u < 5; ++u) reqs.push_back(req_at(7.0, u));
  VectorSource source{std::move(reqs)};
  for (std::size_t u = 0; u < 5; ++u) {
    EXPECT_EQ(source.next().user_index, u);
  }
}

TEST(Collect, DrainsEverythingOrCapsAtMaxJobs) {
  std::vector<JobRequest> reqs;
  for (int i = 0; i < 10; ++i) reqs.push_back(req_at(i, 0));
  VectorSource all{reqs};
  EXPECT_EQ(collect(all).size(), 10u);
  VectorSource capped{reqs};
  EXPECT_EQ(collect(capped, 4).size(), 4u);
}

TEST(GeneratorSource, MatchesPreloadedGenerateExactly) {
  WorkloadParams params;
  params.job_count = 30;
  params.user_count = 3;
  const auto preloaded = WorkloadGenerator{params, 7}.generate();

  GeneratorSource source{params, 7};
  const auto streamed = collect(source);

  ASSERT_EQ(streamed.size(), preloaded.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_DOUBLE_EQ(streamed[i].submit_time, preloaded[i].submit_time);
    EXPECT_EQ(streamed[i].user_index, preloaded[i].user_index);
    EXPECT_DOUBLE_EQ(streamed[i].contract.work,
                     preloaded[i].contract.work);
    EXPECT_DOUBLE_EQ(streamed[i].contract.payoff.max_payoff(),
                     preloaded[i].contract.payoff.max_payoff());
  }
}

TEST(GeneratorSource, PeekNeverSkips) {
  WorkloadParams params;
  params.job_count = 5;
  GeneratorSource source{params, 11};
  while (!source.exhausted()) {
    const double peeked = source.peek_next_submit_time();
    EXPECT_DOUBLE_EQ(source.next().submit_time, peeked);
  }
  EXPECT_DOUBLE_EQ(source.peek_next_submit_time(), WorkloadSource::kNoMoreJobs);
}

std::vector<JobRequest> interleaved(std::size_t jobs, std::size_t users) {
  std::vector<JobRequest> reqs;
  for (std::size_t i = 0; i < jobs; ++i) {
    reqs.push_back(req_at(10.0 * static_cast<double>(i), i % users));
  }
  return reqs;
}

TEST(WorkloadDemux, AutoModeRoutesByUserModuloLanes) {
  VectorSource source{interleaved(12, 4)};
  WorkloadDemux demux{source, 4};
  demux.prime();

  for (std::size_t lane = 0; lane < 4; ++lane) {
    double last = -1.0;
    std::size_t count = 0;
    auto& l = demux.lane(lane);
    while (!l.exhausted()) {
      const JobRequest req = l.next();
      EXPECT_EQ(req.user_index % 4, lane);
      EXPECT_GT(req.submit_time, last);
      last = req.submit_time;
      ++count;
    }
    EXPECT_EQ(count, 3u);
  }
  EXPECT_TRUE(demux.source_exhausted());
  EXPECT_EQ(demux.buffered(), 0u);
}

TEST(WorkloadDemux, AutoModeLanePullsInlineWhenDry) {
  VectorSource source{interleaved(8, 2)};
  WorkloadDemux demux{source, 2};
  demux.prime();

  // Draining lane 1 first forces it to pull through lane 0's records,
  // which buffer in lane 0 rather than being dropped.
  auto& lane1 = demux.lane(1);
  std::size_t seen = 0;
  while (!lane1.exhausted()) {
    EXPECT_EQ(lane1.next().user_index, 1u);
    ++seen;
  }
  EXPECT_EQ(seen, 4u);
  auto& lane0 = demux.lane(0);
  seen = 0;
  while (!lane0.exhausted()) {
    EXPECT_EQ(lane0.next().user_index, 0u);
    ++seen;
  }
  EXPECT_EQ(seen, 4u);
  EXPECT_GE(demux.high_water(), 4u);
}

TEST(WorkloadDemux, HighWaterTracksPeakBuffering) {
  VectorSource source{interleaved(20, 2)};
  WorkloadDemux demux{source, 2};
  demux.prime();
  EXPECT_GE(demux.high_water(), demux.buffered());
  // Draining lane 1 pulls the whole source; lane 0's ten requests stay
  // buffered, and the peak also counted lane 1's request in flight.
  (void)collect(demux.lane(1));
  EXPECT_EQ(demux.buffered(), 10u);
  EXPECT_EQ(demux.high_water(), 11u);
}

TEST(WorkloadDemux, SingleLaneActsAsPassthrough) {
  VectorSource source{interleaved(6, 3)};
  WorkloadDemux demux{source, 1};
  demux.prime();
  auto& lane = demux.lane(0);
  const auto out = collect(lane);
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i].submit_time, out[i - 1].submit_time);
  }
}

}  // namespace
}  // namespace faucets::job
