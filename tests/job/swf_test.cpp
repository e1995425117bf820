#include "src/job/swf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace faucets::job {
namespace {

// Three jobs in Parallel-Workloads-Archive SWF: 18 fields each, sorted by
// submit time as PWA traces are.
// fields: job submit wait run alloc cpu mem req_procs req_time req_mem
//         status user group app queue part prev think
constexpr const char* kSample = R"(; SWF sample
; UnixStartTime: 0
3 5 0 50 8 -1 -1 -1 -1 -1 1 5 1 1 1 1 -1 -1
1 10 5 3600 64 -1 -1 64 4000 -1 1 3 1 1 1 1 -1 -1
2 20 0 100 -1 -1 -1 16 200 -1 1 4 1 1 1 1 -1 -1
)";

// The same three jobs with the first arrival logged out of order (job with
// submit 5 recorded after the submit-20 line).
constexpr const char* kUnsorted = R"(; disordered log
1 10 5 3600 64 -1 -1 64 4000 -1 1 3 1 1 1 1 -1 -1
2 20 0 100 -1 -1 -1 16 200 -1 1 4 1 1 1 1 -1 -1
3 5 0 50 8 -1 -1 -1 -1 -1 1 5 1 1 1 1 -1 -1
)";

/// A synthetic sorted trace big enough to exercise streaming.
std::string big_trace(std::size_t jobs) {
  std::string out = "; generated\n";
  for (std::size_t i = 0; i < jobs; ++i) {
    const std::size_t user = 1 + i % 7;
    out += std::to_string(i + 1) + " " + std::to_string(i * 30) +
           " 0 600 16 -1 -1 16 900 -1 1 " + std::to_string(user) +
           " 1 1 1 1 -1 -1\n";
  }
  return out;
}

TEST(Swf, ParsesSortedTraceInOrder) {
  const auto reqs = load_swf_string(kSample);
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_DOUBLE_EQ(reqs[0].submit_time, 5.0);
  EXPECT_DOUBLE_EQ(reqs[1].submit_time, 10.0);
  EXPECT_DOUBLE_EQ(reqs[2].submit_time, 20.0);
}

TEST(Swf, SortWindowReordersDisorderedLines) {
  SwfOptions options;
  options.sort_window = 30.0;
  std::istringstream in{kUnsorted};
  SwfStreamSource source{in, options};
  const auto reqs = collect(source);
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_DOUBLE_EQ(reqs[0].submit_time, 5.0);
  EXPECT_DOUBLE_EQ(reqs[1].submit_time, 10.0);
  EXPECT_DOUBLE_EQ(reqs[2].submit_time, 20.0);
  EXPECT_EQ(source.clamped(), 0u);
}

TEST(Swf, DisorderBeyondWindowIsClampedForward) {
  SwfOptions options;
  options.sort_window = 0.0;  // tolerate nothing
  std::istringstream in{kUnsorted};
  SwfStreamSource source{in, options};
  const auto reqs = collect(source);
  ASSERT_EQ(reqs.size(), 3u);
  // The late submit-5 record is pulled forward; emission stays sorted.
  for (std::size_t i = 1; i < reqs.size(); ++i) {
    EXPECT_GE(reqs[i].submit_time, reqs[i - 1].submit_time);
  }
  EXPECT_GE(source.clamped(), 1u);
}

TEST(Swf, PrefersRequestOverAllocation) {
  const auto reqs = load_swf_string(kSample);
  // Job 1: requested 64 procs for 4000 s.
  EXPECT_EQ(reqs[1].contract.min_procs, 64);
  EXPECT_EQ(reqs[1].contract.max_procs, 64);
  EXPECT_DOUBLE_EQ(reqs[1].contract.work, 64.0 * 4000.0);
  // Job 3: request missing (-1) -> falls back to allocation 8 / runtime 50.
  EXPECT_EQ(reqs[0].contract.min_procs, 8);
  EXPECT_DOUBLE_EQ(reqs[0].contract.work, 8.0 * 50.0);
}

TEST(Swf, UserAndHomeCluster) {
  SwfOptions options;
  options.cluster_count = 2;
  const auto reqs = load_swf_string(kSample, options);
  EXPECT_EQ(reqs[1].user_index, 3u);
  EXPECT_EQ(reqs[1].home_cluster, 1u);
  EXPECT_EQ(reqs[2].user_index, 4u);
  EXPECT_EQ(reqs[2].home_cluster, 0u);
}

TEST(Swf, MalleabilityWidensRange) {
  SwfOptions options;
  options.shaping.malleability = 1.0;  // min = p/2, max = 2p
  const auto reqs = load_swf_string(kSample, options);
  EXPECT_EQ(reqs[1].contract.min_procs, 32);
  EXPECT_EQ(reqs[1].contract.max_procs, 128);
  EXPECT_TRUE(reqs[1].contract.valid());
}

TEST(Swf, ProcsCapClamps) {
  SwfOptions options;
  options.shaping.malleability = 1.0;
  options.shaping.procs_cap = 48;
  const auto reqs = load_swf_string(kSample, options);
  EXPECT_LE(reqs[1].contract.max_procs, 48);
  EXPECT_TRUE(reqs[1].contract.valid());
}

TEST(Swf, DeadlineShapingAttachesPayoffs) {
  SwfOptions options;
  options.shaping.deadline_fraction = 1.0;
  options.shaping.tightness_lo = 2.0;
  options.shaping.tightness_hi = 2.0;
  const auto reqs = load_swf_string(kSample, options);
  for (const auto& req : reqs) {
    EXPECT_TRUE(req.contract.payoff.has_deadline());
    EXPECT_GT(req.contract.payoff.soft_deadline(), req.submit_time);
  }
  const auto flat = load_swf_string(kSample);
  EXPECT_FALSE(flat[0].contract.payoff.has_deadline());
  EXPECT_GT(flat[0].contract.payoff.max_payoff(), 0.0);
}

TEST(Swf, MaxJobsTruncates) {
  SwfOptions options;
  options.max_jobs = 2;
  EXPECT_EQ(load_swf_string(kSample, options).size(), 2u);
}

TEST(Swf, MaxJobsIsAPrefixOfTheFullStream) {
  const std::string trace = big_trace(40);
  SwfOptions options;
  const auto all = load_swf_string(trace, options);
  options.max_jobs = 13;
  const auto prefix = load_swf_string(trace, options);
  ASSERT_EQ(prefix.size(), 13u);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_DOUBLE_EQ(prefix[i].submit_time, all[i].submit_time);
    EXPECT_EQ(prefix[i].user_index, all[i].user_index);
    EXPECT_DOUBLE_EQ(prefix[i].contract.work,
                     all[i].contract.work);
  }
}

TEST(Swf, SkipsUnusableJobsAndCounts) {
  std::istringstream in{
      "1 10 0 -1 -1 -1 -1 -1 -1 -1 1 1 1 1 1 1 -1 -1\n"    // no size/time
      "2 -5 0 100 8 -1 -1 8 100 -1 1 1 1 1 1 1 -1 -1\n"};  // negative submit
  SwfStreamSource source{in};
  EXPECT_TRUE(collect(source).empty());
  EXPECT_EQ(source.jobs_skipped(), 2u);
  EXPECT_EQ(source.jobs_emitted(), 0u);
  EXPECT_EQ(source.lines_read(), 2u);
}

TEST(Swf, ShortLinesReadAsUnknownSentinels) {
  // Missing trailing fields are legal per the SWF spec: they read as -1.
  // "1 2 3" has no processor or runtime fields at all -> skipped, not fatal.
  std::istringstream in{"1 2 3\n"};
  SwfStreamSource source{in};
  EXPECT_TRUE(collect(source).empty());
  EXPECT_EQ(source.jobs_skipped(), 1u);

  // Five fields reach the allocation column: submit 2, run 3600, alloc 8.
  const auto reqs = load_swf_string("1 2 0 3600 8\n");
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_DOUBLE_EQ(reqs[0].submit_time, 2.0);
  EXPECT_EQ(reqs[0].contract.min_procs, 8);
  EXPECT_EQ(reqs[0].user_index, 0u);  // user field missing -> 0
}

TEST(Swf, GarbageTokenThrowsWithLineNumber) {
  const std::string bad = "; header\n1 2 0 3600 8\n1 banana 3\n";
  try {
    (void)load_swf_string(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("banana"), std::string::npos) << what;
  }
}

TEST(Swf, CommentsAndBlanksIgnored) {
  const auto reqs = load_swf_string("; header only\n\n;;; more\n");
  EXPECT_TRUE(reqs.empty());
}

TEST(Swf, InlineCommentsStopParsing) {
  const auto reqs = load_swf_string("1 2 0 3600 8 ; trailing comment\n");
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].contract.min_procs, 8);
}

TEST(Swf, FuzzedCorruptionsNeverCrash) {
  // Every deterministic mutilation of a valid record either parses, skips,
  // or throws std::invalid_argument — never crashes or loops.
  const std::string base = "1 10 5 3600 64 -1 -1 64 4000 -1 1 3 1 1 1 1 -1 -1";
  const std::string junk = "x@.;-+e5\t ";
  std::size_t parsed = 0;
  std::size_t threw = 0;
  for (std::size_t cut = 0; cut <= base.size(); cut += 3) {
    for (const char c : junk) {
      std::string line = base.substr(0, cut);
      line += c;
      line += base.substr(std::min(base.size(), cut + 1));
      try {
        (void)load_swf_string(line + "\n");
        ++parsed;
      } catch (const std::invalid_argument&) {
        ++threw;
      }
    }
    // Plain truncation: short lines are tolerated unless the cut leaves a
    // dangling sign character, which is a garbage token like any other.
    const std::string trunc = base.substr(0, cut);
    if (trunc.empty() || trunc.back() != '-') {
      EXPECT_NO_THROW((void)load_swf_string(trunc + "\n"));
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(threw, 0u);
}

TEST(Swf, StreamingPullsMatchPreload) {
  const std::string trace = big_trace(100);
  const auto preloaded = load_swf_string(trace);
  ASSERT_EQ(preloaded.size(), 100u);

  std::istringstream in{trace};
  SwfStreamSource source{in};
  std::vector<JobRequest> streamed;
  while (!source.exhausted()) {
    const double peeked = source.peek_next_submit_time();
    JobRequest req = source.next();
    EXPECT_DOUBLE_EQ(req.submit_time, peeked);
    streamed.push_back(std::move(req));
  }
  EXPECT_DOUBLE_EQ(source.peek_next_submit_time(), WorkloadSource::kNoMoreJobs);

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

TEST(Swf, SortedTraceWindowStaysSmall) {
  const std::string trace = big_trace(200);
  std::istringstream in{trace};
  SwfOptions options;
  options.user_multiplier = 3;
  SwfStreamSource source{in, options};
  const auto reqs = collect(source);
  EXPECT_EQ(reqs.size(), 600u);
  // Streaming memory bound: clone jitter (60 s) spans two 30 s arrival
  // gaps, so the reorder window holds at most ~4 records' worth of clones
  // in flight — independent of trace length.
  EXPECT_LE(source.window_high_water(), 4u * 3u);
}

TEST(Swf, TimeCompressionScalesArrivalsOnly) {
  SwfOptions options;
  options.time_compression = 4.0;
  const auto fast = load_swf_string(kSample, options);
  const auto raw = load_swf_string(kSample);
  ASSERT_EQ(fast.size(), raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_DOUBLE_EQ(fast[i].submit_time, raw[i].submit_time / 4.0);
    // Work (procs x runtime) is untouched: compression raises offered load.
    EXPECT_DOUBLE_EQ(fast[i].contract.work,
                     raw[i].contract.work);
  }
}

TEST(Swf, UserMultiplierClonesAreCrnPairedWithRawTrace) {
  const std::string trace = big_trace(50);
  const auto raw = load_swf_string(trace);

  SwfOptions options;
  options.user_multiplier = 4;
  options.clone_jitter = 60.0;
  const auto scaled = load_swf_string(trace, options);
  ASSERT_EQ(scaled.size(), raw.size() * 4u);

  // Clone 0 of every record reproduces the raw trace exactly: same submit
  // time, same contract, user id scaled by the clone count.
  std::map<std::size_t, std::vector<const JobRequest*>> by_user;
  for (const auto& req : scaled) by_user[req.user_index].push_back(&req);
  std::size_t clone0 = 0;
  for (const auto& req : raw) {
    const auto it = by_user.find(req.user_index * 4u);
    ASSERT_NE(it, by_user.end());
    bool found = false;
    for (const JobRequest* cand : it->second) {
      if (cand->submit_time == req.submit_time &&
          cand->contract.work == req.contract.work) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "clone 0 of user " << req.user_index;
    ++clone0;
  }
  EXPECT_EQ(clone0, raw.size());

  // Every clone's arrival lies within [raw_submit, raw_submit + jitter).
  for (const auto& req : scaled) {
    double best = -1.0;
    for (const auto& r : raw) {
      if (r.submit_time <= req.submit_time &&
          req.submit_time < r.submit_time + options.clone_jitter) {
        best = r.submit_time;
        break;
      }
    }
    EXPECT_GE(best, 0.0) << "clone at " << req.submit_time
                         << " has no raw record within the jitter window";
  }
}

TEST(Swf, CloneDrawsIndependentOfMultiplierCount) {
  const std::string trace = big_trace(30);
  SwfOptions two;
  two.user_multiplier = 2;
  SwfOptions four;
  four.user_multiplier = 4;
  const auto small = load_swf_string(trace, two);
  const auto large = load_swf_string(trace, four);

  // Key clones by (line order via submit of clone 0, clone index): clone k
  // of a record draws identically regardless of how many siblings exist.
  std::map<std::pair<double, std::size_t>, double> small_times;
  for (const auto& req : small) {
    small_times[{req.contract.work, req.user_index % 2}] +=
        req.submit_time;
  }
  std::map<std::pair<double, std::size_t>, double> large_times;
  for (const auto& req : large) {
    if (req.user_index % 4 >= 2) continue;  // only clones 0 and 1
    large_times[{req.contract.work, req.user_index % 4}] +=
        req.submit_time;
  }
  EXPECT_EQ(small_times, large_times);
}

TEST(Swf, OpenThrowsOnMissingFile) {
  EXPECT_THROW((void)SwfStreamSource::open("/nonexistent/trace.swf", {}),
               std::invalid_argument);
}

TEST(Swf, RejectsNonPositiveCompression) {
  SwfOptions options;
  options.time_compression = 0.0;
  std::istringstream in{kSample};
  EXPECT_THROW((SwfStreamSource{in, options}), std::invalid_argument);
}

}  // namespace
}  // namespace faucets::job
