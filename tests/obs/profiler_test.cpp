// Host-time profiler self-tests (DESIGN.md §12): ProfStats log2 bucketing
// against brute-force oracles, HostClock sanity, and the export artifacts
// of a simulated run.
#include "src/obs/profiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/exporters.hpp"

namespace faucets::obs {
namespace {

TEST(HostClock, TicksAdvanceAndCalibrationIsPositive) {
  const std::uint64_t a = HostClock::ticks();
  // Burn a little time; both TSC and steady_clock must move forward.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const std::uint64_t b = HostClock::ticks();
  EXPECT_GT(b, a);
  EXPECT_GT(HostClock::ns_per_tick(), 0.0);
  // Calibration is a per-process constant.
  EXPECT_DOUBLE_EQ(HostClock::ns_per_tick(), HostClock::ns_per_tick());
  EXPECT_NE(HostClock::source(), nullptr);
}

TEST(ProfStats, EmptyIsAllZero) {
  ProfStats s;
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min_or_zero(), 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile_ticks(0.5), 0.0);
}

TEST(ProfStats, BucketsAreLog2OfTicks) {
  ProfStats s;
  s.record(0);   // bit_width(0|1)-1 = 0
  s.record(1);   // bucket 0
  s.record(2);   // bucket 1
  s.record(3);   // bucket 1
  s.record(4);   // bucket 2
  s.record(7);   // bucket 2
  s.record(8);   // bucket 3
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[1], 2u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.count, 7u);
  EXPECT_EQ(s.total, 25u);
  EXPECT_EQ(s.min_or_zero(), 0u);
  EXPECT_EQ(s.max, 8u);
  // The top bucket absorbs everything >= 2^31 ticks.
  ProfStats top;
  top.record(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(top.buckets[ProfStats::kBuckets - 1], 1u);
}

TEST(ProfStats, MergeMatchesCombinedStream) {
  std::mt19937_64 rng{20260809};
  ProfStats a;
  ProfStats b;
  ProfStats both;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t t = rng() >> (rng() % 50);
    ((i % 2 == 0) ? a : b).record(t);
    both.record(t);
  }
  a.merge_from(b);
  EXPECT_EQ(a.count, both.count);
  EXPECT_EQ(a.total, both.total);
  EXPECT_EQ(a.min, both.min);
  EXPECT_EQ(a.max, both.max);
  EXPECT_EQ(a.buckets, both.buckets);
}

// Quantile property: the estimate must land inside the value span of the
// bucket holding the nearest-rank oracle answer, clamped to observed
// min/max — error bounded by one power-of-two bucket width.
TEST(ProfStats, QuantilesBracketSortedOracle) {
  std::mt19937_64 rng{1717};
  for (int round = 0; round < 10; ++round) {
    ProfStats s;
    std::vector<std::uint64_t> samples;
    const int n = 100 + static_cast<int>(rng() % 500);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t t = (rng() % 100000) + 1;
      s.record(t);
      samples.push_back(t);
    }
    std::sort(samples.begin(), samples.end());
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      const std::size_t rank = static_cast<std::size_t>(std::max<double>(
          1.0, std::ceil(q * static_cast<double>(samples.size()))));
      const double oracle = static_cast<double>(samples[rank - 1]);
      const double est = s.quantile_ticks(q);
      const auto w = static_cast<std::uint64_t>(
          std::bit_width(samples[rank - 1] | 1) - 1);
      const double lo = std::max<double>(static_cast<double>(std::uint64_t{1} << w),
                                         static_cast<double>(s.min_or_zero()));
      const double hi = std::min<double>(static_cast<double>(std::uint64_t{1} << (w + 1)),
                                         static_cast<double>(s.max));
      EXPECT_GE(est, std::min(lo, oracle) - 1e-9) << "q=" << q;
      EXPECT_LE(est, std::max(hi, oracle) + 1e-9) << "q=" << q;
      EXPECT_GE(est, static_cast<double>(s.min_or_zero()) - 1e-9);
      EXPECT_LE(est, static_cast<double>(s.max) + 1e-9);
    }
  }
}

TEST(ProfilerLane, AttributesSelfTimeByKindAndClass) {
  Profiler prof;
  ProfilerLane& lane = prof.lane(0);
  lane.begin_event();
  lane.set_event_tag(3, 2);
  lane.end_event();
  lane.begin_event();  // untagged -> slot 0 / class 0
  lane.end_event();
  EXPECT_EQ(lane.events(), 2u);
  EXPECT_EQ(lane.by_kind(3).count, 1u);
  EXPECT_EQ(lane.by_kind(0).count, 1u);
  EXPECT_EQ(lane.by_class(2).count, 1u);
  EXPECT_EQ(lane.by_class(0).count, 1u);
  // Out-of-range tags clamp instead of writing out of bounds.
  lane.begin_event();
  lane.set_event_tag(1000, 1000);
  lane.end_event();
  EXPECT_EQ(lane.by_kind(ProfilerLane::kKindSlots - 1).count, 1u);
  EXPECT_EQ(lane.by_class(0).count, 2u);
}

// Drive a fake run through the lane and check the run's totals plus both
// artifacts.
TEST(Profiler, RunTotalsAndArtifactsExport) {
  Profiler prof;
  prof.set_kind_name(0, "timer");
  prof.set_kind_name(1, "RFB");

  prof.begin_run();
  ProfilerLane& lane = prof.lane();
  for (int e = 0; e < 100; ++e) {
    lane.begin_event();
    lane.set_event_tag(1, 1);
    lane.end_event();
  }
  prof.end_run();

  EXPECT_EQ(prof.events_total(), 100u);
  EXPECT_GT(prof.wall_seconds(), 0.0);

  // metrics() is built on demand from the raw accumulators, so two calls
  // agree and neither doubles anything.
  EXPECT_EQ(prof.metrics().counter_value("faucets_prof_events_total"), 100u);
  EXPECT_EQ(prof.metrics().counter_value("faucets_prof_events_total"), 100u);

  std::ostringstream json;
  prof.write_json(json);
  const std::string j = json.str();
  for (const char* key :
       {"\"schema\": 3", "\"clock\"", "\"wall_seconds\"", "\"events_total\": 100",
        "\"kinds\"", "\"RFB\"", "\"entities\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << "profile.json missing " << key;
  }
  EXPECT_EQ(j.find("\"phases\""), std::string::npos);

  std::ostringstream prom;
  write_prometheus(prom, prof.metrics());
  const std::string p = prom.str();
  EXPECT_NE(p.find("faucets_prof_events_total 100"), std::string::npos);
  EXPECT_NE(p.find("faucets_prof_event_self_seconds"), std::string::npos);
  EXPECT_EQ(p.find("faucets_prof_phase_seconds"), std::string::npos);
}

}  // namespace
}  // namespace faucets::obs
