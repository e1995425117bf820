// Time-series sampler: downsampling buffer semantics (pair-merge compaction,
// stride doubling, aggregate preservation) and registration order.
#include "src/obs/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace faucets::obs {
namespace {

TEST(Series, PointsAppendAtStrideOneUntilFull) {
  Sampler s;
  const std::size_t i = s.add_series("sig", [] { return 1.0; }, "units");
  const Series& series = s.series(i);
  for (std::size_t k = 0; k < Series::kCapacity; ++k) s.sample(static_cast<double>(k));
  EXPECT_EQ(series.points().size(), Series::kCapacity);
  EXPECT_EQ(series.stride(), 1u);
  for (std::size_t k = 0; k < Series::kCapacity; ++k) {
    EXPECT_DOUBLE_EQ(series.points()[k].t_begin, static_cast<double>(k));
    EXPECT_EQ(series.points()[k].count, 1u);
  }
}

TEST(Series, CompactionHalvesResolutionAndPreservesAggregates) {
  Sampler s;
  double value = 0.0;
  s.add_series("sig", [&] { return value; });
  // Values 1..n into a buffer of half as many points plus one: the buffer
  // fills, compacts and fills again.
  constexpr std::uint64_t n = 2 * Series::kCapacity + 1;
  for (std::uint64_t k = 1; k <= n; ++k) {
    value = static_cast<double>(k);
    s.sample(static_cast<double>(k));
  }
  const Series* series = s.find("sig");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->observations(), n);

  // No raw sample may be lost: emitted point counts plus the pending
  // accumulator must cover all observations.
  std::uint64_t covered = 0;
  double sum = 0.0;
  for (const SamplePoint& p : series->points()) {
    covered += p.count;
    sum += p.sum;
    EXPECT_LE(p.t_begin, p.t_end);
  }
  EXPECT_LE(covered, n);
  EXPECT_GE(covered + series->stride() - 1, n - 1)
      << "at most one partial bucket may be pending";
  // Whatever was flushed must carry the exact running sum of its members.
  EXPECT_LE(sum, static_cast<double>(n * (n + 1) / 2));

  // Coverage is contiguous and ordered.
  for (std::size_t k = 1; k < series->points().size(); ++k) {
    EXPECT_LE(series->points()[k - 1].t_end, series->points()[k].t_begin);
  }
  // min/max survive the merges.
  EXPECT_DOUBLE_EQ(series->value_min(), 1.0);
  EXPECT_GE(series->value_max(), static_cast<double>(n - 1));
  EXPECT_GT(series->stride(), 1u);
  EXPECT_LE(series->points().size(), Series::kCapacity);
}

TEST(Series, LongRunNeverExceedsCapacity) {
  Sampler s;
  double value = 0.0;
  s.add_series("sig", [&] { return value; });
  for (int k = 0; k < 100'000; ++k) {
    value = std::sin(static_cast<double>(k) * 0.01);
    s.sample(static_cast<double>(k));
  }
  const Series* series = s.find("sig");
  EXPECT_LE(series->points().size(), Series::kCapacity);
  EXPECT_EQ(series->observations(), 100'000u);
  EXPECT_NEAR(series->value_min(), -1.0, 0.01);
  EXPECT_NEAR(series->value_max(), 1.0, 0.01);
  // The whole run stays covered, only at coarser resolution.
  EXPECT_DOUBLE_EQ(series->points().front().t_begin, 0.0);
  EXPECT_GT(series->points().back().t_end, 90'000.0);
}

TEST(Sampler, FindUnknownReturnsNullAndEmptyWorks) {
  Sampler s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.find("missing"), nullptr);
  s.sample(1.0);  // sampling an empty sampler is a harmless no-op
  EXPECT_EQ(s.samples_taken(), 1u);
}

TEST(Sampler, ForEachVisitsAllSeries) {
  Sampler s;
  s.add_series("a", [] { return 0.0; });
  s.add_series("b", [] { return 0.0; });
  std::string names;
  s.for_each([&](const Series& series) { names += series.name(); });
  EXPECT_EQ(names, "ab");
}

TEST(Series, EmptySeriesValueRangeIsZero) {
  Sampler s;
  s.add_series("sig", [] { return 42.0; });
  const Series* series = s.find("sig");
  EXPECT_DOUBLE_EQ(series->value_min(), 0.0);
  EXPECT_DOUBLE_EQ(series->value_max(), 0.0);
  EXPECT_EQ(series->observations(), 0u);
}

}  // namespace
}  // namespace faucets::obs
