// MetricsRegistry and instruments, including the ISSUE's property test:
// histogram quantile estimates (p50/p95/p99) checked against a brute-force
// sorted oracle across randomized inputs, including samples that land in
// the overflow bucket.
#include "src/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace faucets::obs {
namespace {

TEST(Counter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

// Revenue gauges accumulate thousands of tiny prices, where naive += loses
// low-order bits. Neumaier summation carries the lost bits in a
// compensation term.
TEST(Gauge, NeumaierRecoversBitsNaiveSummationLoses) {
  Gauge g;
  double naive = 0.0;
  g.add(1.0);
  naive += 1.0;
  for (int i = 0; i < 10'000'000; ++i) {
    g.add(1e-16);
    naive += 1e-16;
  }
  // Naive summation drops every 1e-16 against the running 1.0.
  EXPECT_DOUBLE_EQ(naive, 1.0);
  EXPECT_NEAR(g.value(), 1.0 + 1e-9, 1e-12);
}

TEST(Gauge, SetResetsCompensation) {
  Gauge g;
  g.add(1.0);
  for (int i = 0; i < 1000; ++i) g.add(1e-16);
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

TEST(Histogram, FoldPrebinnedMatchesObserveStream) {
  Histogram direct{{1.0, 2.0, 4.0}};
  for (double v : {0.5, 1.0, 1.5, 3.0, 10.0}) direct.observe(v);

  const std::uint64_t counts[4] = {2, 1, 1, 1};
  Histogram folded{{1.0, 2.0, 4.0}};
  folded.fold_prebinned(counts, 4, 16.0, 0.5, 10.0);
  EXPECT_EQ(folded.count(), direct.count());
  EXPECT_DOUBLE_EQ(folded.sum(), direct.sum());
  EXPECT_DOUBLE_EQ(folded.min(), direct.min());
  EXPECT_DOUBLE_EQ(folded.max(), direct.max());
  EXPECT_EQ(folded.buckets(), direct.buckets());
  // Folding again accumulates.
  folded.fold_prebinned(counts, 4, 16.0, 0.4, 11.0);
  EXPECT_EQ(folded.count(), 10u);
  EXPECT_DOUBLE_EQ(folded.min(), 0.4);
  EXPECT_DOUBLE_EQ(folded.max(), 11.0);
}

TEST(Histogram, FoldPrebinnedClampsExcessSourceBucketsIntoOverflow) {
  // Source has more buckets than the destination (profiler: 32 log2 tick
  // buckets into a shorter seconds histogram) — the excess lands in the
  // destination's overflow bucket, preserving total count.
  const std::uint64_t counts[6] = {1, 1, 1, 1, 1, 1};
  Histogram h{{1.0, 2.0}};  // 3 buckets incl. overflow
  h.fold_prebinned(counts, 6, 21.0, 0.5, 32.0);
  EXPECT_EQ(h.count(), 6u);
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 4u);
}

TEST(Histogram, FoldPrebinnedEmptyLeavesExtremaUntouched) {
  const std::uint64_t none[2] = {0, 0};
  Histogram h{{1.0}};
  h.fold_prebinned(none, 2, 0.0, 123.0, 456.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(BucketHelpers, GenerateAscendingEdges) {
  const auto exp = exponential_buckets(1.0, 2.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 1.0);
  EXPECT_DOUBLE_EQ(exp[3], 8.0);
  const auto lin = linear_buckets(0.5, 0.25, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_DOUBLE_EQ(lin[1], 0.75);
  EXPECT_TRUE(std::is_sorted(exp.begin(), exp.end()));
  EXPECT_TRUE(std::is_sorted(lin.begin(), lin.end()));
}

TEST(Histogram, CountsSumAndBuckets) {
  Histogram h{{1.0, 2.0, 4.0}};
  for (double v : {0.5, 1.0, 1.5, 3.0, 10.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.2);
  // lower_bound: inclusive upper edges -> 1.0 lands in the first bucket.
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(h.buckets()[1], 1u);  // 1.5
  EXPECT_EQ(h.buckets()[2], 1u);  // 3.0
  EXPECT_EQ(h.buckets()[3], 1u);  // 10.0 overflows
}

// mean() divides the compensated sum: 1e16 absorbs each +1.0 in the
// running sum (the spacing of doubles there is 2), and only the Neumaier
// term keeps the ten of them.
TEST(Histogram, MeanUsesTheCompensatedSum) {
  Histogram h{{1.0}};
  h.observe(1e16);
  for (int i = 0; i < 10; ++i) h.observe(1.0);
  EXPECT_EQ(h.sum(), 1e16 + 10.0);
  EXPECT_EQ(h.mean(), h.sum() / static_cast<double>(h.count()));
}

TEST(Histogram, EmptyHistogramIsAllZero) {
  Histogram h{{1.0, 2.0}};
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

// The property: for every quantile q, the histogram's estimate must fall
// within the value range of the bucket that contains the oracle's
// nearest-rank answer — i.e. the estimate's error is bounded by the width
// of one bucket, clamped to the observed [min, max].
void check_quantiles_against_oracle(const Histogram& h,
                                    std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::max<double>(1.0, std::ceil(q * static_cast<double>(n))));
    const double oracle = samples[rank - 1];
    const double estimate = h.quantile(q);

    // Locate the oracle's bucket and assert the estimate stays inside its
    // clamped edges.
    const auto& bounds = h.bounds();
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), oracle);
    const auto bucket = static_cast<std::size_t>(it - bounds.begin());
    const double lo = h.bucket_lo(bucket);
    const double hi = std::max(h.bucket_hi(bucket), lo);
    EXPECT_GE(estimate, lo - 1e-9)
        << "q=" << q << " oracle=" << oracle << " bucket=" << bucket;
    EXPECT_LE(estimate, hi + 1e-9)
        << "q=" << q << " oracle=" << oracle << " bucket=" << bucket;
    // And never outside the observed range.
    EXPECT_GE(estimate, h.min() - 1e-9);
    EXPECT_LE(estimate, h.max() + 1e-9);
  }
}

TEST(HistogramProperty, QuantilesMatchSortedOracleUniform) {
  std::mt19937_64 rng{20260805};
  for (int round = 0; round < 20; ++round) {
    Histogram h{exponential_buckets(0.01, 2.0, 16)};
    std::uniform_real_distribution<double> dist{0.001, 300.0};
    std::vector<double> samples;
    const int n = 50 + static_cast<int>(rng() % 1000);
    for (int i = 0; i < n; ++i) {
      const double v = dist(rng);
      h.observe(v);
      samples.push_back(v);
    }
    check_quantiles_against_oracle(h, std::move(samples));
  }
}

TEST(HistogramProperty, QuantilesMatchSortedOracleHeavyTail) {
  // Lognormal pushes a meaningful share of mass into the overflow bucket
  // (edges stop at 0.01 * 2^9 = 5.12), exercising the overflow path the
  // ISSUE calls out.
  std::mt19937_64 rng{97};
  for (int round = 0; round < 20; ++round) {
    Histogram h{exponential_buckets(0.01, 2.0, 10)};
    std::lognormal_distribution<double> dist{1.0, 2.0};
    std::vector<double> samples;
    const int n = 100 + static_cast<int>(rng() % 400);
    for (int i = 0; i < n; ++i) {
      const double v = dist(rng);
      h.observe(v);
      samples.push_back(v);
    }
    ASSERT_GT(h.buckets().back(), 0u) << "the tail must hit the overflow bucket";
    check_quantiles_against_oracle(h, std::move(samples));
  }
}

TEST(HistogramProperty, AllSamplesInOverflowBucket) {
  Histogram h{{1.0, 2.0}};
  std::vector<double> samples;
  for (int i = 0; i < 50; ++i) {
    const double v = 10.0 + i;
    h.observe(v);
    samples.push_back(v);
  }
  EXPECT_EQ(h.buckets()[2], 50u);
  check_quantiles_against_oracle(h, samples);
  // The overflow bucket interpolates between its lower edge (clamped to
  // min=10) and max=59.
  EXPECT_GE(h.quantile(0.99), 10.0);
  EXPECT_LE(h.quantile(0.99), 59.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 59.0);
}

TEST(Histogram, SingleSampleQuantilesCollapseToIt) {
  Histogram h{{1.0, 2.0, 4.0}};
  h.observe(1.5);
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 1.5) << "q=" << q;
  }
}

TEST(Histogram, QuantileClampsOutOfRangeQ) {
  Histogram h{{1.0}};
  h.observe(0.5);
  h.observe(2.0);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(7.0), h.quantile(1.0));
}

TEST(Registry, SameNameSameTypeSharesInstance) {
  MetricsRegistry reg;
  Counter& a = reg.counter("faucets_jobs_total", "jobs");
  Counter& b = reg.counter("faucets_jobs_total");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(reg.counter_value("faucets_jobs_total"), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, LabelledNamesAreDistinctInstruments) {
  MetricsRegistry reg;
  Counter& turing = reg.counter("faucets_cm_jobs_completed_total{cluster=\"turing\"}");
  Counter& hopper = reg.counter("faucets_cm_jobs_completed_total{cluster=\"hopper\"}");
  EXPECT_NE(&turing, &hopper);
  turing.inc();
  EXPECT_EQ(reg.counter_value("faucets_cm_jobs_completed_total{cluster=\"turing\"}"), 1u);
  EXPECT_EQ(reg.counter_value("faucets_cm_jobs_completed_total{cluster=\"hopper\"}"), 0u);
}

TEST(Registry, FindersRespectType) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_NE(reg.find_counter("x"), nullptr);
  EXPECT_EQ(reg.find_gauge("x"), nullptr);
  EXPECT_EQ(reg.find_histogram("x"), nullptr);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
}

TEST(Registry, ForEachVisitsInRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("a");
  reg.gauge("b");
  reg.histogram("c", {1.0});
  std::vector<std::string> names;
  reg.for_each([&](const MetricsRegistry::Entry& e) { names.push_back(e.name); });
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(names[2], "c");
}

TEST(Registry, DuplicateNameUnderDifferentTypeIsRejected) {
  MetricsRegistry reg;
  reg.counter("faucets_jobs_total");
  EXPECT_THROW(reg.gauge("faucets_jobs_total"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("faucets_jobs_total", {1.0}), std::invalid_argument);
  reg.gauge("faucets_load");
  EXPECT_THROW(reg.counter("faucets_load"), std::invalid_argument);
  // The registry is left intact: no orphaned second entry under the name.
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_NE(reg.find_counter("faucets_jobs_total"), nullptr);
  EXPECT_NE(reg.find_gauge("faucets_load"), nullptr);
}

TEST(Registry, RejectionMessageNamesBothTypes) {
  MetricsRegistry reg;
  reg.counter("x");
  try {
    reg.gauge("x");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'x'"), std::string::npos);
    EXPECT_NE(what.find("counter"), std::string::npos);
    EXPECT_NE(what.find("gauge"), std::string::npos);
  }
}

TEST(Registry, ReferencesSurviveRegistryGrowth) {
  MetricsRegistry reg;
  Counter& first = reg.counter("first");
  for (int i = 0; i < 200; ++i) reg.counter("c" + std::to_string(i));
  first.inc(7);
  EXPECT_EQ(reg.counter_value("first"), 7u)
      << "instrument references must stay valid as the registry grows";
}

}  // namespace
}  // namespace faucets::obs
