#include "src/market/price_history.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/store/codec.hpp"
#include "src/store/ops.hpp"
#include "src/util/rng.hpp"

namespace faucets::market {
namespace {

ContractRecord rec(double time, double work, double price, int procs = 8) {
  return ContractRecord{time, ClusterId{0}, procs, work, price};
}

TEST(PriceHistory, EmptyHasNoAverage) {
  PriceHistory h;
  EXPECT_FALSE(h.average_unit_price(100.0).has_value());
}

TEST(PriceHistory, UnitPrice) {
  EXPECT_DOUBLE_EQ(rec(0.0, 500.0, 5.0).unit_price(), 0.01);
  EXPECT_DOUBLE_EQ(rec(0.0, 0.0, 5.0).unit_price(), 0.0);
}

TEST(PriceHistory, AverageOverWindow) {
  PriceHistory h{100, 1000.0};
  h.record(rec(0.0, 100.0, 1.0));    // unit 0.01
  h.record(rec(500.0, 100.0, 3.0));  // unit 0.03
  const auto avg = h.average_unit_price(600.0);
  ASSERT_TRUE(avg.has_value());
  EXPECT_DOUBLE_EQ(*avg, 0.02);
}

TEST(PriceHistory, OldRecordsFallOutOfWindow) {
  PriceHistory h{100, 100.0};
  h.record(rec(0.0, 100.0, 1.0));
  h.record(rec(500.0, 100.0, 3.0));
  const auto avg = h.average_unit_price(550.0);
  ASSERT_TRUE(avg.has_value());
  EXPECT_DOUBLE_EQ(*avg, 0.03);  // only the recent record counts
}

TEST(PriceHistory, CapacityBounded) {
  PriceHistory h{4, 1e9};
  for (int i = 0; i < 100; ++i) h.record(rec(i, 100.0, 1.0));
  EXPECT_LE(h.size(), 4u);
}

TEST(PriceHistory, SizeGrouping) {
  PriceHistory h{100, 1e6};
  h.record(rec(0.0, 100.0, 1.0, 4));    // unit 0.01, small job
  h.record(rec(1.0, 100.0, 10.0, 512));  // unit 0.1, big job
  const auto small = h.average_unit_price_for_size(10.0, 1, 16);
  const auto big = h.average_unit_price_for_size(10.0, 100, 1000);
  ASSERT_TRUE(small && big);
  EXPECT_DOUBLE_EQ(*small, 0.01);
  EXPECT_DOUBLE_EQ(*big, 0.1);
  EXPECT_FALSE(h.average_unit_price_for_size(10.0, 20, 50).has_value());
}

TEST(PriceHistory, HistogramCoversObservedRange) {
  PriceHistory h{100, 1e6};
  for (int i = 1; i <= 8; ++i) h.record(rec(i, 100.0, i));
  const auto hist = h.unit_price_histogram(10.0);
  EXPECT_EQ(hist.total(), 8u);
  EXPECT_EQ(hist.bin_count(), 8u);
}

TEST(PriceHistory, HistogramEmptyIsSafe) {
  PriceHistory h;
  const auto hist = h.unit_price_histogram(0.0);
  EXPECT_EQ(hist.total(), 0u);
}

// The payload of a kPriceRecord op (DESIGN.md §14), as the WAL holds it.
std::string price_op(const ContractRecord& r) {
  store::Encoder e;
  e.put_f64(r.time);
  e.put_u64(r.cluster.value());
  e.put_u32(static_cast<std::uint32_t>(r.procs));
  e.put_f64(r.work);
  e.put_f64(r.price);
  return e.take();
}

// A fresh scan: `h` rebuilt through save()/load() into a history that has
// never answered a query.
std::optional<double> fresh_average(const PriceHistory& h, double now) {
  store::Encoder e;
  h.save(e);
  PriceHistory fresh{h.capacity(), h.window()};
  store::Decoder d{e.bytes()};
  fresh.load(d);
  return fresh.average_unit_price(now);
}

class PriceHistoryMemo : public ::testing::TestWithParam<std::uint64_t> {};

// average_unit_price answers repeated queries from a memo. Whatever the
// interleaving of mutations and queries, every answer must equal a fresh
// scan exactly (nullopt included). Settlements arrive out of time order,
// some carry no work, capacity and the window evict, apply_op and load
// replace the records, and queries rise, fall and straddle record times.
TEST_P(PriceHistoryMemo, AverageEqualsFreshScan) {
  Rng rng{GetParam()};
  const std::size_t capacity = 8 + 24 * (GetParam() % 3);
  const double window = 100.0 * static_cast<double>(1 + GetParam() % 4);
  PriceHistory h{capacity, window};
  std::vector<double> times;  // every record time pushed so far
  std::string snapshot;
  double clock = 0.0;
  std::size_t queries = 0;
  const auto check = [&](double now) {
    EXPECT_EQ(h.average_unit_price(now), fresh_average(h, now))
        << "seed " << GetParam() << ", query " << queries << " at " << now;
    ++queries;
  };
  for (int step = 0; step < 3000 && !HasFailure(); ++step) {
    const double u = rng.uniform();
    if (u < 0.35) {
      clock += rng.uniform(0.0, 20.0);
      ContractRecord r = rec(clock, rng.uniform(1.0, 1000.0), rng.uniform(0.0, 5.0));
      if (rng.bernoulli(0.25)) r.time -= rng.uniform(0.0, 1.5 * window);  // late arrival
      if (rng.bernoulli(0.1)) r.work = rng.bernoulli(0.5) ? 0.0 : -r.work;
      times.push_back(r.time);
      if (rng.bernoulli(0.2)) {
        const std::string op = price_op(r);
        store::Decoder d{op};
        ASSERT_TRUE(h.apply_op(store::op::kPriceRecord, d));
      } else {
        h.record(r);
      }
    } else if (u < 0.38) {
      store::Encoder e;
      h.save(e);
      snapshot = e.take();
    } else if (u < 0.40 && !snapshot.empty()) {
      store::Decoder d{snapshot};
      h.load(d);
    } else if (u < 0.70 || times.empty()) {
      // A burst of mostly rising queries: the window slides past early
      // records and over records dated after the first query.
      double now = clock + rng.uniform(-window, 0.5 * window);
      for (int n = 1 + static_cast<int>(rng.uniform_int(0, 5)); n > 0; --n) {
        check(now);
        now += rng.uniform(-0.1 * window, 0.6 * window);
      }
    } else {
      // Just before a recent record's time, then at it and just after.
      const auto recent = static_cast<std::int64_t>(std::min<std::size_t>(times.size(), 8));
      const double t = times[times.size() - 1 - static_cast<std::size_t>(
                                                    rng.uniform_int(0, recent - 1))];
      check(t - rng.uniform(0.0, 5.0));
      check(t);
      check(t + rng.uniform(0.0, 5.0));
    }
  }
  EXPECT_GT(queries, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PriceHistoryMemo,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace faucets::market
