#include "src/market/bidgen.hpp"

#include <gtest/gtest.h>

#include "src/sched/equipartition.hpp"

namespace faucets::market {
namespace {

struct Fixture {
  sim::SimContext ctx;
  cluster::MachineSpec machine;
  std::unique_ptr<cluster::ClusterManager> cm;

  explicit Fixture(int procs = 100) {
    machine.total_procs = procs;
    machine.cost_per_cpu_second = 0.001;
    cm = std::make_unique<cluster::ClusterManager>(
        ctx, machine, std::make_unique<sched::EquipartitionStrategy>(),
        job::AdaptiveCosts{.reconfig_seconds = 0.0});
  }

  BidContext context(const qos::QosContract& contract,
                     const sched::AdmissionDecision& admission,
                     const PriceHistory* history = nullptr) const {
    BidContext out;
    out.now = ctx.now();
    out.cm = cm.get();
    out.contract = &contract;
    out.admission = &admission;
    out.grid_history = history;
    return out;
  }
};

TEST(BaselineBid, AlwaysOneWhenAdmitted) {
  Fixture f;
  const auto contract = qos::make_contract(4, 32, 1000.0);
  const auto admission = f.cm->query(contract);
  ASSERT_TRUE(admission.accept);
  BaselineBidGenerator gen;
  auto ctx = f.context(contract, admission);
  const auto m = gen.multiplier(ctx);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(*m, 1.0);
}

TEST(BaselineBid, DeclinesWhenNotAdmitted) {
  Fixture f;
  const auto contract = qos::make_contract(4, 32, 1000.0);
  const auto rejected = sched::AdmissionDecision::rejected();
  BaselineBidGenerator gen;
  auto ctx = f.context(contract, rejected);
  EXPECT_FALSE(gen.multiplier(ctx).has_value());
}

TEST(UtilizationBid, IdleMachineBidsFloor) {
  Fixture f;
  auto contract = qos::make_contract(4, 32, 1000.0);
  contract.payoff = qos::PayoffFunction::deadline(10000.0, 20000.0, 10.0, 5.0, 0.0);
  const auto admission = f.cm->query(contract);
  UtilizationBidGenerator gen;  // k=1, alpha=0.5, beta=2.0
  auto ctx = f.context(contract, admission);
  const auto m = gen.multiplier(ctx);
  ASSERT_TRUE(m.has_value());
  // Idle machine: projected utilization ~0 -> multiplier ~ k(1-alpha) = 0.5.
  EXPECT_NEAR(*m, 0.5, 0.05);
}

TEST(UtilizationBid, BusyMachineBidsHigher) {
  Fixture f;
  // Saturate the machine well past the candidate's deadline.
  auto filler = qos::make_contract(100, 100, 1e7, 1.0, 1.0);
  ASSERT_TRUE(f.cm->submit(UserId{1}, filler).has_value());

  auto contract = qos::make_contract(4, 32, 1000.0);
  contract.payoff = qos::PayoffFunction::deadline(5000.0, 9000.0, 10.0, 5.0, 0.0);
  const auto admission = f.cm->query(contract);
  UtilizationBidGenerator gen;
  auto ctx = f.context(contract, admission);
  const auto m = gen.multiplier(ctx);
  ASSERT_TRUE(m.has_value());
  // Utilization ~1 -> multiplier ~ k(1+beta) = 3.0.
  EXPECT_NEAR(*m, 3.0, 0.1);
}

TEST(UtilizationBid, ParametersShiftRange) {
  Fixture f;
  auto contract = qos::make_contract(4, 32, 1000.0);
  contract.payoff = qos::PayoffFunction::deadline(10000.0, 20000.0, 10.0, 5.0, 0.0);
  const auto admission = f.cm->query(contract);
  UtilizationBidGenerator gen{2.0, 0.25, 1.0};
  auto ctx = f.context(contract, admission);
  const auto m = gen.multiplier(ctx);
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(*m, 2.0 * 0.75, 0.1);  // idle -> k(1-alpha)
}

TEST(MarketAwareBid, FollowsGridPriceUp) {
  Fixture f;
  auto contract = qos::make_contract(4, 32, 1000.0);
  contract.payoff = qos::PayoffFunction::deadline(10000.0, 20000.0, 10.0, 5.0, 0.0);
  const auto admission = f.cm->query(contract);

  PriceHistory history;
  // Grid-wide unit price = 0.004 while our cost is 0.001: market multiplier 4.
  history.record(ContractRecord{0.0, ClusterId{9}, 8, 1000.0, 4.0});

  MarketAwareBidGenerator gen{1.0, 0.5, 2.0, 0.5};
  auto ctx = f.context(contract, admission, &history);
  const auto m = gen.multiplier(ctx);
  ASSERT_TRUE(m.has_value());
  // Local says 0.5, market says 4.0, blend at weight 0.5 -> 2.25, clamped
  // to at most 4x local floor = 2.0.
  EXPECT_NEAR(*m, 2.0, 0.05);
}

TEST(MarketAwareBid, NoHistoryFallsBackToLocal) {
  Fixture f;
  auto contract = qos::make_contract(4, 32, 1000.0);
  contract.payoff = qos::PayoffFunction::deadline(10000.0, 20000.0, 10.0, 5.0, 0.0);
  const auto admission = f.cm->query(contract);
  MarketAwareBidGenerator gen;
  auto ctx = f.context(contract, admission, nullptr);
  const auto m = gen.multiplier(ctx);
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR(*m, 0.5, 0.05);
}

TEST(ContractPrice, ScalesWithWorkCostAndMultiplier) {
  cluster::MachineSpec m;
  m.cost_per_cpu_second = 0.002;
  m.speed_factor = 1.0;
  const auto c = qos::make_contract(4, 8, 5000.0);
  EXPECT_DOUBLE_EQ(contract_price(m, c, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(contract_price(m, c, 1.5), 15.0);
  m.speed_factor = 2.0;  // faster machine needs fewer CPU-seconds
  EXPECT_DOUBLE_EQ(contract_price(m, c, 1.0), 5.0);
}

TEST(MakeBid, FillsAllFields) {
  Fixture f;
  const auto contract = qos::make_contract(4, 32, 1000.0);
  const auto admission = f.cm->query(contract);
  const Bid bid = make_bid(BidId{7}, *f.cm, EntityId{3}, contract, admission, 1.5,
                           10.0, 120.0);
  EXPECT_EQ(bid.id, BidId{7});
  EXPECT_EQ(bid.daemon, EntityId{3});
  EXPECT_FALSE(bid.declined);
  EXPECT_DOUBLE_EQ(bid.multiplier, 1.5);
  EXPECT_DOUBLE_EQ(bid.price, contract_price(f.machine, contract, 1.5));
  EXPECT_EQ(bid.promised_completion, admission.estimated_completion);
  EXPECT_DOUBLE_EQ(bid.expires_at, 130.0);
}

TEST(MakeBid, DeclineFactory) {
  const Bid bid = Bid::decline(ClusterId{4}, EntityId{5});
  EXPECT_TRUE(bid.declined);
  EXPECT_EQ(bid.cluster, ClusterId{4});
}

}  // namespace
}  // namespace faucets::market
