// Market regulation (§5.5.1): "limits on how far the bids can be from some
// notion of 'normal' price can be one such mechanism" to avoid misuse of
// markets.
#include <gtest/gtest.h>

#include "src/core/grid_system.hpp"
#include "src/sched/equipartition.hpp"

namespace faucets::core {
namespace {

/// A bid generator that always gouges: multiplier 50x.
class GougingBidGenerator final : public market::BidGenerator {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "gouger"; }
  [[nodiscard]] std::optional<double> multiplier(const market::BidContext& ctx) override {
    if (ctx.admission == nullptr || !ctx.admission->accept) return std::nullopt;
    return 50.0;
  }
};

/// Bids fairly once, then gouges at 50x.
class LateGougingBidGenerator final : public market::BidGenerator {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "late-gouger"; }
  [[nodiscard]] std::optional<double> multiplier(const market::BidContext& ctx) override {
    if (ctx.admission == nullptr || !ctx.admission->accept) return std::nullopt;
    return bids_++ == 0 ? 1.0 : 50.0;
  }

 private:
  int bids_ = 0;
};

ClusterSetup make_cluster(const std::string& name, bool gouger) {
  ClusterSetup setup;
  setup.machine.name = name;
  setup.machine.total_procs = 64;
  setup.machine.cost_per_cpu_second = 0.0008;
  setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  if (gouger) {
    setup.bid_generator = [] { return std::make_unique<GougingBidGenerator>(); };
  } else {
    setup.bid_generator = [] {
      return std::make_unique<market::BaselineBidGenerator>();
    };
  }
  return setup;
}

std::vector<job::JobRequest> jobs(std::size_t n) {
  std::vector<job::JobRequest> out;
  for (std::size_t i = 0; i < n; ++i) {
    job::JobRequest req;
    req.submit_time = static_cast<double>(i) * 200.0;
    req.contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
    req.contract.payoff = qos::PayoffFunction::flat(100.0);
    out.push_back(std::move(req));
  }
  return out;
}

TEST(Regulation, GougerWinsNothingOnceNormalPriceExists) {
  GridConfig config;
  config.central.price_band = 3.0;
  // Earliest-completion would otherwise happily pick the gouger when it is
  // idle; regulation throws its bids out.
  config.evaluator = [] {
    return std::make_unique<market::EarliestCompletionEvaluator>();
  };
  GridSystem grid(config,
                  {make_cluster("honest", false), make_cluster("gouger", true)}, 1);

  const auto report = grid.run(jobs(6));
  EXPECT_EQ(report.jobs_completed, 6u);
  // The first job has no price history -> no regulation; afterwards the
  // gouger's 50x bids are outside the 3x band and never win.
  EXPECT_LE(report.clusters[1].completed, 1u);
  EXPECT_GT(grid.client(0).regulated_out(), 0u);
}

TEST(Regulation, BrokeredGougerWinsNothingOnceNormalPriceExists) {
  // The broker evaluates on the client's behalf and masks bids with the
  // price band of its own directory reply. The gouger is the faster
  // machine and bids fairly for the first job, which it wins and which sets
  // the normal price; only regulation keeps its later 50x bids from winning.
  GridConfig config;
  config.central.price_band = 3.0;
  config.brokered_submission = true;
  config.evaluator = [] {
    return std::make_unique<market::EarliestCompletionEvaluator>();
  };
  ClusterSetup gouger = make_cluster("gouger", true);
  gouger.machine.speed_factor = 2.0;
  gouger.bid_generator = [] { return std::make_unique<LateGougingBidGenerator>(); };
  GridSystem grid(config, {make_cluster("honest", false), std::move(gouger)}, 1);

  const auto report = grid.run(jobs(6));
  EXPECT_EQ(report.jobs_completed, 6u);
  EXPECT_EQ(report.clusters[1].completed, 1u);
  ASSERT_NE(grid.broker(), nullptr);
  EXPECT_GT(grid.broker()->regulated_out(), 0u);
}

TEST(Regulation, DisabledBandLetsAnyPriceWin) {
  // price_band left disengaged: no regulation.
  GridConfig config;
  config.evaluator = [] {
    return std::make_unique<market::EarliestCompletionEvaluator>();
  };
  GridSystem grid(config,
                  {make_cluster("honest", false), make_cluster("gouger", true)}, 1);
  const auto report = grid.run(jobs(6));
  EXPECT_EQ(report.jobs_completed, 6u);
  EXPECT_EQ(grid.client(0).regulated_out(), 0u);
  // With earliest-completion and both idle, ties are broken arbitrarily but
  // the gouger is never excluded on price grounds.
}

}  // namespace
}  // namespace faucets::core
