// A compute-power market in action (paper §5): six Compute Servers with
// different bidding strategies compete for the same stream of jobs. Shows
// per-cluster revenue, utilization and win rates, plus the grid "weather"
// (price history) the Central Server accumulates.
//
//   ./examples/market_economy
#include <iostream>

#include "src/core/grid_system.hpp"
#include "src/sched/payoff_sched.hpp"
#include "src/util/table.hpp"

using namespace faucets;

int main() {
  std::vector<core::ClusterSetup> clusters;
  const char* names[] = {"flat-a", "flat-b", "util-a", "util-b", "mkt-a", "mkt-b"};
  for (int i = 0; i < 6; ++i) {
    core::ClusterSetup setup;
    setup.machine.name = names[i];
    setup.machine.total_procs = 256;
    setup.machine.cost_per_cpu_second = 0.0008;
    setup.strategy = [] { return std::make_unique<sched::PayoffStrategy>(); };
    if (i < 2) {
      // "A baseline strategy that always returns a multiplier of 1.0."
      setup.bid_generator = [] {
        return std::make_unique<market::BaselineBidGenerator>();
      };
    } else if (i < 4) {
      // k(1-alpha)..k(1+beta) interpolated on projected utilization.
      setup.bid_generator = [] {
        return std::make_unique<market::UtilizationBidGenerator>(1.0, 0.5, 2.0);
      };
    } else {
      // Future-work strategy: also watches grid-wide prices.
      setup.bid_generator = [] {
        return std::make_unique<market::MarketAwareBidGenerator>(1.0, 0.5, 2.0, 0.4);
      };
    }
    clusters.push_back(std::move(setup));
  }

  core::GridSystem grid({}, std::move(clusters), 12);

  job::WorkloadParams params;
  params.job_count = 300;
  params.user_count = 12;
  params.shaping.procs_cap = 256;
  params.min_procs_lo = 4;
  params.min_procs_hi = 24;
  job::WorkloadGenerator::calibrate_load(params, 0.85, 6 * 256);
  job::GeneratorSource source{params, 7};
  const auto report = grid.run(source);

  std::cout << "Market of 6 Compute Servers, 300 jobs, offered load 0.85\n\n";
  Table table{{"cluster", "bid strategy", "utilization", "jobs won", "revenue($)",
               "$/job"}};
  const char* strategies[] = {"baseline 1.0", "baseline 1.0",
                              "util k=1,a=.5,b=2", "util k=1,a=.5,b=2",
                              "market-aware", "market-aware"};
  for (std::size_t i = 0; i < report.clusters.size(); ++i) {
    const auto& c = report.clusters[i];
    table.row()
        .cell(c.name)
        .cell(strategies[i])
        .cell(c.utilization, 3)
        .cell(c.completed)
        .cell(c.revenue, 2)
        .cell(c.completed > 0 ? c.revenue / static_cast<double>(c.completed) : 0.0, 2);
  }
  table.print(std::cout);

  const auto& history = grid.central().price_history();
  std::cout << "\nGrid weather: " << history.size()
            << " contracts in the Central Server's price history.\n";
  if (const auto avg = history.average_unit_price(report.makespan)) {
    std::cout << "Average unit price over the last day: $" << *avg
              << " per processor-second.\n";
  }
  std::cout << "Completed " << report.jobs_completed << "/" << report.jobs_submitted
            << " jobs; " << report.jobs_unplaced << " found no acceptable bid.\n";
  return 0;
}
