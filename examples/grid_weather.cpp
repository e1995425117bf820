// Grid weather (paper §5.2.1, and §1's nod to the Network Weather Service):
// drive a market through a demand wave and read the Central Server's price
// history the way a bid generator would — recent average, histogram, trend
// and forecast.
//
//   ./examples/grid_weather
#include <iostream>

#include "src/core/grid_system.hpp"
#include "src/sched/payoff_sched.hpp"
#include "src/util/table.hpp"

using namespace faucets;

int main() {
  std::vector<core::ClusterSetup> clusters;
  for (int i = 0; i < 4; ++i) {
    core::ClusterSetup setup;
    setup.machine.name = "c" + std::to_string(i);
    setup.machine.total_procs = 256;
    setup.machine.cost_per_cpu_second = 0.0008;
    setup.strategy = [] { return std::make_unique<sched::PayoffStrategy>(); };
    setup.bid_generator = [] {
      return std::make_unique<market::UtilizationBidGenerator>();
    };
    clusters.push_back(std::move(setup));
  }
  core::GridSystem grid({}, std::move(clusters), 8);

  // A demand wave: quiet start, rush hour in the middle, quiet end.
  job::WorkloadParams params;
  params.job_count = 240;
  params.user_count = 8;
  params.shaping.procs_cap = 256;
  job::WorkloadGenerator::calibrate_load(params, 0.8, 4 * 256);
  auto reqs = job::WorkloadGenerator{params, 77}.generate();
  const double span = reqs.back().submit_time;
  for (auto& req : reqs) {
    // Compress the middle third (rush hour) to triple its arrival rate.
    const double t = req.submit_time / span;
    if (t > 0.33 && t < 0.67) {
      req.submit_time = span * (0.33 + (t - 0.33) / 3.0);
    } else if (t >= 0.67) {
      req.submit_time = span * (0.33 + 0.34 / 3.0 + (t - 0.67));
    }
  }
  std::stable_sort(reqs.begin(), reqs.end(),
                   [](const job::JobRequest& a, const job::JobRequest& b) {
                     return a.submit_time < b.submit_time;
                   });

  // The reshaped vector enters through a VectorSource (which re-sorts by
  // submit time) like every other workload.
  job::VectorSource source{std::move(reqs)};
  const auto report = grid.run(source);
  const auto& history = grid.central().price_history();
  const double now = report.makespan;

  std::cout << "Grid weather after " << report.jobs_completed << " settled "
            << "contracts (makespan " << now / 3600.0 << " h):\n\n";
  if (const auto avg = history.average_unit_price(now)) {
    std::cout << "  average unit price (24 h window): $" << *avg
              << " per proc-second\n";
  }
  if (const auto trend = history.unit_price_trend(now)) {
    std::cout << "  trend: " << (trend->second >= 0 ? "+" : "") << trend->second
              << " $/proc-s per second of grid time\n";
  }
  for (double horizon : {600.0, 3600.0}) {
    if (const auto f = history.forecast_unit_price(now, horizon)) {
      std::cout << "  forecast +" << horizon / 60.0 << " min: $" << *f << "\n";
    }
  }

  std::cout << "\n  price histogram (8 bins over the observed range): "
            << history.unit_price_histogram(now).to_string() << "\n";

  Table sizes{{"job size (min procs)", "avg unit price ($/proc-s)"}};
  for (const auto& [lo, hi] : {std::pair{1, 8}, std::pair{9, 16},
                               std::pair{17, 32}, std::pair{33, 256}}) {
    if (const auto p = history.average_unit_price_for_size(now, lo, hi)) {
      sizes.row()
          .cell(std::to_string(lo) + "-" + std::to_string(hi))
          .cell(*p, 6);
    }
  }
  std::cout << "\nPer-size summaries (the paper's histogram grouping by\n"
               "processors needed):\n";
  sizes.print(std::cout);
  return 0;
}
