// Quickstart: stand up a three-cluster Faucets grid, submit a handful of
// jobs through the full market protocol, and print what happened.
//
//   ./examples/quickstart
#include <iostream>

#include "src/core/grid_system.hpp"
#include "src/sched/equipartition.hpp"
#include "src/sched/payoff_sched.hpp"
#include "src/util/table.hpp"

using namespace faucets;

int main() {
  // 1-2. Describe the Compute Servers (name, size, price, scheduler,
  //      bidder) and build the grid: Central Server, AppSpector, one
  //      daemon per cluster, one client per user. The GridSystem
  //      constructor validates the whole assembly before it builds anything.
  std::vector<core::ClusterSetup> clusters;
  for (const auto& [name, procs, cost] :
       {std::tuple{"turing", 512, 0.0008}, std::tuple{"hopper", 256, 0.0005},
        std::tuple{"lovelace", 1024, 0.0012}}) {
    core::ClusterSetup setup;
    setup.machine.name = name;
    setup.machine.total_procs = procs;
    setup.machine.cost_per_cpu_second = cost;
    setup.strategy = [] { return std::make_unique<sched::PayoffStrategy>(); };
    setup.bid_generator = [] {
      return std::make_unique<market::UtilizationBidGenerator>();  // k=1, a=.5, b=2
    };
    clusters.push_back(std::move(setup));
  }
  core::GridSystem grid({}, std::move(clusters), /*user_count=*/4);

  // 3. Create a synthetic workload: 40 malleable jobs with deadlines.
  job::WorkloadParams params;
  params.job_count = 40;
  params.user_count = 4;
  params.shaping.procs_cap = 512;
  job::WorkloadGenerator::calibrate_load(params, 0.6, 512 + 256 + 1024);
  job::GeneratorSource source{params, /*seed=*/2004};

  // 4. Stream the workload through the grid and run the discrete-event
  //    simulation to quiescence. Jobs are pulled from the source one at a
  //    time as their submit times arrive — the same pull-based path a
  //    month-long trace replay uses (DESIGN.md §13).
  const auto report = grid.run(source);

  // 5. Report.
  std::cout << "Faucets quickstart: " << report.jobs_submitted << " jobs submitted, "
            << report.jobs_completed << " completed, " << report.jobs_unplaced
            << " found no acceptable bid.\n";
  std::cout << "Grid makespan " << report.makespan / 3600.0 << " h, "
            << report.messages << " protocol messages, mean time-to-award "
            << report.mean_award_latency << " s.\n\n";

  Table table{{"cluster", "procs", "utilization", "jobs", "revenue($)",
               "bids", "awards"}};
  for (const auto& c : report.clusters) {
    table.row()
        .cell(c.name)
        .cell(grid.daemon(c.id.value()).cm().machine().total_procs)
        .cell(c.utilization, 3)
        .cell(c.completed)
        .cell(c.revenue, 2)
        .cell(c.bids_issued)
        .cell(c.awards_confirmed);
  }
  table.print(std::cout);

  std::cout << "\nClients spent $" << report.total_spent << " for payoff value $"
            << report.total_client_payoff << ".\n";
  return report.jobs_completed > 0 ? 0 : 1;
}
