// Cooperative bartering (paper §5.5.3): four department clusters pool their
// resources. Users submit to their Home Cluster first; overflow runs on a
// collaborator's cluster and credits move from the home account to the
// executor's account. Total credits are conserved.
//
//   ./examples/bartering_pool
#include <iostream>

#include "src/core/grid_system.hpp"
#include "src/sched/equipartition.hpp"
#include "src/util/table.hpp"

using namespace faucets;

int main() {
  constexpr double kOpeningCredits = 500.0;
  std::vector<core::ClusterSetup> clusters;
  const char* names[] = {"physics", "chemistry", "biology", "engineering"};
  for (int i = 0; i < 4; ++i) {
    core::ClusterSetup setup;
    setup.machine.name = names[i];
    setup.machine.total_procs = 128;
    setup.machine.cost_per_cpu_second = 0.001;  // 1 credit per 1000 proc-s
    setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
    setup.bid_generator = [] {
      return std::make_unique<market::BaselineBidGenerator>();
    };
    setup.barter_credits = kOpeningCredits;
    clusters.push_back(std::move(setup));
  }

  core::GridConfig config;
  config.central.billing = BillingMode::kBarter;
  config.clients_prefer_home = true;
  config.evaluator = [] {
    return std::make_unique<market::EarliestCompletionEvaluator>();
  };
  core::GridSystem grid(config, std::move(clusters), 8);

  // Skewed demand: physics users (home cluster 0) submit three times the
  // work of everyone else, so physics must buy cycles from the others.
  job::WorkloadParams params;
  params.job_count = 160;
  params.user_count = 8;
  params.cluster_count = 4;
  params.shaping.procs_cap = 128;
  job::WorkloadGenerator::calibrate_load(params, 0.7, 4 * 128);
  auto requests = job::WorkloadGenerator{params, 99}.generate();
  for (auto& req : requests) {
    if (req.user_index % 4 != 0) continue;
    // users 0 and 4 live on the physics cluster; triple their job sizes
    req.contract.work *= 3.0;
  }

  // Hand-tweaked vectors enter through a VectorSource like every other
  // workload (the source API is the only door into the grid).
  job::VectorSource source{std::move(requests)};
  const auto report = grid.run(source);

  std::cout << "Bartering pool of 4 department clusters, opening balance "
            << kOpeningCredits << " credits each\n\n";
  Table table{{"cluster", "utilization", "jobs run", "credits now", "delta"}};
  double total = 0.0;
  for (const auto& c : report.clusters) {
    table.row()
        .cell(c.name)
        .cell(c.utilization, 3)
        .cell(c.completed)
        .cell(c.barter_balance, 1)
        .cell(c.barter_balance - kOpeningCredits, 1);
    total += c.barter_balance;
  }
  table.print(std::cout);
  std::cout << "\nTotal credits in the pool: " << total << " (conserved: "
            << (std::abs(total - 4 * kOpeningCredits) < 1e-6 ? "yes" : "NO")
            << ")\n";
  std::cout << "Ledger transfers recorded: "
            << grid.central().barter_ledger().log().size() << "\n";
  std::cout << "Jobs completed " << report.jobs_completed << "/"
            << report.jobs_submitted << "\n";
  return 0;
}
