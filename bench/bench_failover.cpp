// Experiment E10 (DESIGN.md): checkpoint/migration and crash recovery.
//
// §3: "restart users jobs from their last checkpoint if the system had to
// stop the job or if the machine had any transient hardware problem."
// §4.1: "Jobs may also have to be check-pointed and restarted at a later
// point in time and possibly at another (subcontracted) Compute Server."
// We take one of four clusters down mid-run — gracefully (checkpoints,
// eviction notices) or by crash (silence) — and measure how much work the
// grid salvages.
#include <iostream>

#include "src/core/grid_system.hpp"
#include "src/sched/payoff_sched.hpp"
#include "src/util/table.hpp"

using namespace faucets;

namespace {

std::vector<core::ClusterSetup> make_clusters() {
  std::vector<core::ClusterSetup> clusters;
  for (int i = 0; i < 4; ++i) {
    core::ClusterSetup setup;
    setup.machine.name = "c" + std::to_string(i);
    setup.machine.total_procs = 128;
    setup.machine.cost_per_cpu_second = 0.0008;
    setup.strategy = [] { return std::make_unique<sched::PayoffStrategy>(); };
    setup.bid_generator = [] {
      return std::make_unique<market::UtilizationBidGenerator>();
    };
    clusters.push_back(std::move(setup));
  }
  return clusters;
}

std::vector<job::JobRequest> workload(std::uint64_t seed) {
  job::WorkloadParams params;
  params.job_count = 160;
  params.user_count = 8;
  params.shaping.procs_cap = 128;
  params.min_procs_lo = 4;
  params.min_procs_hi = 16;
  params.shaping.tightness_lo = 3.0;
  params.shaping.tightness_hi = 10.0;
  job::WorkloadGenerator::calibrate_load(params, 0.55, 4 * 128);
  return job::WorkloadGenerator{params, seed}.generate();
}

struct Row {
  const char* name;
  bool kill = false;
  bool graceful = true;
  double watchdog = -1.0;
};

}  // namespace

int main() {
  std::cout << "=== E10: one of four 128-proc clusters goes down mid-run ===\n";
  Table t{{"scenario", "completed", "unplaced", "migrations",
           "watchdog restarts", "client payoff($)", "client spend($)"}};

  const Row rows[] = {
      {"no failure", false, true, -1.0},
      {"graceful drain @ t=25%", true, true, -1.0},
      {"crash, no watchdog", true, false, -1.0},
      {"crash + watchdog 120 s", true, false, 120.0},
  };

  for (const auto& row : rows) {
    auto reqs = workload(111);
    const double horizon = reqs.back().submit_time;
    core::GridConfig config;
    if (row.watchdog >= 0.0) config.client_watchdog_margin = row.watchdog;
    if (row.kill) {
      config.crashes.push_back({0, horizon * 0.25, std::nullopt, row.graceful});
    }
    core::GridSystem grid{config, make_clusters(), 8};
    // Crashed jobs without a watchdog never resolve; bound the run.
    const auto report = grid.run(std::move(reqs), horizon * 20.0);
    t.row()
        .cell(row.name)
        .cell(report.jobs_completed)
        .cell(report.jobs_unplaced)
        .cell(report.migrations)
        .cell(report.watchdog_restarts)
        .cell(report.total_client_payoff, 1)
        .cell(report.total_spent, 1);
  }
  t.print(std::cout);
  std::cout << "\nShape check: graceful draining migrates checkpoints and loses\n"
               "nothing; a silent crash strands jobs unless the client-side\n"
               "watchdog (SS1's 'babysitting', automated) resubmits them.\n";
  return 0;
}
