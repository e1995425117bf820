// Experiment E8 (DESIGN.md): the bartering economy (§5.5.3).
//
// A community of clusters pools resources; users run at home when possible
// and spend the home cluster's credits elsewhere when not. We check (a)
// credit conservation, (b) that heavy consumers drain their balance and
// heavy providers accumulate, and (c) that the debt limit throttles
// freeloading once credits run out.
//
// (a) is the grid's end-of-run audit (DESIGN.md §16), which also covers job
// accounting, leases and spans: the binary exits 1 when any of its five
// grids fails it, so ctest runs it as `bench_bartering`.
#include <iostream>
#include <string>

#include "src/core/grid_system.hpp"
#include "src/sched/equipartition.hpp"
#include "src/util/table.hpp"

using namespace faucets;

namespace {

constexpr int kClusters = 4;
constexpr int kProcs = 128;

std::vector<core::ClusterSetup> make_clusters(double opening_credits) {
  std::vector<core::ClusterSetup> clusters;
  for (int i = 0; i < kClusters; ++i) {
    core::ClusterSetup setup;
    setup.machine.name = "dept" + std::to_string(i);
    setup.machine.total_procs = kProcs;
    setup.machine.cost_per_cpu_second = 0.001;
    setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
    setup.bid_generator = [] {
      return std::make_unique<market::BaselineBidGenerator>();
    };
    setup.barter_credits = opening_credits;
    clusters.push_back(std::move(setup));
  }
  return clusters;
}

std::vector<job::JobRequest> skewed_workload(double skew, std::uint64_t seed) {
  job::WorkloadParams params;
  params.job_count = 240;
  params.user_count = 8;
  params.cluster_count = kClusters;
  params.shaping.procs_cap = kProcs;
  params.min_procs_lo = 4;
  params.min_procs_hi = 16;
  job::WorkloadGenerator::calibrate_load(params, 0.6, kClusters * kProcs);
  auto reqs = job::WorkloadGenerator{params, seed}.generate();
  for (auto& req : reqs) {
    if (req.home_cluster == 0) req.contract.work *= skew;
  }
  return reqs;
}

/// The end-of-run audit's verdict on one grid; a failure names its first
/// failing term on stderr.
bool audit_ok(const core::GridSystem& grid, const std::string& what) {
  const auto term = grid.audit().first_failure();
  if (term) std::cerr << what << ": audit failed: " << obs::to_string(*term) << "\n";
  return !term;
}

}  // namespace

int main() {
  int failed = 0;
  std::cout << "=== E8a: credit flow under skewed demand (dept0 submits "
               "3x work) ===\n";
  {
    core::GridConfig config;
    config.central.billing = BillingMode::kBarter;
    config.clients_prefer_home = true;
    config.evaluator = [] {
      return std::make_unique<market::EarliestCompletionEvaluator>();
    };
    constexpr double kOpening = 2000.0;
    core::GridSystem grid{config, make_clusters(kOpening), 8};
    const auto report = grid.run(skewed_workload(3.0, 911));

    Table t{{"cluster", "utilization", "jobs run", "balance", "delta"}};
    double total = 0.0;
    for (const auto& c : report.clusters) {
      t.row()
          .cell(c.name)
          .cell(c.utilization, 3)
          .cell(c.completed)
          .cell(c.barter_balance, 1)
          .cell(c.barter_balance - kOpening, 1);
      total += c.barter_balance;
    }
    t.print(std::cout);
    const bool ok = audit_ok(grid, "E8a");
    if (!ok) ++failed;
    std::cout << "total credits: " << total << " of " << kClusters * kOpening
              << " (audit " << (ok ? "holds" : "FAILS") << "); transfers logged: "
              << grid.central().barter_ledger().log().size() << "\n";
    std::cout << "jobs completed " << report.jobs_completed << "/"
              << report.jobs_submitted << "\n\n";
  }

  std::cout << "=== E8b: opening-credit sweep — how long can dept0 overdraw? "
               "===\n";
  Table t2{{"opening credits", "dept0 jobs done", "dept0 balance",
            "grid completed", "unplaced"}};
  for (double opening : {0.0, 500.0, 2000.0, 8000.0}) {
    core::GridConfig config;
    config.central.billing = BillingMode::kBarter;
    config.clients_prefer_home = true;
    config.evaluator = [] {
      return std::make_unique<market::EarliestCompletionEvaluator>();
    };
    core::GridSystem grid{config, make_clusters(opening), 8};
    const auto report = grid.run(skewed_workload(4.0, 912));
    if (!audit_ok(grid, "E8b opening " + std::to_string(opening))) ++failed;
    t2.row()
        .cell(opening, 0)
        .cell(report.clusters[0].completed)
        .cell(report.clusters[0].barter_balance, 1)
        .cell(report.jobs_completed)
        .cell(report.jobs_unplaced);
  }
  t2.print(std::cout);
  std::cout << "\nShape check: with zero credits the overloaded department is\n"
               "confined to its own cluster (more unplaced jobs); richer\n"
               "opening balances buy more off-cluster completions.\n";
  if (failed > 0) {
    std::cerr << failed << " of 5 grids failed the audit\n";
    return 1;
  }
  return 0;
}
