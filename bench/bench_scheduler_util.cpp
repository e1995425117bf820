// Experiments E2 + E3 (DESIGN.md): utilization and response time vs offered
// load for the four schedulers, on one 512-processor Compute Server, plus
// the reconfiguration-overhead ablation.
//
// Paper shape to reproduce (§4.1 and [15]): adaptive strategies sustain
// higher utilization and lower response times than rigid queuing,
// especially as load approaches saturation.
//
// The scheduler × load grid runs through the sweep subsystem (DESIGN.md
// §9): declarative [sweep] spec, shared-cursor pool, seed derived per grid
// point — the same engine `faucets_sweep --grid` drives, so this bench's
// table can also be regenerated (with replicates and CIs) from the CLI.
#include <iostream>
#include <memory>
#include <thread>

#include "src/core/experiment.hpp"
#include "src/sched/equipartition.hpp"
#include "src/sweep/sweep.hpp"
#include "src/util/table.hpp"

using namespace faucets;

namespace {

constexpr const char* kGrid = R"ini(
[grid]
users = 16
seed = 1234

[cluster]
name = e2
procs = 512

[workload]
jobs = 400
min_procs_lo = 4
min_procs_hi = 32
tightness_lo = 2.0
tightness_hi = 8.0

[sweep]
mode = cluster
schedulers = fcfs, backfill, equipartition, payoff
loads = 0.5, 0.7, 0.9, 1.1, 1.3
)ini";

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace

int main() {
  const auto spec = sweep::SweepSpec::parse_string(kGrid);
  const sweep::SweepRunner runner(spec);
  const auto results = runner.run({.threads = hardware_threads()});

  constexpr const char* kSchedulers[] = {"fcfs", "backfill", "equipartition",
                                         "payoff"};
  constexpr double kLoads[] = {0.5, 0.7, 0.9, 1.1, 1.3};
  constexpr std::size_t kLoadCount = std::size(kLoads);
  auto at = [&](std::size_t sched, std::size_t load) -> const sweep::RunResult& {
    return results[sched * kLoadCount + load];  // run order: scheduler-major
  };
  auto metric = [](const sweep::RunResult& r, const char* name) {
    for (const auto& [key, value] : r.metrics) {
      if (key == name) return value;
    }
    return 0.0;
  };

  std::cout << "=== E2: utilization vs offered load (512 procs, 400 jobs) ===\n";
  Table t2{{"load", "fcfs", "easy-backfill", "equipartition", "payoff"}};
  std::cout << "=== E3 data collected in the same sweep ===\n\n";
  Table t3{{"load", "scheduler", "mean resp (s)", "p95 resp (s)",
            "mean bounded slowdown", "completed", "rejected"}};
  for (std::size_t l = 0; l < kLoadCount; ++l) {
    t2.row().cell(kLoads[l], 1);
    for (std::size_t s = 0; s < std::size(kSchedulers); ++s) {
      const auto& r = at(s, l);
      t2.cell(metric(r, "utilization"), 3);
      t3.row()
          .cell(kLoads[l], 1)
          .cell(s == 1 ? "easy-backfill" : kSchedulers[s])
          .cell(metric(r, "mean_response"), 0)
          .cell(metric(r, "p95_response"), 0)
          .cell(metric(r, "mean_bounded_slowdown"), 2)
          .cell(static_cast<std::uint64_t>(metric(r, "completed")))
          .cell(static_cast<std::uint64_t>(metric(r, "rejected")));
    }
  }
  std::cout << "--- utilization ---\n";
  t2.print(std::cout);
  std::cout << "\n--- response time / slowdown ---\n";
  t3.print(std::cout);

  std::cout << "\n=== E2b ablation: adaptive-job reconfiguration overhead "
               "(equipartition, load 0.9) ===\n";
  Table t4{{"reconfig cost (s)", "utilization", "mean resp (s)", "reconfigs/job"}};
  // The reconfiguration cost is not a declarative sweep axis, so this
  // ablation fans out over the pool directly with the same slot pattern.
  cluster::MachineSpec machine;
  machine.total_procs = 512;
  auto params = spec.base().workload;
  job::WorkloadGenerator::calibrate_load(params, 0.9, machine.total_procs);
  const auto requests = job::WorkloadGenerator{params, 1234}.generate();
  constexpr double kCosts[] = {0.0, 1.0, 5.0, 30.0, 120.0};
  const auto ablation = sweep::parallel_map(
      std::size(kCosts), hardware_threads(), [&](std::size_t i) {
        job::AdaptiveCosts costs;
        costs.reconfig_seconds = kCosts[i];
        return core::run_cluster_experiment(
            machine, [] { return std::make_unique<sched::EquipartitionStrategy>(); },
            requests, costs);
      });
  for (std::size_t i = 0; i < std::size(kCosts); ++i) {
    t4.row()
        .cell(kCosts[i], 0)
        .cell(ablation[i].utilization, 3)
        .cell(ablation[i].mean_response, 0)
        .cell(ablation[i].reconfigs_per_job, 1);
  }
  t4.print(std::cout);
  std::cout << "\nShape check: the adaptive strategies should dominate the rigid\n"
               "ones on utilization at high load, and reconfiguration overhead\n"
               "should erode (but not erase) the advantage.\n";
  return 0;
}
