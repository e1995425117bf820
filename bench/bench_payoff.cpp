// Experiment E4 (DESIGN.md): profit from deadline-driven scheduling.
//
// §4.1: "if a high profit job arrives and has a tight deadline, the low
// priority jobs can be shrunk [...] the payoff from the new job must at
// least compensate for the loss mentioned above or the job must be
// rejected." We measure total payoff, deadline misses, and the effect of
// (a) the admission lookahead (the paper's prototype accepts a job only if
// it can run "now or at a finite lookahead in future") and (b) charging the
// displacement loss.
//
// All three loops fan out over the sweep subsystem's shared-cursor pool
// (sweep::parallel_map): every run owns its SimContext, results land in
// index-ordered slots, so the tables are identical to the old serial loops
// at any thread count.
#include <iostream>
#include <memory>
#include <thread>

#include "src/core/experiment.hpp"
#include "src/sched/backfill.hpp"
#include "src/sched/equipartition.hpp"
#include "src/sched/fcfs.hpp"
#include "src/sched/payoff_sched.hpp"
#include "src/sweep/thread_pool.hpp"
#include "src/util/table.hpp"

using namespace faucets;

namespace {

job::WorkloadParams deadline_params(int procs, double tightness_lo,
                                    double tightness_hi) {
  job::WorkloadParams params;
  params.job_count = 300;
  params.user_count = 16;
  params.shaping.procs_cap = procs;
  params.min_procs_lo = 4;
  params.min_procs_hi = 32;
  params.shaping.tightness_lo = tightness_lo;
  params.shaping.tightness_hi = tightness_hi;
  params.shaping.penalty_fraction = 0.5;
  job::WorkloadGenerator::calibrate_load(params, 1.1, procs);  // overloaded
  return params;
}

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

struct Named {
  const char* name;
  std::function<std::unique_ptr<sched::Strategy>()> factory;
};

const Named kSchedulers[] = {
    {"fcfs",
     [] { return std::make_unique<sched::FcfsStrategy>(sched::RigidRequest::kMedian); }},
    {"easy-backfill",
     [] {
       return std::make_unique<sched::BackfillStrategy>(sched::RigidRequest::kMedian);
     }},
    {"equipartition", [] { return std::make_unique<sched::EquipartitionStrategy>(); }},
    {"payoff", [] { return std::make_unique<sched::PayoffStrategy>(); }},
};

}  // namespace

int main() {
  constexpr int kProcs = 512;
  constexpr std::size_t kSchedulerCount = std::size(kSchedulers);
  cluster::MachineSpec machine;
  machine.total_procs = kProcs;

  std::cout << "=== E4a: total payoff under deadline pressure (512 procs, "
               "offered load 1.1) ===\n";
  Table t1{{"tightness", "scheduler", "payoff($)", "completed", "rejected",
            "deadline misses"}};
  const std::pair<double, double> kTightness[] = {{1.2, 3.0}, {3.0, 8.0}};
  // One request stream per tightness regime, shared read-only by the runs.
  std::vector<std::vector<job::JobRequest>> streams;
  for (const auto& [lo, hi] : kTightness) {
    streams.push_back(
        job::WorkloadGenerator{deadline_params(kProcs, lo, hi), 555}.generate());
  }
  const auto e4a = sweep::parallel_map(
      std::size(kTightness) * kSchedulerCount, hardware_threads(),
      [&](std::size_t i) {
        return core::run_cluster_experiment(machine,
                                            kSchedulers[i % kSchedulerCount].factory,
                                            streams[i / kSchedulerCount]);
      });
  for (std::size_t t = 0; t < std::size(kTightness); ++t) {
    const auto [lo, hi] = kTightness[t];
    const std::string label =
        (lo < 2.0 ? std::string("tight (") : std::string("loose (")) +
        std::to_string(lo).substr(0, 3) + "-" + std::to_string(hi).substr(0, 3) + ")";
    for (std::size_t s = 0; s < kSchedulerCount; ++s) {
      const auto& r = e4a[t * kSchedulerCount + s];
      t1.row()
          .cell(label)
          .cell(kSchedulers[s].name)
          .cell(r.total_payoff, 1)
          .cell(r.completed)
          .cell(r.rejected)
          .cell(r.deadline_misses);
    }
  }
  t1.print(std::cout);
  std::cout << "\nShape check: 'payoff' should earn the most (it rejects jobs it\n"
               "cannot serve profitably and shrinks low-value work); rigid\n"
               "schedulers accept everything and bleed penalties.\n\n";

  std::cout << "=== E4b ablation: admission lookahead depth (payoff strategy) ===\n";
  Table t2{{"lookahead (h)", "payoff($)", "completed", "rejected",
            "deadline misses"}};
  const auto params = deadline_params(kProcs, 1.5, 5.0);
  const auto requests = job::WorkloadGenerator{params, 556}.generate();
  constexpr double kHours[] = {0.0, 0.5, 2.0, 8.0, 24.0};
  const auto e4b = sweep::parallel_map(
      std::size(kHours), hardware_threads(), [&](std::size_t i) {
        sched::PayoffStrategyParams p;
        p.lookahead = kHours[i] * 3600.0;
        return core::run_cluster_experiment(
            machine, [p] { return std::make_unique<sched::PayoffStrategy>(p); },
            requests);
      });
  for (std::size_t i = 0; i < std::size(kHours); ++i) {
    const auto& r = e4b[i];
    t2.row()
        .cell(kHours[i], 1)
        .cell(r.total_payoff, 1)
        .cell(r.completed)
        .cell(r.rejected)
        .cell(r.deadline_misses);
  }
  t2.print(std::cout);

  std::cout << "\n=== E4c ablation: displacement-loss compensation rule ===\n";
  Table t3{{"charge displaced loss", "payoff($)", "completed", "deadline misses"}};
  const auto e4c =
      sweep::parallel_map(2, hardware_threads(), [&](std::size_t i) {
        sched::PayoffStrategyParams p;
        p.charge_displacement_loss = i == 0;
        return core::run_cluster_experiment(
            machine, [p] { return std::make_unique<sched::PayoffStrategy>(p); },
            requests);
      });
  for (std::size_t i = 0; i < 2; ++i) {
    t3.row()
        .cell(i == 0 ? "yes (paper rule)" : "no")
        .cell(e4c[i].total_payoff, 1)
        .cell(e4c[i].completed)
        .cell(e4c[i].deadline_misses);
  }
  t3.print(std::cout);
  return 0;
}
