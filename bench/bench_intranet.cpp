// Experiment E11 (DESIGN.md): intranet mode ablations (§5.5.4) —
// preemption on/off and fair usage on/off on one pooled corporate cluster.
#include <iostream>

#include "src/cluster/server.hpp"
#include "src/job/workload.hpp"
#include "src/sched/priority_sched.hpp"
#include "src/util/table.hpp"

using namespace faucets;

namespace {

struct Result {
  double wait_priority = 0.0;  // mean wait of priority-5 jobs
  double wait_regular = 0.0;   // mean wait of regular (non-hog) jobs
  double wait_hog = 0.0;       // mean wait of the hog's jobs
  std::uint64_t preemptions = 0;
  double utilization = 0.0;
};

Result run(sched::PriorityStrategyParams params, std::uint64_t seed) {
  sim::SimContext ctx;
  cluster::MachineSpec machine;
  machine.total_procs = 256;
  auto strategy = std::make_unique<sched::PriorityStrategy>(params);
  auto* strat = strategy.get();
  cluster::ClusterManager cm{ctx, machine, std::move(strategy),
                             job::AdaptiveCosts{.reconfig_seconds = 2.0}};
  cm.set_completion_callback([strat](const job::Job& j) {
    strat->charge_usage(j.owner(), j.total_work());
  });

  job::WorkloadParams wl;
  wl.job_count = 200;
  wl.user_count = 8;
  wl.shaping.procs_cap = 256;
  job::WorkloadGenerator::calibrate_load(wl, 1.1, 256);
  auto requests = job::WorkloadGenerator{wl, seed}.generate();
  // User 7 is a management-priority department; user 0 is a hog who
  // submits triple-size jobs at priority 0.
  for (auto& req : requests) {
    req.contract.priority = req.user_index == 7 ? 5 : 0;
    if (req.user_index == 0) req.contract.work *= 3.0;
  }

  // Track waits per class through the completion callback.
  Samples wait_priority;
  Samples wait_regular;
  Samples wait_hog;
  cm.set_completion_callback([&, strat](const job::Job& j) {
    strat->charge_usage(j.owner(), j.total_work());
    if (j.contract().priority > 0) {
      wait_priority.add(j.wait_time());
    } else if (j.owner() == UserId{0}) {
      wait_hog.add(j.wait_time());
    } else {
      wait_regular.add(j.wait_time());
    }
  });

  for (const auto& req : requests) {
    ctx.engine().schedule_at(req.submit_time, [&cm, &req] {
      (void)cm.submit(UserId{req.user_index}, req.contract);
    });
  }
  ctx.engine().run();
  cm.finish_metrics();

  Result out;
  out.wait_priority = wait_priority.mean();
  out.wait_regular = wait_regular.mean();
  out.wait_hog = wait_hog.mean();
  out.preemptions = strat->preemptions();
  out.utilization = cm.metrics().utilization();
  return out;
}

}  // namespace

int main() {
  std::cout << "=== E11: intranet priority pool ablations (256 procs, load "
               "1.1, hog user x3 work) ===\n";
  Table t{{"policy", "prio-5 wait (s)", "regular wait (s)", "hog wait (s)",
           "preemptions", "utilization"}};

  struct Row {
    const char* name;
    sched::PriorityStrategyParams params;
  };
  Row rows[] = {
      {"no preemption", {.allow_preemption = false}},
      {"preemption", {.allow_preemption = true}},
      {"preemption + fair usage",
       {.allow_preemption = true, .fair_usage_weight = 20000.0,
        .fair_usage_grace = 100000.0}},
  };
  for (const auto& row : rows) {
    const auto r = run(row.params, 808);
    t.row()
        .cell(row.name)
        .cell(r.wait_priority, 0)
        .cell(r.wait_regular, 0)
        .cell(r.wait_hog, 0)
        .cell(r.preemptions)
        .cell(r.utilization, 3);
  }
  t.print(std::cout);
  std::cout << "\nShape check: preemption slashes the priority class's wait;\n"
               "fair usage shifts queueing delay from regular users onto the\n"
               "hog whose department already burned its share.\n";
  return 0;
}
