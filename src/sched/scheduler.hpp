// Strategy interface for job schedulers ("Adaptive Queueing System aka
// Scheduler aka Cluster Manager" in the paper's component list).
//
// Decisions on allocating processors to jobs are taken by a strategy that
// can be plugged into the Cluster Manager (§4.1). A strategy answers two
// questions: should this job be admitted (and what completion can we
// promise, which backs the bid), and how many processors should every
// current job hold right now. It answers from a SchedulerContext, a view of
// the cluster alone: no strategy reaches the simulation around it.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "src/cluster/machine.hpp"
#include "src/job/job.hpp"
#include "src/qos/contract.hpp"

namespace faucets::sched {

/// Desired processor count for one job; 0 means vacate to the queue.
struct Allocation {
  JobId job;
  int procs = 0;
};

/// Read-only view of the cluster state handed to strategies: the clock,
/// the machine and the job lists, and nothing of the simulation around
/// them, so a strategy is a pure function of this view. `running` jobs hold
/// processors, `queued` jobs wait; both are ordered by submission time (job
/// id). The spans view the Cluster Manager's own lists, so they are valid
/// only during the strategy call they are passed to.
struct SchedulerContext {
  double now = 0.0;
  const cluster::MachineSpec* machine = nullptr;
  std::span<const job::Job* const> running;
  std::span<const job::Job* const> queued;
  /// Remaining work of the queued jobs, summed in queue order. Filled for
  /// admission queries (Strategy::admit) only; 0 in schedule() calls.
  double queued_work = 0.0;

  [[nodiscard]] int total_procs() const noexcept {
    return machine != nullptr ? machine->total_procs : 0;
  }
  [[nodiscard]] int busy_procs() const noexcept {
    int n = 0;
    for (const auto* j : running) n += j->procs();
    return n;
  }
  [[nodiscard]] int free_procs() const noexcept { return total_procs() - busy_procs(); }
};

/// Outcome of an admission query. `estimated_completion` (absolute sim
/// time) is the promise a bid is built on.
struct AdmissionDecision {
  bool accept = false;
  double estimated_completion = 1e300;

  static AdmissionDecision rejected() { return AdmissionDecision{false, 1e300}; }
  static AdmissionDecision accepted(double completion) {
    return AdmissionDecision{true, completion};
  }
};

/// How a non-adaptive strategy chooses the fixed size of a malleable job.
enum class RigidRequest {
  kMin,     // conservative: the contract minimum
  kMedian,  // geometric middle of the range
  kMax,     // aggressive: the contract maximum (clamped to the machine)
};

[[nodiscard]] int rigid_request_size(const qos::QosContract& contract,
                                     RigidRequest policy, int machine_procs);

class Strategy {
 public:
  virtual ~Strategy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True if the strategy exploits malleable jobs.
  [[nodiscard]] virtual bool adaptive() const noexcept = 0;

  /// Decide whether to admit `contract` given the current state. Must not
  /// mutate anything; called both for bids and for actual submission.
  /// Precondition: the contract is valid and the machine can ever run it
  /// (`MachineSpec::can_ever_run`, so `min_procs <= total_procs`); the
  /// Cluster Manager refuses any other contract before asking.
  [[nodiscard]] virtual AdmissionDecision admit(const SchedulerContext& ctx,
                                                const qos::QosContract& contract) = 0;

  /// Produce the target allocation for every job in `ctx.running` and
  /// `ctx.queued`. Jobs omitted from the result keep their current
  /// allocation. Called whenever the job set changes.
  [[nodiscard]] virtual std::vector<Allocation> schedule(const SchedulerContext& ctx) = 0;
};

}  // namespace faucets::sched
