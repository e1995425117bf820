#include "src/sched/payoff_sched.hpp"

#include <algorithm>
#include <cmath>

namespace faucets::sched {

namespace {
constexpr double kInf = 1e300;

double speed_of(const SchedulerContext& ctx) {
  return ctx.machine != nullptr ? ctx.machine->speed_factor : 1.0;
}
}  // namespace

cluster::GanttChart PayoffStrategy::commitments(const SchedulerContext& ctx,
                                                double horizon) {
  cluster::GanttChart gantt{std::max(1, ctx.total_procs())};
  for (const auto* j : ctx.running) {
    const double finish = std::min(j->projected_finish(ctx.now), horizon);
    // Adaptive jobs can be shrunk to their contract minimum to make room
    // (the §4.1 mechanism), so only that floor is a hard commitment. The
    // finish estimate stays at the current rate — conservative in duration,
    // optimistic in processors.
    const int floor_procs = std::min(j->procs(), j->contract().min_procs);
    if (finish > ctx.now) gantt.reserve(ctx.now, finish, floor_procs);
  }
  const double speed = speed_of(ctx);
  for (const auto* j : ctx.queued) {
    const int procs = std::min(j->contract().min_procs, gantt.capacity());
    const double runtime =
        j->contract().efficiency.time_to_complete(j->remaining_work(), procs) / speed;
    const double start = gantt.earliest_fit(ctx.now, runtime, procs, horizon);
    if (start < horizon) gantt.reserve(start, start + runtime, procs);
  }
  return gantt;
}

double PayoffStrategy::priority(const job::Job& job, double now) {
  const auto& payoff = job.contract().payoff;
  const double value = std::max(payoff.max_payoff(), 0.0);
  const double work = std::max(job.remaining_work(), 1.0);
  double density = value / work;
  if (payoff.has_deadline()) {
    // Urgency: boost as slack to the soft deadline shrinks.
    const double min_runtime =
        job.contract().efficiency.time_to_complete(job.remaining_work(),
                                                   job.contract().max_procs);
    const double slack = payoff.soft_deadline() - now - min_runtime;
    if (slack < 0.0) {
      density *= 4.0;  // already late for the soft deadline: race the hard one
    } else {
      density *= 1.0 + min_runtime / (min_runtime + slack);
    }
  }
  return density;
}

double PayoffStrategy::estimate_displacement_loss(const SchedulerContext& ctx,
                                                  const qos::QosContract& contract,
                                                  double start,
                                                  double duration) const {
  if (!params_.charge_displacement_loss) return 0.0;
  const int total = std::max(1, ctx.total_procs());
  // The newcomer removes min_procs of capacity for `duration`; existing
  // deadline jobs slow down by that capacity fraction while it runs.
  const double capacity_fraction =
      static_cast<double>(std::min(contract.min_procs, total)) / total;
  double loss = 0.0;
  for (const auto* j : ctx.running) {
    const auto& payoff = j->contract().payoff;
    if (!payoff.has_deadline()) continue;
    const double finish = j->projected_finish(ctx.now);
    if (finish >= kInf || finish <= start) continue;
    const double overlap = std::min(finish, start + duration) - start;
    if (overlap <= 0.0) continue;
    // Stretch: during the overlap the job progresses at (1 - f) speed.
    const double delay = overlap * capacity_fraction / (1.0 - capacity_fraction + 1e-9);
    const double before = payoff.value_at(finish);
    const double after = payoff.value_at(finish + delay);
    if (after < before) loss += before - after;
  }
  return loss;
}

AdmissionDecision PayoffStrategy::admit(const SchedulerContext& ctx,
                                        const qos::QosContract& contract) {
  const double speed = speed_of(ctx);
  const double horizon = ctx.now + std::max(params_.lookahead, 0.0) +
                         contract.estimated_runtime(contract.min_procs, speed);

  auto gantt = commitments(ctx, horizon);
  const double runtime_min = contract.estimated_runtime(contract.min_procs, speed);
  const double window_end = ctx.now + std::max(params_.lookahead, 0.0);
  const double start =
      gantt.earliest_fit(ctx.now, runtime_min, contract.min_procs, horizon);
  if (start > window_end) {
    return AdmissionDecision::rejected();
  }

  // Completion promise: assume the job runs at the larger of min_procs and
  // the processors actually spare at its start.
  const int spare = gantt.capacity() - gantt.peak_committed(start, start + runtime_min);
  const int procs = std::clamp(contract.min_procs + std::max(0, spare),
                               contract.min_procs,
                               std::min(contract.max_procs, ctx.total_procs()));
  const double runtime = contract.estimated_runtime(procs, speed);
  const double completion = start + runtime;

  const double payoff = contract.payoff.value_at(completion);
  if (payoff <= 0.0) {
    return AdmissionDecision::rejected();
  }
  const double loss = estimate_displacement_loss(ctx, contract, start, runtime);
  if (payoff < loss) {
    return AdmissionDecision::rejected();
  }
  return AdmissionDecision::accepted(completion);
}

std::vector<Allocation> PayoffStrategy::schedule(const SchedulerContext& ctx) {
  const double speed = speed_of(ctx);
  std::vector<const job::Job*> jobs;
  jobs.reserve(ctx.running.size() + ctx.queued.size());
  jobs.insert(jobs.end(), ctx.running.begin(), ctx.running.end());
  jobs.insert(jobs.end(), ctx.queued.begin(), ctx.queued.end());
  std::stable_sort(jobs.begin(), jobs.end(),
                   [&](const job::Job* a, const job::Job* b) {
                     return priority(*a, ctx.now) > priority(*b, ctx.now);
                   });

  const int total = ctx.total_procs();
  std::vector<Allocation> out;
  out.reserve(jobs.size());

  // Pass 1: each job, in priority order, gets the processors it needs to
  // make its soft deadline (its "desired" size), bounded by what remains.
  std::vector<int> granted(jobs.size(), 0);
  int cap = total;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const job::Job& j = *jobs[i];
    const auto& c = j.contract();
    const int max_here = std::min(c.max_procs, total);
    int desired = c.min_procs;
    if (c.payoff.has_deadline()) {
      // Smallest p whose completion meets the soft deadline.
      desired = max_here;
      for (int p = c.min_procs; p <= max_here; ++p) {
        const double finish =
            ctx.now + c.efficiency.time_to_complete(j.remaining_work(), p) / speed;
        if (finish <= c.payoff.soft_deadline()) {
          desired = p;
          break;
        }
      }
    }
    if (c.min_procs > cap) continue;  // stays queued this round
    granted[i] = std::min(desired, cap);
    if (granted[i] < c.min_procs) granted[i] = c.min_procs;
    cap -= granted[i];
  }

  // Pass 2: spread leftover capacity top-down so finished-early premiums
  // are captured.
  for (std::size_t i = 0; i < jobs.size() && cap > 0; ++i) {
    if (granted[i] == 0) continue;
    const int max_here = std::min(jobs[i]->contract().max_procs, total);
    const int extra = std::min(cap, max_here - granted[i]);
    granted[i] += extra;
    cap -= extra;
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.push_back(Allocation{jobs[i]->id(), granted[i]});
  }
  return out;
}

}  // namespace faucets::sched
