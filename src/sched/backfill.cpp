#include "src/sched/backfill.hpp"

#include <algorithm>
#include <vector>

namespace faucets::sched {

BackfillStrategy::Shadow BackfillStrategy::shadow_for(const SchedulerContext& ctx,
                                                      int head_size) const {
  std::vector<std::pair<double, int>> finishes;  // (finish time, procs freed)
  finishes.reserve(ctx.running.size());
  for (const auto* j : ctx.running) {
    finishes.emplace_back(j->projected_finish(ctx.now), j->procs());
  }
  std::sort(finishes.begin(), finishes.end());

  int free_procs = ctx.free_procs();
  if (free_procs >= head_size) return Shadow{ctx.now, free_procs - head_size};
  for (const auto& [t, p] : finishes) {
    free_procs += p;
    if (free_procs >= head_size) return Shadow{t, free_procs - head_size};
  }
  // Head can never start with current information (should not happen when
  // admission checked machine size).
  return Shadow{1e300, 0};
}

AdmissionDecision BackfillStrategy::admit(const SchedulerContext& ctx,
                                          const qos::QosContract& contract) {
  const int size = request_size(ctx, contract);
  const double speed = ctx.machine != nullptr ? ctx.machine->speed_factor : 1.0;
  // Estimate: it starts no earlier than its own shadow time behind the
  // current queue's aggregate demand.
  const Shadow s = shadow_for(ctx, size);
  const double queue_drain =
      ctx.queued_work / (static_cast<double>(ctx.total_procs()) * speed);
  return AdmissionDecision::accepted(std::max(s.time, ctx.now + queue_drain) +
                                     contract.estimated_runtime(size, speed));
}

std::vector<Allocation> BackfillStrategy::schedule(const SchedulerContext& ctx) {
  std::vector<Allocation> out;
  if (ctx.queued.empty()) return out;

  const double speed = ctx.machine != nullptr ? ctx.machine->speed_factor : 1.0;
  int free_procs = ctx.free_procs();

  // Head of queue starts if it fits.
  const auto* head = ctx.queued.front();
  const int head_size = request_size(ctx, head->contract());
  if (head_size <= free_procs) {
    out.push_back(Allocation{head->id(), head_size});
    free_procs -= head_size;
    // With the head gone a new head exists; a single pass per event keeps
    // the strategy simple — the next event re-runs schedule() and promotes
    // further jobs. Start what fits greedily in FCFS order below.
    for (std::size_t i = 1; i < ctx.queued.size(); ++i) {
      const auto* j = ctx.queued[i];
      const int size = request_size(ctx, j->contract());
      if (size > free_procs) break;
      out.push_back(Allocation{j->id(), size});
      free_procs -= size;
    }
    return out;
  }

  // Head blocked: compute its reservation and backfill around it.
  const Shadow shadow = shadow_for(ctx, head_size);
  int spare_at_shadow = shadow.spare;
  for (std::size_t i = 1; i < ctx.queued.size(); ++i) {
    const auto* j = ctx.queued[i];
    const int size = request_size(ctx, j->contract());
    if (size > free_procs) continue;
    const double finish =
        ctx.now + j->contract().efficiency.time_to_complete(j->remaining_work(), size) /
                      speed;
    const bool before_shadow = finish <= shadow.time;
    const bool within_spare = size <= spare_at_shadow;
    if (before_shadow || within_spare) {
      out.push_back(Allocation{j->id(), size});
      free_procs -= size;
      if (!before_shadow) spare_at_shadow -= size;
    }
  }
  return out;
}

}  // namespace faucets::sched
