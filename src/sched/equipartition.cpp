#include "src/sched/equipartition.hpp"

#include <algorithm>

namespace faucets::sched {

std::vector<int> EquipartitionStrategy::equipartition(
    const std::vector<std::pair<int, int>>& bounds, int capacity) {
  std::vector<int> alloc(bounds.size(), 0);

  // Pass 1: guarantee minimums in priority order while capacity lasts.
  int cap = capacity;
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const int lo = bounds[i].first;
    if (lo <= cap) {
      alloc[i] = lo;
      cap -= lo;
      selected.push_back(i);
    }
  }

  // Pass 2: water-fill the remaining capacity equally, clamped to maxima.
  while (cap > 0) {
    std::size_t unsaturated = 0;
    for (std::size_t i : selected) {
      if (alloc[i] < bounds[i].second) ++unsaturated;
    }
    if (unsaturated == 0) break;
    const int inc = std::max(1, cap / static_cast<int>(unsaturated));
    bool gave = false;
    for (std::size_t i : selected) {
      if (cap == 0) break;
      const int room = bounds[i].second - alloc[i];
      if (room <= 0) continue;
      const int give = std::min({inc, room, cap});
      alloc[i] += give;
      cap -= give;
      gave = gave || give > 0;
    }
    if (!gave) break;
  }
  return alloc;
}

AdmissionDecision EquipartitionStrategy::admit(const SchedulerContext& ctx,
                                               const qos::QosContract& contract) {
  const double speed = ctx.machine != nullptr ? ctx.machine->speed_factor : 1.0;

  // Estimate by running the actual water-filling with the candidate
  // appended after every live job.
  std::vector<std::pair<int, int>> bounds;
  bounds.reserve(ctx.running.size() + ctx.queued.size() + 1);
  for (const auto* j : ctx.running) {
    bounds.emplace_back(j->contract().min_procs,
                        std::min(j->contract().max_procs, ctx.total_procs()));
  }
  for (const auto* j : ctx.queued) {
    bounds.emplace_back(j->contract().min_procs,
                        std::min(j->contract().max_procs, ctx.total_procs()));
  }
  bounds.emplace_back(contract.min_procs,
                      std::min(contract.max_procs, ctx.total_procs()));
  const auto alloc = equipartition(bounds, ctx.total_procs());
  const int share = alloc.back();
  if (share > 0) {
    return AdmissionDecision::accepted(ctx.now +
                                       contract.estimated_runtime(share, speed));
  }
  // No share right now: the candidate waits roughly while the current
  // backlog drains at full machine rate, then runs.
  double backlog = 0.0;
  for (const auto* j : ctx.running) backlog += j->remaining_work();
  for (const auto* j : ctx.queued) backlog += j->remaining_work();
  const double drain =
      backlog / (static_cast<double>(ctx.total_procs()) * speed);
  const int procs = std::min(contract.max_procs, ctx.total_procs());
  return AdmissionDecision::accepted(ctx.now + drain +
                                     contract.estimated_runtime(procs, speed));
}

std::vector<Allocation> EquipartitionStrategy::schedule(const SchedulerContext& ctx) {
  // Priority order: submission order, running and queued interleaved by id
  // (ids are monotone in submission time on one cluster).
  std::vector<const job::Job*> jobs;
  jobs.reserve(ctx.running.size() + ctx.queued.size());
  jobs.insert(jobs.end(), ctx.running.begin(), ctx.running.end());
  jobs.insert(jobs.end(), ctx.queued.begin(), ctx.queued.end());
  std::sort(jobs.begin(), jobs.end(),
            [](const job::Job* a, const job::Job* b) { return a->id() < b->id(); });

  std::vector<std::pair<int, int>> bounds;
  bounds.reserve(jobs.size());
  for (const auto* j : jobs) {
    bounds.emplace_back(j->contract().min_procs,
                        std::min(j->contract().max_procs, ctx.total_procs()));
  }
  const auto alloc = equipartition(bounds, ctx.total_procs());

  std::vector<Allocation> out;
  out.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.push_back(Allocation{jobs[i]->id(), alloc[i]});
  }
  return out;
}

}  // namespace faucets::sched
