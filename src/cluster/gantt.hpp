// Processor-time Gantt chart.
//
// §4.1: "The strategy must find time windows for the job in its
// processor-time Gantt chart before the job's deadline." This profile
// tracks committed processors over future time. Its one user is the payoff
// scheduler, which builds a chart of its running and queued jobs for
// admission (earliest_fit, peak_committed). Bid generators do not query it:
// they read ClusterManager::projected_utilization.
//
// The chart is one sorted vector of steps: each step's level holds from its
// time until the next step's, and the level is 0 before the first. A
// reserve/release splits at most two steps and adds to the levels between
// them; a step that no longer changes the level is erased. Queries scan the
// vector directly, so there is nothing to rebuild between a mutation and a
// query.
#pragma once

#include <cstddef>
#include <vector>

namespace faucets::cluster {

class GanttChart {
 public:
  explicit GanttChart(int capacity);

  /// Commit `procs` processors over [start, end).
  void reserve(double start, double end, int procs);

  /// Undo a prior reserve with identical arguments.
  void release(double start, double end, int procs);

  /// Processors committed at time t.
  [[nodiscard]] int committed_at(double t) const;

  /// Peak commitment over [from, to).
  [[nodiscard]] int peak_committed(double from, double to) const;

  /// Earliest start >= `after` such that `procs` extra processors are free
  /// for the whole window [start, start + duration). Searches event
  /// boundaries up to `horizon`; returns `horizon` if none fits (callers
  /// treat that as "cannot schedule").
  [[nodiscard]] double earliest_fit(double after, double duration, int procs,
                                    double horizon) const;

  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return steps_.empty(); }

 private:
  /// The commitment is `level` from `time` until the next step.
  struct Step {
    double time;
    int level;
  };

  /// Add `delta` processors over [start, end) (start < end).
  void add(double start, double end, int delta);
  /// Index of the first step with time > t.
  [[nodiscard]] std::size_t upper_index(double t) const;

  int capacity_;
  std::vector<Step> steps_;  // strictly increasing times; adjacent levels differ
};

}  // namespace faucets::cluster
