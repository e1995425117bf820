// Processor-time Gantt chart.
//
// §4.1: "The strategy must find time windows for the job in its
// processor-time Gantt chart before the job's deadline." This profile
// tracks committed processors over future time. Its one user is the payoff
// scheduler, which builds a chart of its running and queued jobs for
// admission (earliest_fit, peak_committed). Bid generators do not query it:
// they read ClusterManager::projected_utilization.
//
// Mutations (reserve/release/compact) edit a delta map; queries run against
// a memoized step profile with prefix integrals, rebuilt lazily after a
// mutation, so queries are O(log n) between mutations instead of a linear
// rescan each time.
#pragma once

#include <cstddef>
#include <map>
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

  /// Time-weighted average commitment over [from, to).
  [[nodiscard]] double average_committed(double from, double to) const;

  /// Earliest start >= `after` such that `procs` extra processors are free
  /// for the whole window [start, start + duration). Searches event
  /// boundaries up to `horizon`; returns `horizon` if none fits (callers
  /// treat that as "cannot schedule").
  [[nodiscard]] double earliest_fit(double after, double duration, int procs,
                                    double horizon) const;

  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return deltas_.empty(); }

  /// Drop events at or before `t` (they can no longer affect queries),
  /// folding them into the baseline. Keeps long simulations O(live events).
  void compact(double t);

 private:
  /// One step of the memoized commitment profile. `level` is the commitment
  /// from `time` until the next point; `area` is the integral of the level
  /// from the first point's time up to `time`.
  struct ProfilePoint {
    double time;
    int level;
    double area;
  };

  void invalidate() noexcept { profile_valid_ = false; }
  void rebuild_profile() const;
  [[nodiscard]] const std::vector<ProfilePoint>& profile() const {
    if (!profile_valid_) rebuild_profile();
    return profile_;
  }
  /// Index of the last profile point with time <= t, or -1 if t precedes
  /// every point.
  [[nodiscard]] std::ptrdiff_t floor_index(double t) const;

  int capacity_;
  int baseline_ = 0;              // commitment carried from compacted past
  std::map<double, int> deltas_;  // time -> change in committed procs
  mutable std::vector<ProfilePoint> profile_;  // memoized; rebuilt on demand
  mutable bool profile_valid_ = false;
};

}  // namespace faucets::cluster
