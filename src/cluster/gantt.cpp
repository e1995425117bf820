#include "src/cluster/gantt.hpp"

#include <algorithm>
#include <stdexcept>

namespace faucets::cluster {

GanttChart::GanttChart(int capacity) : capacity_(capacity) {
  if (capacity <= 0) throw std::invalid_argument("GanttChart capacity must be > 0");
}

void GanttChart::reserve(double start, double end, int procs) {
  if (end <= start || procs <= 0) return;
  add(start, end, procs);
}

void GanttChart::release(double start, double end, int procs) {
  if (end <= start || procs <= 0) return;
  add(start, end, -procs);
}

void GanttChart::add(double start, double end, int delta) {
  // Split at both ends, so [start, end) is a run of whole steps. A new step
  // copies the level it splits.
  const auto split = [this](double t, std::size_t from) {
    auto it = std::lower_bound(steps_.begin() + static_cast<std::ptrdiff_t>(from),
                               steps_.end(), t,
                               [](const Step& s, double value) { return s.time < value; });
    if (it == steps_.end() || it->time != t) {
      const int level = it == steps_.begin() ? 0 : std::prev(it)->level;
      it = steps_.insert(it, Step{t, level});
    }
    return static_cast<std::size_t>(it - steps_.begin());
  };
  const std::size_t first = split(start, 0);
  const std::size_t last = split(end, first + 1);
  for (std::size_t i = first; i < last; ++i) steps_[i].level += delta;
  // Only the two split steps can end up at their predecessor's level, where
  // this interval cancels an edge of another; such a step marks no change,
  // so drop it. Erasing the later one first keeps `first` valid.
  const auto flat = [this](std::size_t i) {
    return steps_[i].level == (i == 0 ? 0 : steps_[i - 1].level);
  };
  if (flat(last)) steps_.erase(steps_.begin() + static_cast<std::ptrdiff_t>(last));
  if (flat(first)) steps_.erase(steps_.begin() + static_cast<std::ptrdiff_t>(first));
}

std::size_t GanttChart::upper_index(double t) const {
  const auto it = std::upper_bound(
      steps_.begin(), steps_.end(), t,
      [](double value, const Step& s) { return value < s.time; });
  return static_cast<std::size_t>(it - steps_.begin());
}

int GanttChart::committed_at(double t) const {
  const std::size_t i = upper_index(t);
  return i == 0 ? 0 : steps_[i - 1].level;
}

int GanttChart::peak_committed(double from, double to) const {
  std::size_t i = upper_index(from);
  int peak = i == 0 ? 0 : steps_[i - 1].level;
  // Steps strictly inside (from, to) raise the level.
  for (; i < steps_.size() && steps_[i].time < to; ++i) {
    peak = std::max(peak, steps_[i].level);
  }
  return peak;
}

double GanttChart::earliest_fit(double after, double duration, int procs,
                                double horizon) const {
  if (procs > capacity_) return horizon;
  if (duration < 0.0) duration = 0.0;

  // Single sweep from the step in force at `after`. `candidate` is the
  // earliest possible start given everything seen so far; a step whose
  // level exceeds the limit pushes it to the step's end; once a feasible
  // stretch of at least `duration` follows `candidate`, it wins.
  const int limit = capacity_ - procs;
  double candidate = after;
  std::size_t j = upper_index(after);
  int level = j == 0 ? 0 : steps_[j - 1].level;
  for (; j < steps_.size(); ++j) {
    const Step& s = steps_[j];
    if (s.time > candidate) {
      if (level > limit) {
        candidate = s.time;  // blocked until this boundary
        if (candidate >= horizon) return horizon;
      } else if (candidate + duration <= s.time) {
        return candidate;  // whole window fits before the next change
      }
    }
    level = s.level;
  }
  // Tail: the last level holds forever.
  if (level > limit) return horizon;
  return candidate < horizon ? candidate : horizon;
}

}  // namespace faucets::cluster
