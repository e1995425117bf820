// Randomized property tests for the Gantt chart: the admission-control
// inner loop must never report a window that does not actually fit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "src/cluster/gantt.hpp"
#include "src/util/rng.hpp"

namespace faucets::cluster {
namespace {

struct Reservation {
  double start;
  double end;
  int procs;
};

class GanttProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GanttProperties, EarliestFitResultsActuallyFit) {
  Rng rng{GetParam()};
  GanttChart gantt{512};
  for (int i = 0; i < 200; ++i) {
    const double start = rng.uniform(0.0, 1e4);
    gantt.reserve(start, start + rng.uniform(1.0, 2000.0),
                  static_cast<int>(rng.uniform_int(1, 400)));
  }
  for (int q = 0; q < 200; ++q) {
    const double after = rng.uniform(0.0, 1e4);
    const double duration = rng.uniform(1.0, 3000.0);
    const int procs = static_cast<int>(rng.uniform_int(1, 512));
    const double horizon = 1e6;
    const double start = gantt.earliest_fit(after, duration, procs, horizon);
    ASSERT_GE(start, after);
    if (start < horizon) {
      EXPECT_LE(gantt.peak_committed(start, start + duration) + procs, 512)
          << "seed " << GetParam() << " query " << q;
    }
  }
}

TEST_P(GanttProperties, EarliestFitMatchesBruteForceReference) {
  Rng rng{GetParam() * 977 + 11};
  GanttChart gantt{128};
  for (int i = 0; i < 60; ++i) {
    const double start = rng.uniform(0.0, 1e3);
    gantt.reserve(start, start + rng.uniform(1.0, 300.0),
                  static_cast<int>(rng.uniform_int(1, 100)));
  }
  // Reference: test `after` plus every event boundary with peak_committed.
  auto reference = [&](double after, double duration, int procs,
                       double horizon) {
    auto fits = [&](double start) {
      return gantt.peak_committed(start, start + duration) + procs <= 128;
    };
    if (procs > 128) return horizon;
    if (fits(after)) return after;
    // Probe a fine time grid (slow but trustworthy).
    for (double t = after; t < horizon; t += 0.5) {
      if (fits(t)) return t;
    }
    return horizon;
  };
  for (int q = 0; q < 60; ++q) {
    const double after = rng.uniform(0.0, 1e3);
    const double duration = rng.uniform(0.0, 400.0);
    const int procs = static_cast<int>(rng.uniform_int(1, 128));
    const double horizon = 5e3;
    const double fast = gantt.earliest_fit(after, duration, procs, horizon);
    const double slow = reference(after, duration, procs, horizon);
    // The grid reference can only be later than the true optimum by its
    // step; the sweep must never be later than the reference.
    EXPECT_LE(fast, slow + 1e-9) << "seed " << GetParam() << " q " << q;
    if (fast < horizon) {
      EXPECT_LE(gantt.peak_committed(fast, fast + duration) + procs, 128);
    }
  }
}

// Independent reference for the step profile: a delta map (time -> change
// in committed procs, zero changes erased) swept linearly on every query.
struct BruteForceChart {
  int capacity = 0;
  std::map<double, int> deltas;

  void reserve(double start, double end, int procs) {
    deltas[start] += procs;
    deltas[end] -= procs;
    prune(start);
    prune(end);
  }
  void prune(double key) {
    auto it = deltas.find(key);
    if (it != deltas.end() && it->second == 0) deltas.erase(it);
  }
  [[nodiscard]] int committed_at(double t) const {
    int level = 0;
    for (const auto& [time, d] : deltas) {
      if (time > t) break;
      level += d;
    }
    return level;
  }
  [[nodiscard]] int peak_committed(double from, double to) const {
    int level = committed_at(from);
    int peak = level;
    for (const auto& [time, d] : deltas) {
      if (time <= from) continue;
      if (time >= to) break;
      level += d;
      peak = std::max(peak, level);
    }
    return peak;
  }
  [[nodiscard]] double earliest_fit(double after, double duration, int procs,
                                    double horizon) const {
    if (procs > capacity) return horizon;
    if (duration < 0.0) duration = 0.0;
    const int limit = capacity - procs;
    double candidate = after;
    int level = 0;
    for (const auto& [time, d] : deltas) {
      if (time > candidate) {
        if (level > limit) {
          candidate = time;
          if (candidate >= horizon) return horizon;
        } else if (candidate + duration <= time) {
          return candidate;
        }
      }
      level += d;
    }
    if (level > limit) return horizon;
    return candidate < horizon ? candidate : horizon;
  }
};

TEST_P(GanttProperties, IncrementalMatchesBruteForceUnderMixedMutation) {
  // The step vector must be indistinguishable from a from-scratch sweep of
  // the delta map no matter how reservations and queries interleave —
  // splitting and erasing steps is exactly its failure surface. Now and
  // then both start over empty.
  Rng rng{GetParam() * 8191 + 17};
  GanttChart gantt{256};
  BruteForceChart ref{256, {}};
  std::vector<Reservation> live;

  for (int step = 0; step < 400; ++step) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.05) {
      gantt = GanttChart{256};
      ref = BruteForceChart{256, {}};
      live.clear();
    } else if (roll < 0.45 || live.empty()) {
      // Whole-second bounds make reservations abut and share boundaries.
      // Half start where a live one ends, at its height half the time: the
      // step between them then no longer changes the level, and reserve
      // erases it.
      Reservation r{std::floor(rng.uniform(0.0, 5e3)), 0.0,
                    static_cast<int>(rng.uniform_int(1, 150))};
      if (!live.empty() && rng.bernoulli(0.5)) {
        const Reservation& prev = live[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
        r.start = prev.end;
        if (rng.bernoulli(0.5)) r.procs = prev.procs;
      }
      r.end = r.start + (rng.bernoulli(0.5) ? std::floor(rng.uniform(1.0, 800.0))
                                            : rng.uniform(1.0, 800.0));
      gantt.reserve(r.start, r.end, r.procs);
      ref.reserve(r.start, r.end, r.procs);
      live.push_back(r);
    } else {
      const double from = rng.bernoulli(0.3) ? live.front().start : rng.uniform(0.0, 6e3);
      const double to = from + rng.uniform(1.0, 2e3);
      ASSERT_EQ(gantt.committed_at(from), ref.committed_at(from))
          << "seed " << GetParam() << " step " << step;
      ASSERT_EQ(gantt.peak_committed(from, to), ref.peak_committed(from, to))
          << "seed " << GetParam() << " step " << step;
      const int procs = static_cast<int>(rng.uniform_int(1, 256));
      ASSERT_EQ(gantt.earliest_fit(from, to - from, procs, 1e6),
                ref.earliest_fit(from, to - from, procs, 1e6))
          << "seed " << GetParam() << " step " << step;
    }
  }
  EXPECT_EQ(gantt.empty(), ref.deltas.empty());
}

TEST_P(GanttProperties, CommitmentsPatternMatchesDeltaMapExactly) {
  // The call pattern of PayoffStrategy::commitments: running jobs reserve
  // from one `now` to their projected finish, then queued jobs are placed
  // greedily at their earliest fit, then admission asks for a window and
  // the peak inside it. Every answer must equal the delta-map sweep's, not
  // merely fit: a window shifted to another feasible start would change
  // which jobs a cluster admits.
  Rng rng{GetParam() * 4099 + 5};
  constexpr int kCapacity = 512;
  for (int round = 0; round < 20; ++round) {
    GanttChart gantt{kCapacity};
    BruteForceChart ref{kCapacity, {}};
    const double now = rng.uniform(0.0, 1e5);
    const double horizon = now + 24.0 * 3600.0 + rng.uniform(0.0, 5e3);
    const auto running = rng.uniform_int(0, 60);
    for (std::int64_t i = 0; i < running; ++i) {
      // Some running jobs share a finish time, as jobs started together do.
      const double finish =
          now + (rng.bernoulli(0.3) ? 600.0 : rng.uniform(1.0, 2e4));
      const int procs = static_cast<int>(rng.uniform_int(1, 64));
      gantt.reserve(now, finish, procs);
      ref.reserve(now, finish, procs);
    }
    const auto queued = rng.uniform_int(0, 200);
    for (std::int64_t i = 0; i < queued; ++i) {
      const int procs = static_cast<int>(rng.uniform_int(1, kCapacity));
      const double runtime =
          rng.bernoulli(0.3) ? 600.0 : rng.uniform(1.0, 3e4);
      const double start = gantt.earliest_fit(now, runtime, procs, horizon);
      ASSERT_EQ(start, ref.earliest_fit(now, runtime, procs, horizon))
          << "seed " << GetParam() << " round " << round << " job " << i;
      if (start < horizon) {
        gantt.reserve(start, start + runtime, procs);
        ref.reserve(start, start + runtime, procs);
      }
    }
    for (int q = 0; q < 20; ++q) {
      const int procs = static_cast<int>(rng.uniform_int(1, kCapacity));
      const double runtime = rng.uniform(1.0, 3e4);
      const double start = gantt.earliest_fit(now, runtime, procs, horizon);
      ASSERT_EQ(start, ref.earliest_fit(now, runtime, procs, horizon))
          << "seed " << GetParam() << " round " << round << " query " << q;
      ASSERT_EQ(gantt.peak_committed(start, start + runtime),
                ref.peak_committed(start, start + runtime))
          << "seed " << GetParam() << " round " << round << " query " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GanttProperties,
                         ::testing::Values<std::uint64_t>(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace faucets::cluster
