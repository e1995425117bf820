#include "src/cluster/gantt.hpp"

#include <gtest/gtest.h>

namespace faucets::cluster {
namespace {

TEST(Gantt, EmptyChartIsIdle) {
  GanttChart g{100};
  EXPECT_EQ(g.committed_at(0.0), 0);
  EXPECT_EQ(g.committed_at(1e9), 0);
  EXPECT_TRUE(g.empty());
}

TEST(Gantt, InvalidCapacityThrows) {
  EXPECT_THROW(GanttChart{0}, std::invalid_argument);
}

TEST(Gantt, SingleReservation) {
  GanttChart g{100};
  g.reserve(10.0, 20.0, 40);
  EXPECT_EQ(g.committed_at(5.0), 0);
  EXPECT_EQ(g.committed_at(10.0), 40);
  EXPECT_EQ(g.committed_at(19.999), 40);
  EXPECT_EQ(g.committed_at(20.0), 0);  // half-open interval
}

TEST(Gantt, OverlappingReservationsStack) {
  GanttChart g{100};
  g.reserve(0.0, 10.0, 30);
  g.reserve(5.0, 15.0, 50);
  EXPECT_EQ(g.committed_at(2.0), 30);
  EXPECT_EQ(g.committed_at(7.0), 80);
  EXPECT_EQ(g.committed_at(12.0), 50);
}

TEST(Gantt, AbuttingReservationsReadAsOneStretch) {
  // [0, 10) and [10, 20) at the same height meet at a step that no longer
  // changes the level, which reserve erases; the chart reads as [0, 20).
  GanttChart g{100};
  g.reserve(0.0, 10.0, 30);
  g.reserve(10.0, 20.0, 30);
  EXPECT_EQ(g.committed_at(9.999), 30);
  EXPECT_EQ(g.committed_at(10.0), 30);
  EXPECT_EQ(g.committed_at(20.0), 0);
  EXPECT_EQ(g.peak_committed(0.0, 20.0), 30);
  // 70 free processors over [0, 20) without a break at 10.
  EXPECT_DOUBLE_EQ(g.earliest_fit(0.0, 20.0, 70, 1e6), 0.0);
  EXPECT_DOUBLE_EQ(g.earliest_fit(0.0, 5.0, 71, 1e6), 20.0);
  // Degenerate reservations change nothing.
  GanttChart idle{100};
  idle.reserve(5.0, 5.0, 10);
  idle.reserve(5.0, 9.0, 0);
  EXPECT_TRUE(idle.empty());
}

TEST(Gantt, PeakCommitted) {
  GanttChart g{100};
  g.reserve(0.0, 10.0, 30);
  g.reserve(5.0, 15.0, 50);
  EXPECT_EQ(g.peak_committed(0.0, 20.0), 80);
  EXPECT_EQ(g.peak_committed(0.0, 5.0), 30);
  EXPECT_EQ(g.peak_committed(11.0, 20.0), 50);
  EXPECT_EQ(g.peak_committed(16.0, 20.0), 0);
}

TEST(Gantt, EarliestFitImmediateWhenIdle) {
  GanttChart g{100};
  EXPECT_DOUBLE_EQ(g.earliest_fit(0.0, 10.0, 50, 1e6), 0.0);
}

TEST(Gantt, EarliestFitWaitsForRelease) {
  GanttChart g{100};
  g.reserve(0.0, 50.0, 80);
  // 30 procs fit immediately; 40 must wait until t=50.
  EXPECT_DOUBLE_EQ(g.earliest_fit(0.0, 10.0, 20, 1e6), 0.0);
  EXPECT_DOUBLE_EQ(g.earliest_fit(0.0, 10.0, 40, 1e6), 50.0);
}

TEST(Gantt, EarliestFitSkipsTooSmallGaps) {
  GanttChart g{100};
  g.reserve(0.0, 10.0, 100);
  g.reserve(15.0, 30.0, 100);
  // A 10-s window for any procs cannot fit in the 5-s gap at t=10.
  EXPECT_DOUBLE_EQ(g.earliest_fit(0.0, 10.0, 1, 1e6), 30.0);
  // A 4-s window fits in the gap.
  EXPECT_DOUBLE_EQ(g.earliest_fit(0.0, 4.0, 1, 1e6), 10.0);
}

TEST(Gantt, EarliestFitHorizonMeansNever) {
  GanttChart g{10};
  g.reserve(0.0, 100.0, 10);
  EXPECT_DOUBLE_EQ(g.earliest_fit(0.0, 5.0, 1, 50.0), 50.0);
  // Larger than capacity can never fit.
  EXPECT_DOUBLE_EQ(g.earliest_fit(0.0, 5.0, 11, 1e6), 1e6);
}

}  // namespace
}  // namespace faucets::cluster
