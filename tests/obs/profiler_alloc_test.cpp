// Zero-allocation guarantee for the profiler hot path (DESIGN.md §12):
// every per-event record lands in fixed POD arrays sized at Profiler
// construction, so nothing between begin_run() and end_run() may touch the
// global heap. Same counting-allocator technique as the trace test;
// separate binary so the replaced operators cannot perturb other suites.
#include <gtest/gtest.h>

#include <cstddef>

#include "src/obs/profiler.hpp"
#include "tests/support/alloc_counter.hpp"

namespace faucets::obs {
namespace {

using test::allocations;

TEST(ProfilerAlloc, EventRecordPathIsAllocationFree) {
  Profiler prof;  // all arrays sized here
  ProfilerLane& lane = prof.lane(0);
  const auto before = allocations();
  for (int i = 0; i < 10'000; ++i) {
    lane.begin_event();
    lane.set_event_tag(static_cast<std::size_t>(i) % ProfilerLane::kKindSlots,
                       static_cast<std::size_t>(i) % kProfClassCount);
    lane.end_event();
  }
  EXPECT_EQ(allocations(), before)
      << "begin/tag/end_event must never allocate";
  EXPECT_EQ(lane.events(), 10'000u);
}

TEST(ProfilerAlloc, RunBracketAndTotalsDoNotAllocate) {
  Profiler prof;
  const auto before_run = allocations();
  prof.begin_run();
  prof.end_run();
  EXPECT_EQ(allocations(), before_run) << "run bracketing must never allocate";
  const auto before = allocations();
  const double sum =
      prof.wall_seconds() + static_cast<double>(prof.events_total());
  EXPECT_EQ(allocations(), before);
  EXPECT_GE(sum, 0.0);
}

}  // namespace
}  // namespace faucets::obs
