// Zero-allocation guarantee for streaming trace replay: once the reorder
// window and line buffer are warm, SwfStreamSource::peek/next must not
// touch the global heap — a month-long trace streams through a fixed
// footprint. A global counting operator new/delete pair makes any
// regression an immediate test failure.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "src/job/swf.hpp"
#include "tests/support/alloc_counter.hpp"

namespace faucets::job {
namespace {

using test::allocations;

std::string make_trace(std::size_t jobs) {
  std::string out = "; generated trace\n";
  for (std::size_t i = 0; i < jobs; ++i) {
    out += std::to_string(i + 1) + " " + std::to_string(i * 15) +
           " 0 600 16 -1 -1 16 900 -1 1 " + std::to_string(1 + i % 5) +
           " 1 1 1 1 -1 -1\n";
  }
  return out;
}

TEST(SwfAlloc, WarmStreamingNextIsAllocationFree) {
  const std::string trace = make_trace(2000);
  std::istringstream in{trace};

  SwfOptions options;
  options.user_multiplier = 2;   // exercise the clone + jitter path
  options.clone_jitter = 30.0;   // spans a couple of 15 s arrival gaps
  SwfStreamSource source{in, options};

  // Warm up: fill the line buffer, fault in the reorder window's reserved
  // slots, and let the stream library settle.
  for (int i = 0; i < 200 && !source.exhausted(); ++i) {
    (void)source.next();
  }
  ASSERT_FALSE(source.exhausted());

  const auto before = allocations();
  std::size_t pulled = 0;
  while (!source.exhausted()) {
    const double peeked = source.peek_next_submit_time();
    const JobRequest req = source.next();
    ASSERT_GE(req.submit_time, 0.0);
    ASSERT_DOUBLE_EQ(req.submit_time, peeked);
    ++pulled;
  }
  EXPECT_EQ(allocations(), before)
      << "steady-state SwfStreamSource::next() must not allocate";
  EXPECT_EQ(pulled, 2u * 2000u - 200u);
  EXPECT_LE(source.window_high_water(), options.read_ahead);
}

TEST(SwfAlloc, DeadlineShapingStaysAllocationFree) {
  const std::string trace = make_trace(500);
  std::istringstream in{trace};

  SwfOptions options;
  options.shaping.malleability = 1.0;
  options.shaping.deadline_fraction = 1.0;
  SwfStreamSource source{in, options};

  for (int i = 0; i < 50 && !source.exhausted(); ++i) {
    (void)source.next();
  }
  ASSERT_FALSE(source.exhausted());

  const auto before = allocations();
  std::size_t with_deadline = 0;
  while (!source.exhausted()) {
    const JobRequest req = source.next();
    if (req.contract.payoff.has_deadline()) ++with_deadline;
  }
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(with_deadline, 450u);
}

}  // namespace
}  // namespace faucets::job
