// Zero-allocation guarantee for the trace hot path: TraceBuffer::record()
// writes a trivially-copyable event into a preallocated ring, so recording
// must never touch the global heap — including when the ring wraps. Same
// counting-allocator technique as the engine's test; separate binary so the
// replaced operators cannot perturb other suites.
#include <gtest/gtest.h>

#include <cstddef>

#include "src/obs/trace.hpp"
#include "tests/support/alloc_counter.hpp"

namespace faucets::obs {
namespace {

using test::allocations;

TEST(TraceAlloc, RecordIsAllocationFree) {
  TraceBuffer buf{1024};  // the one allocation happens here
  const auto before = allocations();
  for (int i = 0; i < 10'000; ++i) {
    buf.record(job_event(static_cast<double>(i), EntityId{1},
                         TraceEventKind::kJobStarted, ClusterId{0},
                         JobId{static_cast<std::uint64_t>(i)}, UserId{3}, 8));
  }
  EXPECT_EQ(allocations(), before)
      << "record() must not allocate, even across ring wraparound";
  EXPECT_EQ(buf.size(), 1024u);
  EXPECT_EQ(buf.dropped(), 10'000u - 1024u);
}

TEST(TraceAlloc, AllPayloadKindsAreAllocationFree) {
  TraceBuffer buf{16};
  const auto before = allocations();
  buf.record(job_event(1.0, EntityId{1}, TraceEventKind::kJobCompleted,
                       ClusterId{0}, JobId{0}, UserId{0}, 4));
  buf.record(market_event(2.0, EntityId{2}, TraceEventKind::kBidIssued,
                          RequestId{1}, BidId{2}, 0.5));
  buf.record(net_event(3.0, EntityId{3}, EntityId{4}, 7,
                       DropReason::kReceiverDetached));
  buf.record(auth_event(4.0, EntityId{5}, TraceEventKind::kAuthOk, UserId{6},
                        RequestId{7}));
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(buf.size(), 4u);
}

TEST(TraceAlloc, QueriesReadWithoutWriting) {
  // Reading through at()/for_each must not allocate either — only the
  // vector-returning conveniences (filter, for_job) may.
  TraceBuffer buf{64};
  for (int i = 0; i < 100; ++i) {
    buf.record(market_event(static_cast<double>(i), EntityId{1},
                            TraceEventKind::kAwardConfirmed,
                            RequestId{static_cast<std::uint64_t>(i)}, BidId{0},
                            1.0));
  }
  const auto before = allocations();
  double sum = 0.0;
  buf.for_each([&](const TraceEvent& ev) { sum += ev.time; });
  for (std::size_t i = 0; i < buf.size(); ++i) sum += buf.at(i).payload.market.price;
  EXPECT_EQ(allocations(), before);
  EXPECT_GT(sum, 0.0);
}

}  // namespace
}  // namespace faucets::obs
