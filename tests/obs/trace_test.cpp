// Typed trace events and the ring buffer, including the wraparound
// regression the ISSUE calls out: after eviction the buffer must keep
// oldest-first iteration over exactly the newest `capacity` events and
// report the overwritten count through dropped().
#include "src/obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace faucets::obs {
namespace {

TraceEvent numbered(int i) {
  return job_event(static_cast<double>(i), EntityId{7},
                   TraceEventKind::kJobStarted, ClusterId{1}, JobId{static_cast<std::uint64_t>(i)},
                   UserId{2}, i);
}

TEST(TraceEvent, IsCompactAndTriviallyCopyable) {
  static_assert(std::is_trivially_copyable_v<TraceEvent>);
  EXPECT_LE(sizeof(TraceEvent), 64u) << "one cache line per event";
}

TEST(TraceEvent, PayloadTaxonomyCoversEveryKind) {
  for (std::size_t k = 0; k < kTraceEventKindCount; ++k) {
    const auto kind = static_cast<TraceEventKind>(k);
    EXPECT_FALSE(to_string(kind).empty());
    // payload_of is total: every kind maps to one of the four payloads.
    const TracePayload p = payload_of(kind);
    EXPECT_TRUE(p == TracePayload::kJob || p == TracePayload::kMarket ||
                p == TracePayload::kNet || p == TracePayload::kAuth);
  }
}

TEST(TraceBuffer, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceBuffer{0}.capacity(), 1u);
  EXPECT_EQ(TraceBuffer{1}.capacity(), 1u);
  EXPECT_EQ(TraceBuffer{3}.capacity(), 4u);
  EXPECT_EQ(TraceBuffer{8}.capacity(), 8u);
  EXPECT_EQ(TraceBuffer{1000}.capacity(), 1024u);
}

TEST(TraceBuffer, RecordsInOrderBelowCapacity) {
  TraceBuffer buf{8};
  for (int i = 0; i < 5; ++i) buf.record(numbered(i));
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.dropped(), 0u);
  EXPECT_EQ(buf.total_recorded(), 5u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf.at(i).payload.job.job, JobId{i});
  }
}

TEST(TraceBuffer, WraparoundKeepsNewestAndIteratesOldestFirst) {
  // The regression case: 20 records into a capacity-8 ring. The 12 oldest
  // are evicted, dropped() says so, and iteration yields 12..19 in order.
  TraceBuffer buf{8};
  for (int i = 0; i < 20; ++i) buf.record(numbered(i));
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.capacity(), 8u);
  EXPECT_EQ(buf.dropped(), 12u);
  EXPECT_EQ(buf.total_recorded(), 20u);

  double last_time = -1.0;
  std::size_t visited = 0;
  buf.for_each([&](const TraceEvent& ev) {
    EXPECT_EQ(ev.payload.job.job, JobId{12 + visited})
        << "only the newest capacity events survive";
    EXPECT_GT(ev.time, last_time) << "iteration must stay oldest-first";
    last_time = ev.time;
    ++visited;
  });
  EXPECT_EQ(visited, 8u);
}

TEST(TraceBuffer, WraparoundAtExactCapacityBoundary) {
  TraceBuffer buf{4};
  for (int i = 0; i < 4; ++i) buf.record(numbered(i));
  EXPECT_EQ(buf.dropped(), 0u);  // exactly full is not yet an eviction
  buf.record(numbered(4));
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 1u);
  EXPECT_EQ(buf.at(0).payload.job.job, JobId{1});
  EXPECT_EQ(buf.at(3).payload.job.job, JobId{4});
}

TEST(DropReason, HasStableNames) {
  EXPECT_EQ(to_string(DropReason::kSenderDetached), "sender_detached");
  EXPECT_EQ(to_string(DropReason::kReceiverDetached), "receiver_detached");
}

}  // namespace
}  // namespace faucets::obs
