// SpanTracker: parent links, identity inheritance, bind_job back-fill,
// for_job queries, chain walking, and the bid records that share the span
// ids.
#include "src/obs/spans.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <vector>

namespace faucets::obs {
namespace {

TEST(Span, OpenInstantAndClosed) {
  SpanTracker t;
  const SpanId a = t.start_span(SpanKind::kSubmission, 1.0);
  EXPECT_TRUE(t.find(a)->open());
  const SpanId b = t.instant_span(SpanKind::kReconfig, 2.0, a, 0.75);
  EXPECT_FALSE(t.find(b)->open());
  EXPECT_TRUE(t.find(b)->instant());
  EXPECT_DOUBLE_EQ(t.find(b)->value, 0.75);
  t.end_span(a, 5.0);
  EXPECT_FALSE(t.find(a)->open());
  EXPECT_DOUBLE_EQ(t.find(a)->end, 5.0);
  // Ending again must not move the end time.
  t.end_span(a, 9.0);
  EXPECT_DOUBLE_EQ(t.find(a)->end, 5.0);
}

TEST(Span, EndAndFindTolerateInvalidIds) {
  SpanTracker t;
  t.end_span(SpanId{}, 1.0);       // no-op
  t.set_value(SpanId{42}, 3.0);    // out of range: no-op
  EXPECT_EQ(t.find(SpanId{}), nullptr);
  EXPECT_EQ(t.find(SpanId{99}), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(Span, ChildrenInheritIdentityFromParent) {
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0);
  t.set_user(root, UserId{7});
  t.bind_job(root, ClusterId{3}, JobId{11});
  const SpanId child = t.start_span(SpanKind::kQueue, 1.0, root);
  EXPECT_EQ(t.find(child)->cluster, ClusterId{3});
  EXPECT_EQ(t.find(child)->job, JobId{11});
  EXPECT_EQ(t.find(child)->user, UserId{7});
}

TEST(Span, BindJobBackFillsAncestors) {
  // The client opens submission/rfb/award before any cluster is known; when
  // the CM binds the queue span, the whole ancestor chain becomes queryable
  // by (cluster, job).
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0);
  const SpanId rfb = t.start_span(SpanKind::kRfb, 1.0, root);
  const SpanId award = t.start_span(SpanKind::kAward, 2.0, rfb);
  const SpanId queue = t.start_span(SpanKind::kQueue, 3.0, award);
  t.bind_job(queue, ClusterId{0}, JobId{5});

  for (SpanId id : {root, rfb, award, queue}) {
    EXPECT_EQ(t.find(id)->cluster, ClusterId{0});
    EXPECT_EQ(t.find(id)->job, JobId{5});
  }

  const auto tree = t.for_job(ClusterId{0}, JobId{5});
  ASSERT_EQ(tree.size(), 4u);
  EXPECT_EQ(tree.front().kind, SpanKind::kSubmission) << "root first";
  // Ordered by start time.
  for (std::size_t i = 1; i < tree.size(); ++i) {
    EXPECT_LE(tree[i - 1].start, tree[i].start);
  }
}

TEST(Span, ForJobIncludesDescendantsBoundLater) {
  SpanTracker t;
  const SpanId queue = t.start_span(SpanKind::kQueue, 0.0);
  t.bind_job(queue, ClusterId{1}, JobId{0});
  const SpanId run = t.start_span(SpanKind::kRun, 1.0, queue);
  const SpanId reconfig = t.instant_span(SpanKind::kReconfig, 2.0, run, 16.0);
  const auto tree = t.for_job(ClusterId{1}, JobId{0});
  ASSERT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree[1].id, run);
  EXPECT_EQ(tree[2].id, reconfig);
}

TEST(Span, ForJobUnknownJobIsEmpty) {
  SpanTracker t;
  t.start_span(SpanKind::kSubmission, 0.0);
  EXPECT_TRUE(t.for_job(ClusterId{9}, JobId{9}).empty());
  // The unbound root carries the invalid identity; it is still no job's.
  EXPECT_TRUE(t.for_job(ClusterId{}, JobId{}).empty());
}

TEST(Span, ChainOfWalksRootFirst) {
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0);
  const SpanId rfb = t.start_span(SpanKind::kRfb, 1.0, root);
  const SpanId award = t.start_span(SpanKind::kAward, 2.0, rfb);
  const auto chain = t.chain_of(award);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0]->id, root);
  EXPECT_EQ(chain[1]->id, rfb);
  EXPECT_EQ(chain[2]->id, award);
}

TEST(Span, BidsRecordUnderTheirRound) {
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0);
  const SpanId rfb = t.start_span(SpanKind::kRfb, 1.0, root);
  t.record_bid(rfb, 2.0, 0.5);
  t.record_bid(rfb, 2.5, 0.6);
  EXPECT_EQ(t.find(root)->bids, 0u);
  EXPECT_EQ(t.find(rfb)->bids, 2u);
  ASSERT_EQ(t.bids().size(), 2u);
  for (const BidRecord& b : t.bids()) EXPECT_EQ(t.spans()[b.rfb].id, rfb);
  EXPECT_DOUBLE_EQ(t.bids()[1].time, 2.5);
  EXPECT_DOUBLE_EQ(t.bids()[1].price, 0.6);
}

TEST(Span, IdsStayDenseAcrossSpansAndBids) {
  SpanTracker t;
  const SpanId a = t.start_span(SpanKind::kSubmission, 0.0);
  const SpanId b = t.start_span(SpanKind::kSubmission, 0.0);
  const SpanId rfb_a = t.start_span(SpanKind::kRfb, 1.0, a);
  const SpanId rfb_b = t.start_span(SpanKind::kRfb, 1.0, b);
  const SpanId bid1 = t.record_bid(rfb_a, 2.0, 0.5);
  const SpanId bid2 = t.record_bid(rfb_b, 2.0, 0.7);
  const SpanId award = t.start_span(SpanKind::kAward, 3.0, rfb_a);
  const SpanId bid3 = t.record_bid(rfb_b, 3.5, 0.0);
  const SpanId done = t.instant_span(SpanKind::kUnplaced, 4.0, b);

  const SpanId in_order[] = {a, b, rfb_a, rfb_b, bid1, bid2, award, bid3, done};
  for (std::size_t i = 0; i < std::size(in_order); ++i) {
    EXPECT_EQ(in_order[i], SpanId{i});
  }
  EXPECT_EQ(t.size(), t.spans().size() + t.bids().size());
  EXPECT_EQ(t.size(), 9u);
  EXPECT_EQ(t.find(rfb_a)->bids, 1u);
  EXPECT_EQ(t.find(rfb_b)->bids, 2u);
  // A bid's id resolves to no span; the spans around it still resolve.
  for (const SpanId bid : {bid1, bid2, bid3}) EXPECT_EQ(t.find(bid), nullptr);
  EXPECT_EQ(t.find(award)->kind, SpanKind::kAward);
  EXPECT_EQ(t.find(done)->kind, SpanKind::kUnplaced);
  // Bids take no part in the span-balance counts.
  EXPECT_EQ(t.open_spans(), 5u);

  // for_each visits every id in order, a bid as its instant kBid span.
  std::vector<SpanId> seen;
  t.for_each([&](const Span& s) {
    seen.push_back(s.id);
    if (s.kind != SpanKind::kBid) return;
    EXPECT_TRUE(s.instant());
    EXPECT_TRUE(s.parent == rfb_a || s.parent == rfb_b);
  });
  EXPECT_EQ(seen, std::vector<SpanId>(std::begin(in_order), std::end(in_order)));
}

TEST(Span, OnlyRecordBidRecordsABid) {
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0);
  EXPECT_THROW((void)t.instant_span(SpanKind::kBid, 1.0, root, 0.5),
               std::invalid_argument);
  EXPECT_THROW((void)t.record_bid(root, 1.0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)t.record_bid(SpanId{}, 1.0, 0.5), std::invalid_argument);
  EXPECT_EQ(t.size(), 1u) << "a refused bid takes no id";
}

TEST(Span, ForJobKeepsTheBidsOfARebidRound) {
  // A first round's bids arrive before any placement and belong to none. A
  // re-bid round after an eviction inherits the first placement's identity
  // when it starts, so its bids appear in that placement's timeline.
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0);
  const SpanId rfb1 = t.start_span(SpanKind::kRfb, 1.0, root);
  const SpanId early = t.record_bid(rfb1, 1.5, 0.5);
  t.end_span(rfb1, 2.0);
  const SpanId award = t.start_span(SpanKind::kAward, 2.0, rfb1);
  const SpanId queue = t.start_span(SpanKind::kQueue, 3.0, award);
  t.bind_job(queue, ClusterId{1}, JobId{3});
  const SpanId evicted = t.instant_span(SpanKind::kEvicted, 4.0, queue);
  const SpanId rfb2 = t.start_span(SpanKind::kRfb, 5.0, root);
  const SpanId late = t.record_bid(rfb2, 5.5, 0.9);

  const auto rows = t.for_job(ClusterId{1}, JobId{3});
  std::vector<SpanId> ids;
  for (const TimelineRow& row : rows) ids.push_back(row.id);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), early), 0);
  ASSERT_EQ(std::count(ids.begin(), ids.end(), late), 1);
  EXPECT_EQ(ids.back(), late) << "start-ordered, the re-bid round's bid last";
  EXPECT_EQ(rows.back().kind, SpanKind::kBid);
  EXPECT_DOUBLE_EQ(rows.back().value, 0.9);
  EXPECT_EQ(ids, (std::vector<SpanId>{root, rfb1, award, queue, evicted, rfb2, late}));
}

TEST(Span, RebindAfterMigrationIndexesBothPlacements) {
  // An evicted job resubmits and lands elsewhere: the same causal tree is
  // reachable under both (cluster, job) keys.
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0);
  const SpanId q1 = t.start_span(SpanKind::kQueue, 1.0, root);
  t.bind_job(q1, ClusterId{0}, JobId{3});
  t.instant_span(SpanKind::kEvicted, 2.0, q1);
  const SpanId q2 = t.start_span(SpanKind::kQueue, 3.0, root);
  t.bind_job(q2, ClusterId{1}, JobId{0});

  EXPECT_FALSE(t.for_job(ClusterId{0}, JobId{3}).empty());
  const auto second = t.for_job(ClusterId{1}, JobId{0});
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(second.front().kind, SpanKind::kSubmission);
}

}  // namespace
}  // namespace faucets::obs
