// SpanTracker: parent links, identity inheritance, bind_job back-fill,
// for_job queries, and chain walking.
#include "src/obs/spans.hpp"

#include <gtest/gtest.h>

namespace faucets::obs {
namespace {

TEST(Span, OpenInstantAndClosed) {
  SpanTracker t;
  const SpanId a = t.start_span(SpanKind::kSubmission, 1.0, EntityId{1});
  EXPECT_TRUE(t.find(a)->open());
  const SpanId b = t.instant_span(SpanKind::kBid, 2.0, EntityId{1}, a, 0.75);
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
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0, EntityId{1});
  t.set_user(root, UserId{7});
  t.bind_job(root, ClusterId{3}, JobId{11});
  const SpanId child = t.start_span(SpanKind::kQueue, 1.0, EntityId{2}, root);
  EXPECT_EQ(t.find(child)->cluster, ClusterId{3});
  EXPECT_EQ(t.find(child)->job, JobId{11});
  EXPECT_EQ(t.find(child)->user, UserId{7});
}

TEST(Span, BindJobBackFillsAncestors) {
  // The client opens submission/rfb/award before any cluster is known; when
  // the CM binds the queue span, the whole ancestor chain becomes queryable
  // by (cluster, job).
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0, EntityId{1});
  const SpanId rfb = t.start_span(SpanKind::kRfb, 1.0, EntityId{1}, root);
  const SpanId award = t.start_span(SpanKind::kAward, 2.0, EntityId{1}, rfb);
  const SpanId queue = t.start_span(SpanKind::kQueue, 3.0, EntityId{2}, award);
  t.bind_job(queue, ClusterId{0}, JobId{5});

  for (SpanId id : {root, rfb, award, queue}) {
    EXPECT_EQ(t.find(id)->cluster, ClusterId{0});
    EXPECT_EQ(t.find(id)->job, JobId{5});
  }

  const auto tree = t.for_job(ClusterId{0}, JobId{5});
  ASSERT_EQ(tree.size(), 4u);
  EXPECT_EQ(tree.front()->kind, SpanKind::kSubmission) << "root first";
  // Ordered by start time.
  for (std::size_t i = 1; i < tree.size(); ++i) {
    EXPECT_LE(tree[i - 1]->start, tree[i]->start);
  }
}

TEST(Span, ForJobIncludesDescendantsBoundLater) {
  SpanTracker t;
  const SpanId queue = t.start_span(SpanKind::kQueue, 0.0, EntityId{2});
  t.bind_job(queue, ClusterId{1}, JobId{0});
  const SpanId run = t.start_span(SpanKind::kRun, 1.0, EntityId{2}, queue);
  const SpanId reconfig =
      t.instant_span(SpanKind::kReconfig, 2.0, EntityId{2}, run, 16.0);
  const auto tree = t.for_job(ClusterId{1}, JobId{0});
  ASSERT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree[1]->id, run);
  EXPECT_EQ(tree[2]->id, reconfig);
}

TEST(Span, ForJobUnknownJobIsEmpty) {
  SpanTracker t;
  t.start_span(SpanKind::kSubmission, 0.0, EntityId{1});
  EXPECT_TRUE(t.for_job(ClusterId{9}, JobId{9}).empty());
  // The unbound root carries the invalid identity; it is still no job's.
  EXPECT_TRUE(t.for_job(ClusterId{}, JobId{}).empty());
}

TEST(Span, ChainOfWalksRootFirst) {
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0, EntityId{1});
  const SpanId rfb = t.start_span(SpanKind::kRfb, 1.0, EntityId{1}, root);
  const SpanId award = t.start_span(SpanKind::kAward, 2.0, EntityId{1}, rfb);
  const auto chain = t.chain_of(award);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0]->id, root);
  EXPECT_EQ(chain[1]->id, rfb);
  EXPECT_EQ(chain[2]->id, award);
}

TEST(Span, ChildrenOfFindsDirectChildrenOnly) {
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0, EntityId{1});
  const SpanId rfb = t.start_span(SpanKind::kRfb, 1.0, EntityId{1}, root);
  t.instant_span(SpanKind::kBid, 2.0, EntityId{1}, rfb, 0.5);
  t.instant_span(SpanKind::kBid, 2.5, EntityId{1}, rfb, 0.6);
  EXPECT_EQ(t.children_of(root).size(), 1u);
  EXPECT_EQ(t.children_of(rfb).size(), 2u);
}

TEST(Span, RebindAfterMigrationIndexesBothPlacements) {
  // An evicted job resubmits and lands elsewhere: the same causal tree is
  // reachable under both (cluster, job) keys.
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0, EntityId{1});
  const SpanId q1 = t.start_span(SpanKind::kQueue, 1.0, EntityId{2}, root);
  t.bind_job(q1, ClusterId{0}, JobId{3});
  t.instant_span(SpanKind::kEvicted, 2.0, EntityId{2}, q1);
  const SpanId q2 = t.start_span(SpanKind::kQueue, 3.0, EntityId{3}, root);
  t.bind_job(q2, ClusterId{1}, JobId{0});

  EXPECT_FALSE(t.for_job(ClusterId{0}, JobId{3}).empty());
  const auto second = t.for_job(ClusterId{1}, JobId{0});
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(second.front()->kind, SpanKind::kSubmission);
}

}  // namespace
}  // namespace faucets::obs
