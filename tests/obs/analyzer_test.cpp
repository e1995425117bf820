// Span-tree latency decomposition: exclusive-phase attribution over
// synthetic timelines, terminal-outcome selection, quantiles over the
// analysis, deadline accounting, and the structured timeline rows shared
// with AppSpector.
#include "src/obs/analyzer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "src/obs/metrics.hpp"
#include "src/obs/spans.hpp"

namespace faucets::obs {
namespace {

TimelineRow row(std::uint64_t id, SpanKind kind, double start, double end,
                double value = 0.0) {
  TimelineRow r;
  r.id = SpanId{id};
  r.kind = kind;
  r.start = start;
  r.end = end;
  r.value = value;
  return r;
}

// ------------------------------------------------------------ decomposition

TEST(Decompose, SimpleLifecyclePartitionsMakespan) {
  // submit 0, rfb [0,10), award [10,14), queue [14,30), run [30,90), done 90.
  const TimelineRow root = row(0, SpanKind::kSubmission, 0.0, 90.0);
  const std::vector<TimelineRow> rows{
      root,
      row(1, SpanKind::kRfb, 0.0, 10.0),
      row(2, SpanKind::kAward, 10.0, 14.0),
      row(3, SpanKind::kQueue, 14.0, 30.0),
      row(4, SpanKind::kRun, 30.0, 90.0),
      row(5, SpanKind::kComplete, 90.0, 90.0),
  };
  const JobPhaseRecord rec = decompose_rows(rows, root);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kBidWait), 10.0);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kAwardWait), 4.0);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kQueueWait), 16.0);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kRun), 60.0);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kReconfig), 0.0);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kOther), 0.0);
  EXPECT_DOUBLE_EQ(rec.phase_sum(), rec.makespan());
  EXPECT_EQ(rec.outcome, SpanKind::kComplete);
  EXPECT_TRUE(rec.completed());
  EXPECT_EQ(rec.rfb_rounds, 1u);
  EXPECT_EQ(rec.award_attempts, 1u);
}

TEST(Decompose, RunBeatsOverlappingQueueAndGapsAreOther) {
  // The queue span covers the whole placement [10, 50) with the run nested
  // inside [20, 40); the gaps [0,10) and [50,60) belong to no child.
  const TimelineRow root = row(0, SpanKind::kSubmission, 0.0, 60.0);
  const std::vector<TimelineRow> rows{
      root,
      row(1, SpanKind::kQueue, 10.0, 50.0),
      row(2, SpanKind::kRun, 20.0, 40.0),
  };
  const JobPhaseRecord rec = decompose_rows(rows, root);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kRun), 20.0);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kQueueWait), 10.0);  // [10, 20)
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kReconfig), 10.0);   // [40, 50): after 1st run
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kOther), 20.0);      // [0,10) + [50,60)
  EXPECT_DOUBLE_EQ(rec.phase_sum(), 60.0);
}

TEST(Decompose, QueueTimeAfterFirstRunIsReconfig) {
  // vacate/resume churn: run, requeue, run again.
  const TimelineRow root = row(0, SpanKind::kSubmission, 0.0, 100.0);
  const std::vector<TimelineRow> rows{
      root,
      row(1, SpanKind::kQueue, 0.0, 10.0),
      row(2, SpanKind::kRun, 10.0, 40.0),
      row(3, SpanKind::kQueue, 40.0, 70.0),  // re-queued after being vacated
      row(4, SpanKind::kRun, 70.0, 100.0),
  };
  const JobPhaseRecord rec = decompose_rows(rows, root);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kQueueWait), 10.0);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kReconfig), 30.0);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kRun), 60.0);
  EXPECT_DOUBLE_EQ(rec.phase_sum(), rec.makespan());
}

TEST(Decompose, OpenChildrenClampToSubmissionEnd) {
  // Engine stopped mid-run: the run span never closed.
  const TimelineRow root = row(0, SpanKind::kSubmission, 0.0, 50.0);
  const std::vector<TimelineRow> rows{
      root,
      row(1, SpanKind::kQueue, 0.0, 20.0),
      row(2, SpanKind::kRun, 20.0, -1.0),  // still open
  };
  const JobPhaseRecord rec = decompose_rows(rows, root);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kQueueWait), 20.0);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kRun), 30.0);
  EXPECT_DOUBLE_EQ(rec.phase_sum(), 50.0);
}

TEST(Decompose, ChildrenOutsideRootWindowAreClamped) {
  const TimelineRow root = row(0, SpanKind::kSubmission, 10.0, 20.0);
  const std::vector<TimelineRow> rows{
      root,
      row(1, SpanKind::kRun, 5.0, 30.0),  // overhangs both ends
  };
  const JobPhaseRecord rec = decompose_rows(rows, root);
  EXPECT_DOUBLE_EQ(rec.phase(Phase::kRun), 10.0);
  EXPECT_DOUBLE_EQ(rec.phase_sum(), 10.0);
}

TEST(Decompose, LatestTerminalWinsAndEvictionsCount) {
  // Evicted from the first placement, completed on the second.
  const TimelineRow root = row(0, SpanKind::kSubmission, 0.0, 80.0);
  const std::vector<TimelineRow> rows{
      root,
      row(1, SpanKind::kQueue, 0.0, 10.0),
      row(2, SpanKind::kRun, 10.0, 30.0),
      row(3, SpanKind::kEvicted, 30.0, 30.0),
      row(4, SpanKind::kQueue, 30.0, 50.0),
      row(5, SpanKind::kRun, 50.0, 80.0),
      row(6, SpanKind::kComplete, 80.0, 80.0),
  };
  const JobPhaseRecord rec = decompose_rows(rows, root);
  EXPECT_EQ(rec.outcome, SpanKind::kComplete);
  EXPECT_EQ(rec.evictions, 1u);
  EXPECT_DOUBLE_EQ(rec.phase_sum(), 80.0);
}

TEST(Decompose, TerminalTieBreaksByLaterSpanId) {
  const TimelineRow root = row(0, SpanKind::kSubmission, 0.0, 10.0);
  const std::vector<TimelineRow> rows{
      root,
      row(1, SpanKind::kEvicted, 10.0, 10.0),
      row(2, SpanKind::kFailed, 10.0, 10.0),
  };
  const JobPhaseRecord rec = decompose_rows(rows, root);
  EXPECT_EQ(rec.outcome, SpanKind::kFailed);
  EXPECT_EQ(rec.evictions, 1u);
}

TEST(Decompose, CountsBidsAndReconfigInstants) {
  // Bids come from each round's count; bid rows (as for_job lists them) add
  // nothing, so they are not counted twice.
  const TimelineRow root = row(0, SpanKind::kSubmission, 0.0, 40.0);
  TimelineRow first = row(1, SpanKind::kRfb, 0.0, 5.0);
  first.bids = 2;
  TimelineRow second = row(7, SpanKind::kRfb, 6.0, 7.0);
  second.bids = 3;
  const std::vector<TimelineRow> rows{
      root,
      first,
      row(2, SpanKind::kBid, 2.0, 2.0, 0.4),
      row(3, SpanKind::kBid, 3.0, 3.0, 0.6),
      row(4, SpanKind::kRun, 5.0, 40.0),
      second,
      row(5, SpanKind::kReconfig, 20.0, 20.0, 16.0),
      row(6, SpanKind::kReconfig, 30.0, 30.0, 8.0),
  };
  const JobPhaseRecord rec = decompose_rows(rows, root);
  EXPECT_EQ(rec.bids, 5u);
  EXPECT_EQ(rec.rfb_rounds, 2u);
  EXPECT_EQ(rec.reconfigs, 2u);
  EXPECT_DOUBLE_EQ(rec.phase_sum(), 40.0);
}

TEST(DecomposeProperty, RandomTimelinesAlwaysPartitionTheMakespan) {
  // Whatever mess of overlapping, open, and out-of-window children a chaos
  // run produces, the six exclusive phases must always sum to the makespan.
  std::mt19937_64 rng{20260805};
  std::uniform_real_distribution<double> when{0.0, 1000.0};
  const SpanKind kinds[] = {SpanKind::kRfb,      SpanKind::kAward,
                            SpanKind::kQueue,    SpanKind::kRun,
                            SpanKind::kBid,      SpanKind::kReconfig,
                            SpanKind::kEvicted,  SpanKind::kComplete};
  for (int round = 0; round < 200; ++round) {
    double a = when(rng);
    double b = when(rng);
    if (b < a) std::swap(a, b);
    const TimelineRow root = row(0, SpanKind::kSubmission, a, b);
    std::vector<TimelineRow> rows{root};
    const int n = 1 + static_cast<int>(rng() % 20);
    for (int i = 0; i < n; ++i) {
      double s = when(rng);
      double e = when(rng);
      if (e < s) std::swap(s, e);
      if (rng() % 8 == 0) e = -1.0;  // leave some spans open
      rows.push_back(row(static_cast<std::uint64_t>(i + 1),
                         kinds[rng() % (sizeof(kinds) / sizeof(kinds[0]))], s, e));
    }
    const JobPhaseRecord rec = decompose_rows(rows, root);
    EXPECT_NEAR(rec.phase_sum(), rec.makespan(), 1e-9)
        << "round " << round << ": exclusive phases must partition the span";
    for (const double v : rec.phase_seconds) EXPECT_GE(v, 0.0);
  }
}

// ------------------------------------------------------------- analysis

TEST(Analyze, WalksTrackerAndOverlaysLastPlacementIdentity) {
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0);
  t.set_user(root, UserId{4});
  const SpanId q1 = t.start_span(SpanKind::kQueue, 1.0, root);
  t.bind_job(q1, ClusterId{0}, JobId{7});
  t.end_span(q1, 5.0);
  t.instant_span(SpanKind::kEvicted, 5.0, q1);
  // Re-placed on another cluster after eviction.
  const SpanId q2 = t.start_span(SpanKind::kQueue, 6.0, root);
  t.bind_job(q2, ClusterId{2}, JobId{1});
  t.end_span(q2, 8.0);
  const SpanId r2 = t.start_span(SpanKind::kRun, 8.0, q2);
  t.end_span(r2, 20.0);
  t.instant_span(SpanKind::kComplete, 20.0, r2);
  t.end_span(root, 20.0);

  // A second, still-open submission must be skipped but counted.
  t.start_span(SpanKind::kSubmission, 2.0);

  const SpanAnalysis analysis = analyze_spans(t);
  ASSERT_EQ(analysis.jobs.size(), 1u);
  EXPECT_EQ(analysis.open_roots, 1u);
  const JobPhaseRecord& rec = analysis.jobs[0];
  EXPECT_EQ(rec.user, UserId{4});
  EXPECT_EQ(rec.cluster, ClusterId{2}) << "last placement, not the first";
  EXPECT_EQ(rec.job, JobId{1});
  EXPECT_EQ(rec.outcome, SpanKind::kComplete);
  EXPECT_EQ(rec.evictions, 1u);
  EXPECT_NEAR(rec.phase_sum(), rec.makespan(), 1e-9);
  EXPECT_EQ(analysis.count_outcome(SpanKind::kComplete), 1u);
}

TEST(Analyze, BidsComeFromTheRoundCounts) {
  // Two submissions whose bids interleave; the first re-bids once.
  SpanTracker t;
  const SpanId a = t.start_span(SpanKind::kSubmission, 0.0);
  const SpanId b = t.start_span(SpanKind::kSubmission, 0.0);
  const SpanId rfb_a = t.start_span(SpanKind::kRfb, 1.0, a);
  const SpanId rfb_b = t.start_span(SpanKind::kRfb, 1.0, b);
  for (int i = 0; i < 3; ++i) {
    t.record_bid(rfb_a, 1.5, 0.4);
    t.record_bid(rfb_b, 1.5, 0.3);
  }
  t.end_span(rfb_a, 2.0);
  t.end_span(rfb_b, 2.0);
  const SpanId rebid = t.start_span(SpanKind::kRfb, 3.0, a);
  t.record_bid(rebid, 3.5, 0.6);
  t.record_bid(rebid, 3.5, 0.7);
  t.end_span(rebid, 4.0);
  t.end_span(a, 5.0);
  t.end_span(b, 5.0);

  const SpanAnalysis analysis = analyze_spans(t);
  ASSERT_EQ(analysis.jobs.size(), 2u);
  EXPECT_EQ(analysis.jobs[0].bids, 5u);
  EXPECT_EQ(analysis.jobs[0].rfb_rounds, 2u);
  EXPECT_EQ(analysis.jobs[1].bids, 3u);
  EXPECT_EQ(analysis.jobs[1].rfb_rounds, 1u);
}

TEST(Analyze, MeanAndQuantilesOverJobs) {
  SpanTracker t;
  for (int i = 0; i < 4; ++i) {
    const double base = i * 100.0;
    const SpanId root = t.start_span(SpanKind::kSubmission, base);
    const SpanId q = t.start_span(SpanKind::kQueue, base, root);
    t.bind_job(q, ClusterId{0}, JobId{static_cast<std::uint64_t>(i)});
    t.end_span(q, base + 10.0 * (i + 1));  // queue waits 10, 20, 30, 40
    const SpanId r = t.start_span(SpanKind::kRun, base + 10.0 * (i + 1), q);
    t.end_span(r, base + 50.0);
    t.end_span(root, base + 50.0);
  }
  const SpanAnalysis analysis = analyze_spans(t);
  ASSERT_EQ(analysis.jobs.size(), 4u);
  EXPECT_DOUBLE_EQ(analysis.mean_phases()[static_cast<std::size_t>(Phase::kQueueWait)],
                   25.0);
  EXPECT_DOUBLE_EQ(analysis.phase_quantile(Phase::kQueueWait, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(analysis.phase_quantile(Phase::kQueueWait, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(analysis.phase_quantile(Phase::kQueueWait, 0.0), 10.0);
}

TEST(Analyze, EmptyTrackerYieldsEmptyAnalysis) {
  SpanTracker t;
  const SpanAnalysis analysis = analyze_spans(t);
  EXPECT_TRUE(analysis.jobs.empty());
  EXPECT_EQ(analysis.open_roots, 0u);
  EXPECT_DOUBLE_EQ(analysis.phase_quantile(Phase::kRun, 0.5), 0.0);
  for (const double v : analysis.mean_phases()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Analyze, PhaseHistogramsLandInRegistry) {
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 0.0);
  const SpanId q = t.start_span(SpanKind::kQueue, 0.0, root);
  t.bind_job(q, ClusterId{0}, JobId{0});
  t.end_span(q, 3.0);
  t.end_span(root, 3.0);

  MetricsRegistry reg;
  observe_phase_histograms(reg, analyze_spans(t));
  const Histogram* h = reg.find_histogram("faucets_phase_seconds{phase=\"queue_wait\"}");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_DOUBLE_EQ(h->sum(), 3.0);
}

// --------------------------------------------------------- timeline rows

TEST(TimelineRows, SharedWithForJobAndFormatted) {
  SpanTracker t;
  const SpanId root = t.start_span(SpanKind::kSubmission, 1.0);
  const SpanId q = t.start_span(SpanKind::kQueue, 2.0, root);
  t.bind_job(q, ClusterId{3}, JobId{9});
  const SpanId r = t.start_span(SpanKind::kRun, 4.0, q);
  t.set_value(r, 8.0);
  t.end_span(r, 10.0);

  const auto rows = t.for_job(ClusterId{3}, JobId{9});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].kind, SpanKind::kSubmission);
  EXPECT_TRUE(rows[0].open());
  EXPECT_EQ(format_timeline_row(rows[0]), "[1 ..) submission");
  EXPECT_EQ(format_timeline_row(rows[2]), "[4 10) run value=8");
  EXPECT_TRUE(t.for_job(ClusterId{9}, JobId{9}).empty());
}

// ------------------------------------------------------ deadline accounting

TEST(DeadlineRow, ClassifiesOutcomes) {
  DeadlineRow r;
  r.scope = "user0";
  r.add(true, 10.0, true, 20.0, 40.0, 5.0, 5.0);    // met soft
  r.add(true, 30.0, true, 20.0, 40.0, 2.5, 5.0);    // soft < t <= hard
  r.add(true, 50.0, true, 20.0, 40.0, -1.0, 5.0);   // penalized
  r.add(true, 99.0, false, 0.0, 0.0, 3.0, 3.0);     // no deadline: always soft
  r.add(false, 0.0, true, 20.0, 40.0, 0.0, 5.0);    // never finished
  EXPECT_EQ(r.jobs, 5u);
  EXPECT_EQ(r.met_soft, 2u);
  EXPECT_EQ(r.met_hard, 1u);
  EXPECT_EQ(r.penalized, 1u);
  EXPECT_EQ(r.unfinished, 1u);
  EXPECT_DOUBLE_EQ(r.payoff_realized, 9.5);
  EXPECT_DOUBLE_EQ(r.payoff_max, 23.0);
}

}  // namespace
}  // namespace faucets::obs
