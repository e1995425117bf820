// Span causality after a full GridSystem::run (ISSUE satellite): every
// parent link points backwards in time root-first, award spans descend from
// an RFB round, completed jobs carry a full submission -> run -> complete
// chain, and jobs nobody would take end in a terminal kUnplaced span.
#include <gtest/gtest.h>

#include "src/core/grid_system.hpp"
#include "src/sched/payoff_sched.hpp"

namespace faucets::core {
namespace {

ClusterSetup small_cluster(const std::string& name, int procs) {
  ClusterSetup setup;
  setup.machine.name = name;
  setup.machine.total_procs = procs;
  setup.machine.cost_per_cpu_second = 0.0005;
  setup.strategy = [] { return std::make_unique<sched::PayoffStrategy>(); };
  setup.bid_generator = [] {
    return std::make_unique<market::UtilizationBidGenerator>();
  };
  return setup;
}

job::JobRequest request(std::size_t user, int procs, double work,
                        double submit_at = 0.0) {
  job::JobRequest req;
  req.submit_time = submit_at;
  req.user_index = user;
  req.contract = qos::make_contract(procs, procs, work, 1.0, 1.0);
  req.contract.payoff = qos::PayoffFunction::flat(50.0);
  return req;
}

TEST(SpanCausality, FullRunProducesTimeOrderedCausalChains) {
  GridSystem grid({}, {small_cluster("alpha", 64), small_cluster("beta", 32)}, 2);

  std::vector<job::JobRequest> reqs;
  for (std::size_t u = 0; u < 2; ++u) {
    reqs.push_back(request(u, 8, 8.0 * 120.0));
    reqs.push_back(request(u, 16, 16.0 * 60.0, 10.0));
  }
  const auto report = grid.run(std::move(reqs), 1e6);
  ASSERT_EQ(report.jobs_completed, 4u);

  const obs::SpanTracker& spans = grid.obs().spans();
  ASSERT_GT(spans.size(), 0u);

  std::size_t roots = 0;
  std::size_t awards = 0;
  for (const obs::Span& s : spans.spans()) {
    // Parent links are causal: the parent exists and did not start later.
    if (s.parent.valid()) {
      const obs::Span* p = spans.find(s.parent);
      ASSERT_NE(p, nullptr);
      EXPECT_LE(p->start, s.start) << "child precedes its parent";
    } else {
      EXPECT_EQ(s.kind, obs::SpanKind::kSubmission)
          << "only submission spans are roots";
      ++roots;
    }
    // Closed spans do not run backwards.
    if (!s.open()) {
      EXPECT_LE(s.start, s.end);
    }
    // Every chain is time-ordered root-first.
    const auto chain = spans.chain_of(s.id);
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.front()->kind, obs::SpanKind::kSubmission);
    for (std::size_t i = 1; i < chain.size(); ++i) {
      EXPECT_LE(chain[i - 1]->start, chain[i]->start);
    }
    // Awards always descend from a request-for-bids round.
    if (s.kind == obs::SpanKind::kAward) {
      ++awards;
      bool has_rfb = false;
      for (const obs::Span* c : chain) {
        if (c->kind == obs::SpanKind::kRfb) has_rfb = true;
      }
      EXPECT_TRUE(has_rfb) << "award span without an RFB ancestor";
    }
  }
  EXPECT_EQ(roots, 4u) << "one root span per submission";
  EXPECT_GE(awards, 4u);

  // Every completed job's tree holds the whole lifecycle and a terminal
  // complete span; after the run no span in it is still open.
  std::size_t complete_trees = 0;
  for (const obs::Span& s : spans.spans()) {
    if (s.kind != obs::SpanKind::kComplete) continue;
    ++complete_trees;
    ASSERT_TRUE(s.cluster.valid());
    const auto tree = spans.for_job(s.cluster, s.job);
    ASSERT_FALSE(tree.empty());
    bool saw_submission = false;
    bool saw_queue = false;
    bool saw_run = false;
    for (const obs::Span* t : tree) {
      EXPECT_FALSE(t->open()) << "span " << t->id << " ("
                              << obs::to_string(t->kind)
                              << ") left open after completion";
      saw_submission |= t->kind == obs::SpanKind::kSubmission;
      saw_queue |= t->kind == obs::SpanKind::kQueue;
      saw_run |= t->kind == obs::SpanKind::kRun;
    }
    EXPECT_TRUE(saw_submission);
    EXPECT_TRUE(saw_queue);
    EXPECT_TRUE(saw_run);
  }
  EXPECT_EQ(complete_trees, 4u);
}

TEST(SpanCausality, UnplacedJobEndsInTerminalSpan) {
  GridSystem grid({}, {small_cluster("tiny", 8)}, 1);

  // 64 procs can never fit the 8-proc cluster: the directory comes back
  // empty and the submission must close with an instant kUnplaced child.
  const auto report = grid.run({request(0, 64, 64.0 * 60.0)}, 1e6);
  EXPECT_EQ(report.jobs_completed, 0u);
  ASSERT_EQ(report.jobs_unplaced, 1u);

  const obs::SpanTracker& spans = grid.obs().spans();
  std::size_t unplaced = 0;
  for (const obs::Span& s : spans.spans()) {
    if (s.kind != obs::SpanKind::kUnplaced) continue;
    ++unplaced;
    EXPECT_TRUE(s.instant());
    const auto chain = spans.chain_of(s.id);
    ASSERT_GE(chain.size(), 2u);
    EXPECT_EQ(chain.front()->kind, obs::SpanKind::kSubmission);
    EXPECT_FALSE(chain.front()->open())
        << "the root submission span must be closed with the terminal";
  }
  EXPECT_EQ(unplaced, 1u);
  // No span of the failed submission is left open.
  for (const obs::Span& s : spans.spans()) EXPECT_FALSE(s.open());
}

}  // namespace
}  // namespace faucets::core
