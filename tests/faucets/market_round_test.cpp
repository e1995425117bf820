// The market round's commit-phase give-up (§5.3), run by a direct client and
// by the broker: the reserve succeeds, every commit is lost, the awarder
// aborts the lease best-effort, masks that daemon's bids and awards the
// next-best bid. And a bid that arrives while no round is open is dropped.
#include <gtest/gtest.h>

#include "src/core/grid_system.hpp"
#include "src/faucets/market_round.hpp"
#include "src/sched/equipartition.hpp"
#include "src/sim/context.hpp"

namespace faucets {
namespace {

core::ClusterSetup make_cluster(const std::string& name, double cost) {
  core::ClusterSetup setup;
  setup.machine.name = name;
  setup.machine.total_procs = 64;
  setup.machine.cost_per_cpu_second = cost;
  setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  setup.bid_generator = [] { return std::make_unique<market::BaselineBidGenerator>(); };
  return setup;
}

job::JobRequest simple_job() {
  job::JobRequest req;
  req.contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
  req.contract.payoff = qos::PayoffFunction::flat(10.0);
  return req;
}

/// Two commit attempts, 2 s then 4 s: the awarder gives up 6 s after the
/// reserve reply, well inside the daemons' 30 s reservation lease.
constexpr RetryPolicy kShortRetry{.max_attempts = 2, .base_timeout = 2.0};

/// Cheap cluster 0 wins least-cost; cluster 1 is the next-best bid. An
/// optional partition isolates cluster 0's daemon.
std::unique_ptr<core::GridSystem> build_grid(bool brokered,
                                             std::optional<double> cut_from = {},
                                             double cut_until = 0.0) {
  core::GridConfig config;
  config.brokered_submission = brokered;
  config.retry = kShortRetry;
  if (cut_from) config.partitions.push_back({0, *cut_from, cut_until});
  return std::make_unique<core::GridSystem>(
      std::move(config),
      std::vector{make_cluster("cheap", 0.0001), make_cluster("dear", 0.01)}, 1);
}

/// Time of the first trace record of `kind` by `entity`, or -1.
double first_record(core::GridSystem& grid, obs::TraceEventKind kind,
                    EntityId entity) {
  double at = -1.0;
  grid.trace().for_each([&](const obs::TraceEvent& ev) {
    if (at < 0.0 && ev.kind == kind && ev.entity == entity) at = ev.time;
  });
  return at;
}

class CommitGiveUp : public ::testing::TestWithParam<bool> {};

TEST_P(CommitGiveUp, AbortsTheLeaseAndAwardsTheNextBestBid) {
  const bool brokered = GetParam();

  // A fault-free run finds the instant cluster 0 grants the reserve.
  auto probe = build_grid(brokered);
  (void)probe->run({simple_job()});
  const double reserved = first_record(*probe, obs::TraceEventKind::kAwardReserved,
                                       probe->daemon(0).id());
  ASSERT_GE(reserved, 0.0);

  // Cut cluster 0 off just after its reserve reply leaves, so both commits
  // are lost, and heal it before the awarder gives up 6 s later: the abort
  // reaches a live daemon that still holds the lease.
  auto grid = build_grid(brokered, reserved + 1e-6, reserved + 5.0);
  const auto report = grid->run({simple_job()}, 1e6);

  EXPECT_EQ(first_record(*grid, obs::TraceEventKind::kAwardReserved,
                         grid->daemon(0).id()),
            reserved);
  const double aborted = first_record(*grid, obs::TraceEventKind::kAwardAborted,
                                      grid->daemon(0).id());
  EXPECT_GT(aborted, reserved + 5.0);
  EXPECT_LT(aborted, reserved + 7.0);
  EXPECT_EQ(grid->daemon(0).awards_confirmed(), 0u);
  EXPECT_GE(grid->context().metrics().counter_value("faucets_retry_exhausted_total"),
            1u);
  // The next-best bid wins and the job runs there.
  EXPECT_EQ(report.jobs_completed, 1u);
  EXPECT_EQ(report.clusters[0].completed, 0u);
  EXPECT_EQ(report.clusters[1].completed, 1u);
  const SubmissionOutcome& outcome = grid->client(0).outcomes().at(0);
  EXPECT_EQ(outcome.status, SubmissionOutcome::Status::kCompleted);
  EXPECT_EQ(outcome.cluster, ClusterId{1});
}

INSTANTIATE_TEST_SUITE_P(Awarders, CommitGiveUp, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "broker" : "client";
                         });

/// The smallest awarder: one request (id 1), its directory request sent
/// to a peer that never answers.
class OneRound final : public MarketRound {
 public:
  OneRound(sim::SimContext& ctx, EntityId central)
      : MarketRound("one-round", ctx, central, RetryPolicy{}) {
    register_retry_counters();
  }

  void start() {
    round_.contract = simple_job().contract;
    round_.root = context().spans().start_span(obs::SpanKind::kSubmission, 0.0);
    request_directory(RequestId{1});
  }

  [[nodiscard]] std::size_t bids_held() const { return round_.bids.size(); }
  [[nodiscard]] bool evaluated() const { return round_.evaluated; }

 private:
  Round* find_round(RequestId request) override {
    return request == RequestId{1} ? &round_ : nullptr;
  }
  const Principal& principal(const Round& /*round*/) const override { return who_; }
  void on_awarded(RequestId, Round&, const proto::AwardAck&) override {}
  void on_round_failed(RequestId, proto::SubmitStatus) override {}

  Round round_;
  Principal who_;
};

/// Sends one bid for request 1, as a daemon answering an earlier round's
/// request-for-bids would.
class LateBidder final : public sim::Entity {
 public:
  explicit LateBidder(sim::SimContext& ctx) : sim::Entity("late-bidder", ctx) {
    network().attach(*this);
  }
  void on_message(const sim::Message& /*msg*/) override {}

  void bid(EntityId to) {
    auto msg = std::make_unique<proto::BidReply>();
    msg->request = RequestId{1};
    msg->bid.cluster = ClusterId{0};
    msg->bid.daemon = id();
    msg->bid.price = 1.0;
    msg->bid.expires_at = 1e9;
    network().send(*this, to, std::move(msg));
  }
};

TEST(MarketRound, BidWithNoOpenRoundIsDropped) {
  // While the round waits for its directory reply it has sent no
  // request-for-bids, so a bid cannot be for it: the round must neither
  // keep it, record it, nor evaluate on it.
  sim::SimContext ctx;
  LateBidder bidder{ctx};
  OneRound round{ctx, bidder.id()};
  round.start();
  bidder.bid(round.id());
  ctx.engine().run(1.0);
  EXPECT_EQ(round.bids_held(), 0u);
  EXPECT_FALSE(round.evaluated());
  EXPECT_TRUE(ctx.spans().bids().empty());
  EXPECT_EQ(ctx.spans().size(), 1u) << "only the submission span";
}

}  // namespace
}  // namespace faucets
