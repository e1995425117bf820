// Retry policy math and the daemon side of the two-phase award under
// duplicated and lost messages: every exchange must converge to exactly one
// job no matter how often the wire repeats or eats a message.
#include "src/faucets/retry.hpp"

#include <gtest/gtest.h>

#include "src/faucets/central.hpp"
#include "src/faucets/daemon.hpp"
#include "src/sched/equipartition.hpp"

namespace faucets {
namespace {

TEST(RetryPolicy, BackoffScheduleIsExponentialAndCapped) {
  RetryPolicy policy;  // 4 attempts, 5 s base, x2, 60 s cap
  EXPECT_DOUBLE_EQ(policy.timeout_for(1), 5.0);
  EXPECT_DOUBLE_EQ(policy.timeout_for(2), 10.0);
  EXPECT_DOUBLE_EQ(policy.timeout_for(3), 20.0);
  EXPECT_DOUBLE_EQ(policy.timeout_for(4), 40.0);
  EXPECT_DOUBLE_EQ(policy.timeout_for(5), 60.0) << "cap kicks in";
  EXPECT_DOUBLE_EQ(policy.timeout_for(50), 60.0);
  EXPECT_DOUBLE_EQ(policy.total_budget(), 5.0 + 10.0 + 20.0 + 40.0);

  RetryPolicy tight{.max_attempts = 3, .base_timeout = 1.0,
                    .multiplier = 10.0, .max_timeout = 25.0};
  EXPECT_DOUBLE_EQ(tight.timeout_for(1), 1.0);
  EXPECT_DOUBLE_EQ(tight.timeout_for(2), 10.0);
  EXPECT_DOUBLE_EQ(tight.timeout_for(3), 25.0);
  EXPECT_DOUBLE_EQ(tight.total_budget(), 36.0);
}

TEST(RetryPolicy, StateMachineCountsAttemptsToExhaustion) {
  sim::Engine engine;
  RetryPolicy policy{.max_attempts = 3, .base_timeout = 2.0,
                     .multiplier = 2.0, .max_timeout = 60.0};
  RetryState state;
  EXPECT_EQ(state.attempts(), 0);
  EXPECT_FALSE(state.exhausted(policy));

  EXPECT_DOUBLE_EQ(state.arm(policy), 2.0);
  EXPECT_DOUBLE_EQ(state.arm(policy), 4.0);
  EXPECT_FALSE(state.exhausted(policy));
  EXPECT_DOUBLE_EQ(state.arm(policy), 8.0);
  EXPECT_TRUE(state.exhausted(policy)) << "third attempt spends the schedule";

  state.reset();
  EXPECT_EQ(state.attempts(), 0);
  EXPECT_FALSE(state.exhausted(policy));
}

TEST(RetryPolicy, SettleCancelsTheTimer) {
  sim::Engine engine;
  RetryPolicy policy;
  RetryState state;
  int fired = 0;
  const double timeout = state.arm(policy);
  state.set_timer(engine.schedule_after(timeout, [&fired] { ++fired; }));
  EXPECT_TRUE(state.in_flight());
  state.settle();
  EXPECT_FALSE(state.in_flight());
  engine.run();
  EXPECT_EQ(fired, 0) << "a settled exchange must not time out";
}

/// Scripted counterpart driving the daemon's reserve/commit endpoints raw.
class ScriptedBroker final : public sim::Entity {
 public:
  explicit ScriptedBroker(sim::SimContext& ctx)
      : sim::Entity("scripted", ctx) {
    network().attach(*this);
  }

  void on_message(const sim::Message& msg) override {
    switch (msg.kind()) {
      case sim::MessageKind::kBid:
        bids.push_back(sim::message_cast<proto::BidReply>(msg).bid);
        break;
      case sim::MessageKind::kReserveAck:
        reserve_replies.push_back(sim::message_cast<proto::ReserveReply>(msg));
        break;
      case sim::MessageKind::kAwardAck:
        acks.push_back(sim::message_cast<proto::AwardAck>(msg));
        break;
      default:
        break;
    }
  }

  void request_bid(EntityId daemon, const qos::QosContract& contract) {
    auto rfb = std::make_unique<proto::RequestForBids>();
    rfb->request = RequestId{next_request_++};
    rfb->username = "alice";
    rfb->password = "pw";
    rfb->contract = std::make_shared<const qos::QosContract>(contract);
    network().send(*this, daemon, std::move(rfb));
  }

  void reserve(EntityId daemon, BidId bid) {
    auto msg = std::make_unique<proto::ReserveRequest>();
    msg->request = RequestId{next_request_++};
    msg->bid = bid;
    msg->user = UserId{0};
    network().send(*this, daemon, std::move(msg));
  }

  void commit(EntityId daemon, ReservationId reservation, bool confirm) {
    auto msg = std::make_unique<proto::CommitRequest>();
    msg->request = RequestId{next_request_++};
    msg->reservation = reservation;
    msg->commit = confirm;
    network().send(*this, daemon, std::move(msg));
  }

  std::vector<market::Bid> bids;
  std::vector<proto::ReserveReply> reserve_replies;
  std::vector<proto::AwardAck> acks;

 private:
  std::uint64_t next_request_ = 100;
};

struct Fixture {
  sim::SimContext ctx;
  sim::Engine& engine = ctx.engine();
  CentralServer central{ctx, {}};
  ScriptedBroker broker{ctx};
  std::unique_ptr<FaucetsDaemon> daemon;

  explicit Fixture(DaemonConfig config = {}) {
    cluster::MachineSpec machine;
    machine.name = "unit";
    machine.total_procs = 64;
    auto cm = std::make_unique<cluster::ClusterManager>(
        ctx, machine, std::make_unique<sched::EquipartitionStrategy>(),
        job::AdaptiveCosts{.reconfig_seconds = 0.0, .checkpoint_seconds = 0.0,
                           .restart_seconds = 0.0},
        ClusterId{0});
    daemon = std::make_unique<FaucetsDaemon>(
        ctx, ClusterId{0}, std::move(cm),
        std::make_unique<market::BaselineBidGenerator>(), central.id(),
        EntityId{}, config);
    daemon->register_with_central();
    (void)central.register_user("alice", "pw");
  }

  market::Bid bid_for(const qos::QosContract& contract) {
    broker.request_bid(daemon->id(), contract);
    engine.run(5.0);
    EXPECT_EQ(broker.bids.size(), 1u);
    return broker.bids.at(0);
  }
};

TEST(TwoPhaseDaemon, DuplicateReserveConvergesToOneLease) {
  Fixture f;
  const auto contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
  const auto bid = f.bid_for(contract);

  // The wire repeated our reserve: both copies must be answered with the
  // SAME acceptance, and only one lease may exist.
  f.broker.reserve(f.daemon->id(), bid.id);
  f.broker.reserve(f.daemon->id(), bid.id);
  f.engine.run(10.0);
  ASSERT_EQ(f.broker.reserve_replies.size(), 2u);
  const auto& first = f.broker.reserve_replies[0];
  const auto& second = f.broker.reserve_replies[1];
  EXPECT_TRUE(first.accepted);
  EXPECT_TRUE(second.accepted);
  EXPECT_EQ(first.reservation, second.reservation);
  EXPECT_DOUBLE_EQ(first.price, second.price);
  EXPECT_EQ(f.daemon->cm().active_reservations(), 1u);
}

TEST(TwoPhaseDaemon, DuplicateCommitYieldsOneJob) {
  Fixture f;
  const auto contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
  const auto bid = f.bid_for(contract);
  f.broker.reserve(f.daemon->id(), bid.id);
  f.engine.run(10.0);
  ASSERT_EQ(f.broker.reserve_replies.size(), 1u);
  const auto reservation = f.broker.reserve_replies[0].reservation;

  f.broker.commit(f.daemon->id(), reservation, true);
  f.broker.commit(f.daemon->id(), reservation, true);
  f.engine.run(15.0);
  ASSERT_EQ(f.broker.acks.size(), 2u);
  EXPECT_TRUE(f.broker.acks[0].accepted);
  EXPECT_TRUE(f.broker.acks[1].accepted);
  EXPECT_EQ(f.broker.acks[0].job, f.broker.acks[1].job)
      << "the duplicate must echo the same job, not start a second one";
  EXPECT_EQ(f.daemon->cm().running_count() + f.daemon->cm().queued_count(), 1u);
  // A stale abort arriving after the successful commit changes nothing.
  f.broker.commit(f.daemon->id(), reservation, false);
  f.engine.run(20.0);
  EXPECT_EQ(f.daemon->cm().running_count() + f.daemon->cm().queued_count(), 1u);
}

TEST(TwoPhaseDaemon, AbortReleasesCapacityImmediately) {
  Fixture f;
  const auto contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
  const auto bid = f.bid_for(contract);
  f.broker.reserve(f.daemon->id(), bid.id);
  f.engine.run(10.0);
  ASSERT_EQ(f.broker.reserve_replies.size(), 1u);
  EXPECT_EQ(f.daemon->cm().active_reservations(), 1u);

  f.broker.commit(f.daemon->id(), f.broker.reserve_replies[0].reservation,
                  /*confirm=*/false);
  f.engine.run(15.0);
  EXPECT_EQ(f.daemon->cm().active_reservations(), 0u);
  EXPECT_EQ(f.daemon->cm().running_count(), 0u);
  EXPECT_TRUE(f.broker.acks.empty()) << "an abort is not acknowledged";
}

TEST(TwoPhaseDaemon, ExpiredLeaseRefusesTheLateCommit) {
  DaemonConfig config;
  config.reservation_lease = 5.0;  // short lease so the test is quick
  Fixture f{config};
  const auto contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
  const auto bid = f.bid_for(contract);
  f.broker.reserve(f.daemon->id(), bid.id);
  f.engine.run(10.0);
  ASSERT_EQ(f.broker.reserve_replies.size(), 1u);
  const auto reservation = f.broker.reserve_replies[0].reservation;

  // Simulated client crash: no commit until well past the lease.
  f.engine.run(50.0);
  EXPECT_EQ(f.daemon->cm().active_reservations(), 0u)
      << "the lease must expire and return capacity to the market";

  f.broker.commit(f.daemon->id(), reservation, true);
  f.engine.run(60.0);
  ASSERT_EQ(f.broker.acks.size(), 1u);
  EXPECT_FALSE(f.broker.acks[0].accepted);
  EXPECT_EQ(f.broker.acks[0].reason, "reservation unknown or expired");
  EXPECT_EQ(f.daemon->cm().running_count(), 0u);
}

}  // namespace
}  // namespace faucets
