// FaucetsDaemon unit tests: the FD in isolation, driven by a scripted
// client entity and a real Central Server.
#include <gtest/gtest.h>

#include "src/faucets/central.hpp"
#include "src/faucets/daemon.hpp"
#include "src/sched/equipartition.hpp"

namespace faucets {
namespace {

/// Scripted counterpart standing in for the Faucets Client.
class ScriptedClient final : public sim::Entity {
 public:
  explicit ScriptedClient(sim::SimContext& ctx)
      : sim::Entity("scripted", ctx) {
    network().attach(*this);
  }

  void on_message(const sim::Message& msg) override {
    switch (msg.kind()) {
      case sim::MessageKind::kBid:
        bids.push_back(sim::message_cast<proto::BidReply>(msg).bid);
        break;
      case sim::MessageKind::kReserveAck: {
        const auto& reply = sim::message_cast<proto::ReserveReply>(msg);
        reserves.push_back(reply);
        if (reply.accepted) {
          auto commit = std::make_unique<proto::CommitRequest>();
          commit->request = reply.request;
          commit->reservation = reply.reservation;
          network().send(*this, msg.from, std::move(commit));
        }
        break;
      }
      case sim::MessageKind::kAwardAck:
        acks.push_back(sim::message_cast<proto::AwardAck>(msg));
        break;
      case sim::MessageKind::kJobDone:
        completions.push_back(sim::message_cast<proto::JobCompleteNotice>(msg));
        break;
      default:
        break;
    }
  }

  void request_bid(EntityId daemon, const qos::QosContract& contract,
                   const std::string& user, const std::string& password) {
    auto rfb = std::make_unique<proto::RequestForBids>();
    rfb->request = RequestId{next_request_++};
    rfb->username = user;
    rfb->password = password;
    rfb->contract = std::make_shared<const qos::QosContract>(contract);
    network().send(*this, daemon, std::move(rfb));
  }

  /// Two-phase award (§5.3): reserve the bid's capacity; on_message commits
  /// as soon as the reservation is granted.
  void award(EntityId daemon, BidId bid, UserId user) {
    auto msg = std::make_unique<proto::ReserveRequest>();
    msg->request = RequestId{777};
    msg->bid = bid;
    msg->user = user;
    network().send(*this, daemon, std::move(msg));
  }

  std::vector<market::Bid> bids;
  std::vector<proto::ReserveReply> reserves;
  std::vector<proto::AwardAck> acks;
  std::vector<proto::JobCompleteNotice> completions;

 private:
  std::uint64_t next_request_ = 0;
};

struct Fixture {
  sim::SimContext ctx;
  sim::Engine& engine = ctx.engine();
  sim::Network& network = ctx.network();
  CentralServer central{ctx, {}};
  ScriptedClient client{ctx};
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
};

TEST(Daemon, IssuesBidForValidUser) {
  Fixture f;
  f.client.request_bid(f.daemon->id(), qos::make_contract(4, 32, 1000.0),
                       "alice", "pw");
  f.engine.run(5.0);
  ASSERT_EQ(f.client.bids.size(), 1u);
  EXPECT_FALSE(f.client.bids[0].declined);
  EXPECT_DOUBLE_EQ(f.client.bids[0].multiplier, 1.0);
  EXPECT_EQ(f.daemon->bids_issued(), 1u);
}

TEST(Daemon, DeclinesBadPassword) {
  Fixture f;
  f.client.request_bid(f.daemon->id(), qos::make_contract(4, 32, 1000.0),
                       "alice", "WRONG");
  f.engine.run(5.0);
  ASSERT_EQ(f.client.bids.size(), 1u);
  EXPECT_TRUE(f.client.bids[0].declined);
  EXPECT_EQ(f.daemon->bids_declined(), 1u);
}

TEST(Daemon, DeclinesUnknownUser) {
  Fixture f;
  f.client.request_bid(f.daemon->id(), qos::make_contract(4, 32, 1000.0),
                       "mallory", "pw");
  f.engine.run(5.0);
  ASSERT_EQ(f.client.bids.size(), 1u);
  EXPECT_TRUE(f.client.bids[0].declined);
}

TEST(Daemon, DeclinesOversizedJob) {
  Fixture f;
  f.client.request_bid(f.daemon->id(), qos::make_contract(128, 256, 1000.0),
                       "alice", "pw");
  f.engine.run(5.0);
  ASSERT_EQ(f.client.bids.size(), 1u);
  EXPECT_TRUE(f.client.bids[0].declined);
}

TEST(Daemon, AwardOfUnknownBidRefused) {
  Fixture f;
  f.client.award(f.daemon->id(), BidId{424242}, UserId{0});
  f.engine.run(5.0);
  ASSERT_EQ(f.client.reserves.size(), 1u);
  EXPECT_FALSE(f.client.reserves[0].accepted);
  EXPECT_TRUE(f.client.acks.empty());
  EXPECT_EQ(f.daemon->awards_refused(), 1u);
}

TEST(Daemon, ExpiredBidRefused) {
  DaemonConfig config;
  config.bid_validity = 1.0;  // bids die after one second
  Fixture f{config};
  const auto contract = qos::make_contract(4, 32, 1000.0);
  f.client.request_bid(f.daemon->id(), contract, "alice", "pw");
  f.engine.run(5.0);
  ASSERT_EQ(f.client.bids.size(), 1u);
  const auto bid = f.client.bids[0];
  // Award long after expiry.
  f.engine.schedule_at(100.0, [&] {
    f.client.award(f.daemon->id(), bid.id, UserId{0});
  });
  f.engine.run(105.0);
  ASSERT_EQ(f.client.reserves.size(), 1u);
  EXPECT_FALSE(f.client.reserves[0].accepted);
  EXPECT_EQ(f.client.reserves[0].reason, "bid unknown or expired");
  EXPECT_TRUE(f.client.acks.empty());
}

TEST(Daemon, FullAwardRunsJobAndReportsCompletion) {
  Fixture f;
  const auto contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
  f.client.request_bid(f.daemon->id(), contract, "alice", "pw");
  f.engine.run(5.0);
  ASSERT_EQ(f.client.bids.size(), 1u);
  f.client.award(f.daemon->id(), f.client.bids[0].id, UserId{0});
  f.engine.run(500.0);
  ASSERT_EQ(f.client.reserves.size(), 1u);
  EXPECT_TRUE(f.client.reserves[0].accepted);
  ASSERT_EQ(f.client.acks.size(), 1u);
  EXPECT_TRUE(f.client.acks[0].accepted);
  ASSERT_EQ(f.client.completions.size(), 1u);
  EXPECT_GT(f.client.completions[0].finish_time, 0.0);
  EXPECT_DOUBLE_EQ(f.client.completions[0].price_charged, f.client.bids[0].price);
  EXPECT_DOUBLE_EQ(f.daemon->revenue(), f.client.bids[0].price);
  // Settled contract reached the Central Server's price history.
  EXPECT_EQ(f.central.price_history().size(), 1u);
}

TEST(Daemon, AuthCacheSkipsSecondVerification) {
  DaemonConfig config;
  config.cache_auth = true;
  Fixture f{config};
  const auto contract = qos::make_contract(4, 32, 1000.0);
  f.client.request_bid(f.daemon->id(), contract, "alice", "pw");
  f.engine.run(5.0);
  const auto msgs_after_first = f.network.messages_sent();
  f.client.request_bid(f.daemon->id(), contract, "alice", "pw");
  f.engine.run(10.0);
  // Second round trip: RFB + bid only (no AuthVerify pair).
  EXPECT_EQ(f.network.messages_sent() - msgs_after_first, 2u);
}

TEST(Daemon, BidBookForgetsExpiredBids) {
  DaemonConfig config;
  config.bid_validity = 1.0;
  Fixture f{config};
  const auto contract = qos::make_contract(4, 32, 1000.0);
  for (int i = 0; i < 3; ++i) {
    f.client.request_bid(f.daemon->id(), contract, "alice", "pw");
  }
  f.engine.run(5.0);
  ASSERT_EQ(f.client.bids.size(), 3u);
  EXPECT_EQ(f.daemon->open_bids(), 3u);
  f.engine.schedule_at(10.0, [&] {
    f.client.request_bid(f.daemon->id(), contract, "alice", "pw");
  });
  f.engine.run(11.0);
  ASSERT_EQ(f.client.bids.size(), 4u);
  // Issuing the t=10 bid forgot the three that expired at t~1.
  EXPECT_EQ(f.daemon->open_bids(), 1u);
  f.client.award(f.daemon->id(), f.client.bids[0].id, UserId{0});
  f.engine.run(15.0);
  ASSERT_EQ(f.client.reserves.size(), 1u);
  EXPECT_FALSE(f.client.reserves[0].accepted);
  EXPECT_EQ(f.client.reserves[0].reason, "bid unknown or expired");
}

TEST(Daemon, LiveBidSurvivesPruning) {
  DaemonConfig config;
  config.bid_validity = 10.0;
  Fixture f{config};
  const auto contract = qos::make_contract(4, 32, 1000.0);
  for (const double at : {0.0, 8.0, 12.0}) {
    f.engine.schedule_at(at, [&f, &contract] {
      f.client.request_bid(f.daemon->id(), contract, "alice", "pw");
    });
  }
  f.engine.run(13.0);
  ASSERT_EQ(f.client.bids.size(), 3u);
  // Only the t=0 bid had expired when the t=12 bid was issued.
  EXPECT_EQ(f.daemon->open_bids(), 2u);
  f.client.award(f.daemon->id(), f.client.bids[1].id, UserId{0});
  f.engine.run(15.0);
  ASSERT_EQ(f.client.reserves.size(), 1u);
  EXPECT_TRUE(f.client.reserves[0].accepted);
  EXPECT_EQ(f.daemon->open_bids(), 1u) << "a reserved bid leaves the book";
}

TEST(Daemon, LostAuthExchangeIsForgotten) {
  DaemonConfig config;
  config.bid_validity = 10.0;
  Fixture f{config};
  const auto contract = qos::make_contract(4, 32, 1000.0);
  // The Central Server is cut off while the RFB's credential check is in
  // flight, so the AUTH_REQ is lost and no reply will ever come.
  sim::FaultConfig faults;
  faults.partitions.push_back(sim::Partition{f.central.id(), 5.0, 6.0});
  f.network.set_faults(faults);
  f.engine.schedule_at(5.0, [&] {
    f.client.request_bid(f.daemon->id(), contract, "alice", "pw");
  });
  f.engine.run(7.0);
  EXPECT_TRUE(f.client.bids.empty());
  EXPECT_EQ(f.daemon->pending_auth(), 1u);
  // The next RFB, past bid_validity, forgets the lost check; its own check
  // completes normally.
  f.engine.schedule_at(20.0, [&] {
    f.client.request_bid(f.daemon->id(), contract, "alice", "pw");
  });
  f.engine.run(21.0);
  ASSERT_EQ(f.client.bids.size(), 1u);
  EXPECT_FALSE(f.client.bids[0].declined);
  EXPECT_EQ(f.daemon->pending_auth(), 0u);
}

TEST(Daemon, PollReportsClusterState) {
  Fixture f;
  // Polls are driven by the Central Server's timer (default 60 s); run past
  // one cycle and check the dynamic filter sees updated numbers.
  const auto contract = qos::make_contract(64, 64, 64.0 * 1e4, 1.0, 1.0);
  f.client.request_bid(f.daemon->id(), contract, "alice", "pw");
  f.engine.run(5.0);
  f.client.award(f.daemon->id(), f.client.bids[0].id, UserId{0});
  f.engine.run(70.0);  // one poll cycle after the job started
  // Directory for a second job of the same size should still include the
  // cluster (no dynamic limit configured) — this exercises the poll path.
  const auto uid = f.central.register_user("bob", "pw2");
  ASSERT_TRUE(uid);
  EXPECT_EQ(f.central.filter_servers(qos::make_contract(4, 8, 100.0), *uid).size(),
            1u);
}

}  // namespace
}  // namespace faucets
