#include "src/sim/network.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/sim/context.hpp"

namespace faucets::sim {
namespace {

struct Ping final : Message {
  static constexpr MessageKind kKind = MessageKind::kPoll;
  int payload = 0;
  explicit Ping(int p = 0) : payload(p) {}
  [[nodiscard]] MessageKind kind() const noexcept override { return kKind; }
};

struct BigMessage final : Message {
  static constexpr MessageKind kKind = MessageKind::kCustom;
  std::size_t bytes;
  explicit BigMessage(std::size_t b) : bytes(b) {}
  [[nodiscard]] MessageKind kind() const noexcept override { return kKind; }
  [[nodiscard]] std::size_t size_bytes() const noexcept override { return bytes; }
};

class Recorder final : public Entity {
 public:
  Recorder(std::string name, SimContext& ctx) : Entity(std::move(name), ctx) {}
  void on_message(const Message& msg) override {
    arrivals.emplace_back(now(), std::string(msg.kind_name()));
    if (msg.kind() == Ping::kKind) {
      payloads.push_back(message_cast<Ping>(msg).payload);
    }
  }
  std::vector<std::pair<double, std::string>> arrivals;
  std::vector<int> payloads;
};

class NetworkTest : public ::testing::Test {
 protected:
  SimContext ctx;
  Engine& engine = ctx.engine();
  Network& net = ctx.network();
};

TEST_F(NetworkTest, AttachAssignsDistinctIds) {
  Recorder a{"a", ctx};
  Recorder b{"b", ctx};
  net.attach(a);
  net.attach(b);
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(net.find(a.id()), &a);
  EXPECT_EQ(net.find(b.id()), &b);
}

TEST_F(NetworkTest, DeliversAfterBaseLatency) {
  Recorder a{"a", ctx};
  Recorder b{"b", ctx};
  net.attach(a);
  net.attach(b);
  net.send(a, b.id(), std::make_unique<Ping>(42));
  engine.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  // base latency + 256 bytes over 1.25e8 B/s
  EXPECT_NEAR(b.arrivals[0].first, 0.010 + 256.0 / 1.25e8, 1e-12);
  EXPECT_EQ(b.payloads[0], 42);
}

TEST_F(NetworkTest, SelfSendUsesLocalLatency) {
  Recorder a{"a", ctx};
  net.attach(a);
  net.send(a, a.id(), std::make_unique<Ping>());
  engine.run();
  ASSERT_EQ(a.arrivals.size(), 1u);
  EXPECT_LT(a.arrivals[0].first, 1e-4);
}

TEST_F(NetworkTest, BandwidthDelaysLargeMessages) {
  Recorder a{"a", ctx};
  Recorder b{"b", ctx};
  net.attach(a);
  net.attach(b);
  net.send(a, b.id(), std::make_unique<BigMessage>(static_cast<std::size_t>(1.25e8)));
  engine.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_NEAR(b.arrivals[0].first, 1.010, 1e-9);  // 1 s of transfer + latency
}

TEST_F(NetworkTest, DetachedReceiverDropsMessages) {
  Recorder a{"a", ctx};
  Recorder b{"b", ctx};
  net.attach(a);
  net.attach(b);
  net.send(a, b.id(), std::make_unique<Ping>());
  net.detach(b.id());
  engine.run();
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.messages_delivered(), 0u);
}

TEST_F(NetworkTest, DetachedReceiverDropIsTraced) {
  Recorder a{"a", ctx};
  Recorder b{"b", ctx};
  net.attach(a);
  net.attach(b);
  net.send(a, b.id(), std::make_unique<Ping>());
  const EntityId gone = b.id();
  net.detach(gone);
  engine.run();
  EXPECT_EQ(net.messages_dropped(), 1u);
  bool traced = false;
  ctx.trace().for_each([&](const obs::TraceEvent& ev) {
    if (ev.kind == obs::TraceEventKind::kNetDrop && ev.entity == gone &&
        ev.payload.net.message_kind ==
            static_cast<std::uint8_t>(MessageKind::kPoll) &&
        ev.payload.net.reason == obs::DropReason::kReceiverDetached) {
      traced = true;
    }
  });
  EXPECT_TRUE(traced) << "dropped delivery must leave a typed trace event";
}

TEST_F(NetworkTest, DetachedSenderDropsAndTraces) {
  Recorder a{"a", ctx};
  Recorder b{"b", ctx};
  net.attach(a);
  net.attach(b);
  net.detach(a.id());
  net.send(a, b.id(), std::make_unique<Ping>());
  engine.run();
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_EQ(net.messages_sent(), 0u) << "a detached sender cannot inject traffic";
  EXPECT_EQ(net.messages_dropped(), 1u);
  bool traced = false;
  ctx.trace().for_each([&](const obs::TraceEvent& ev) {
    if (ev.kind == obs::TraceEventKind::kNetDrop &&
        ev.payload.net.reason == obs::DropReason::kSenderDetached) {
      traced = true;
    }
  });
  EXPECT_TRUE(traced);
}

TEST_F(NetworkTest, CountersTrackTraffic) {
  Recorder a{"a", ctx};
  Recorder b{"b", ctx};
  net.attach(a);
  net.attach(b);
  net.send(a, b.id(), std::make_unique<Ping>());
  net.send(b, a.id(), std::make_unique<Ping>());
  engine.run();
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.messages_delivered(), 2u);
  EXPECT_EQ(net.bytes_sent(), 512u);
}

TEST_F(NetworkTest, PerKindCountersTrackTraffic) {
  Recorder a{"a", ctx};
  Recorder b{"b", ctx};
  net.attach(a);
  net.attach(b);
  net.send(a, b.id(), std::make_unique<Ping>());
  net.send(a, b.id(), std::make_unique<Ping>());
  net.send(b, a.id(), std::make_unique<BigMessage>(16));
  engine.run();
  EXPECT_EQ(net.sent_of(MessageKind::kPoll), 2u);
  EXPECT_EQ(net.delivered_of(MessageKind::kPoll), 2u);
  EXPECT_EQ(net.sent_of(MessageKind::kCustom), 1u);
  EXPECT_EQ(net.delivered_of(MessageKind::kCustom), 1u);
  EXPECT_EQ(net.sent_of(MessageKind::kBid), 0u);
  // Drops count as sent but not delivered for that kind.
  net.detach(b.id());
  net.send(a, b.id(), std::make_unique<Ping>());
  engine.run();
  EXPECT_EQ(net.sent_of(MessageKind::kPoll), 3u);
  EXPECT_EQ(net.delivered_of(MessageKind::kPoll), 2u);
}

TEST_F(NetworkTest, MessageMetadataFilledIn) {
  Recorder a{"a", ctx};
  net.attach(a);
  class Checker final : public Entity {
   public:
    explicit Checker(SimContext& c) : Entity("c", c) {}
    void on_message(const Message& msg) override {
      from = msg.from;
      sent_at = msg.sent_at;
    }
    EntityId from;
    double sent_at = -1.0;
  } checker{ctx};
  net.attach(checker);
  engine.schedule_at(5.0, [&] { net.send(a, checker.id(), std::make_unique<Ping>()); });
  engine.run();
  EXPECT_EQ(checker.from, a.id());
  EXPECT_EQ(checker.sent_at, 5.0);
}

TEST_F(NetworkTest, SendToNeverAttachedIdDropsOnDelivery) {
  Recorder a{"a", ctx};
  Recorder b{"b", ctx};
  net.attach(a);
  net.attach(b);
  const EntityId past_last{b.id().value() + 1};
  net.send(a, EntityId{}, std::make_unique<Ping>());
  net.send(a, past_last, std::make_unique<Ping>());
  engine.run();
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.messages_delivered(), 0u);
  EXPECT_EQ(net.dropped_of(obs::DropReason::kReceiverDetached), 2u);
  EXPECT_EQ(net.traffic_of(a.id()), 2u);
  EXPECT_EQ(net.traffic_of(EntityId{}), 0u);
  EXPECT_EQ(net.traffic_of(past_last), 0u);
  EXPECT_EQ(net.find(past_last), nullptr);
}

TEST_F(NetworkTest, FindUnknownReturnsNull) {
  EXPECT_EQ(net.find(EntityId{999}), nullptr);
}

}  // namespace
}  // namespace faucets::sim
