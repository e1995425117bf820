// Deterministic fault injection (src/sim/faults.hpp): seeded loss patterns
// repeat exactly, partitions blackhole both directions and heal on schedule,
// jitter stays inside its bound, and a reattached entity keeps its address.
#include "src/sim/faults.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/context.hpp"
#include "src/sim/network.hpp"

namespace faucets::sim {
namespace {

struct Ping final : Message {
  static constexpr MessageKind kKind = MessageKind::kPoll;
  [[nodiscard]] MessageKind kind() const noexcept override { return kKind; }
};

class Recorder final : public Entity {
 public:
  Recorder(std::string name, SimContext& ctx) : Entity(std::move(name), ctx) {}
  void on_message(const Message&) override { arrivals.push_back(now()); }
  std::vector<double> arrivals;
};

TEST(FaultInjector, DisabledTouchesNothing) {
  FaultInjector inj;
  EXPECT_FALSE(inj.enabled());
  const auto v = inj.inspect(EntityId{1}, EntityId{2}, 0.0);
  EXPECT_FALSE(v.drop);
  EXPECT_DOUBLE_EQ(v.extra_delay, 0.0);
}

TEST(FaultInjector, SeededLossIsDeterministic) {
  auto pattern = [](std::uint64_t seed) {
    FaultInjector inj;
    FaultConfig config;
    config.loss_rate = 0.3;
    config.seed = seed;
    inj.configure(std::move(config));
    std::vector<bool> drops;
    for (int i = 0; i < 200; ++i) {
      drops.push_back(inj.inspect(EntityId{1}, EntityId{2}, 0.0).drop);
    }
    return drops;
  };
  const auto a = pattern(42);
  const auto b = pattern(42);
  const auto c = pattern(43);
  EXPECT_EQ(a, b) << "identical seeds must give identical drop patterns";
  EXPECT_NE(a, c) << "different seeds must diverge";
  // Roughly 30% of 200 messages drop.
  const auto dropped = std::count(a.begin(), a.end(), true);
  EXPECT_GT(dropped, 30);
  EXPECT_LT(dropped, 90);
}

TEST(FaultInjector, LoopbackIsNeverFaulted) {
  FaultInjector inj;
  inj.configure({.loss_rate = 1.0,
                 .partitions = {{EntityId{7}, 0.0, 1e9}}});
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(inj.inspect(EntityId{7}, EntityId{7}, 10.0).drop);
  }
}

TEST(FaultInjector, PartitionDropsBothDirectionsAndHeals) {
  FaultInjector inj;
  inj.configure({.partitions = {{EntityId{3}, 100.0, 200.0}}});
  // Before the window: delivery.
  EXPECT_FALSE(inj.inspect(EntityId{1}, EntityId{3}, 99.9).drop);
  // Inside: both directions blackholed with the partition reason.
  const auto in = inj.inspect(EntityId{1}, EntityId{3}, 150.0);
  EXPECT_TRUE(in.drop);
  EXPECT_EQ(in.reason, obs::DropReason::kPartitioned);
  EXPECT_TRUE(inj.inspect(EntityId{3}, EntityId{1}, 150.0).drop);
  // Healed: the window is half-open [from, until).
  EXPECT_FALSE(inj.inspect(EntityId{1}, EntityId{3}, 200.0).drop);
  EXPECT_TRUE(inj.partitioned(EntityId{3}, 150.0));
  EXPECT_FALSE(inj.partitioned(EntityId{3}, 200.0));
  EXPECT_FALSE(inj.partitioned(EntityId{4}, 150.0));
}

TEST(FaultInjector, JitterStaysInsideBound) {
  FaultInjector inj;
  FaultConfig config;
  config.jitter = 2.5;
  inj.configure(std::move(config));
  for (int i = 0; i < 500; ++i) {
    const auto v = inj.inspect(EntityId{1}, EntityId{2}, 0.0);
    EXPECT_FALSE(v.drop);
    EXPECT_GE(v.extra_delay, 0.0);
    EXPECT_LT(v.extra_delay, 2.5);
  }
}

TEST(FaultyNetwork, LossIsCountedByReason) {
  SimContext ctx;
  Recorder a{"a", ctx};
  Recorder b{"b", ctx};
  ctx.network().attach(a);
  ctx.network().attach(b);
  FaultConfig config;
  config.loss_rate = 0.5;
  config.seed = 7;
  ctx.network().set_faults(std::move(config));
  for (int i = 0; i < 100; ++i) {
    ctx.network().send(a, b.id(), std::make_unique<Ping>());
  }
  ctx.engine().run();
  const auto lost = ctx.network().dropped_of(obs::DropReason::kFaultInjected);
  EXPECT_GT(lost, 20u);
  EXPECT_LT(lost, 80u);
  EXPECT_EQ(b.arrivals.size(), 100u - lost);
  EXPECT_EQ(ctx.network().messages_sent(), 100u)
      << "faulted messages still count as sent (the sender paid for them)";
}

TEST(FaultyNetwork, PartitionWindowDropsThenHeals) {
  SimContext ctx;
  Recorder a{"a", ctx};
  Recorder b{"b", ctx};
  ctx.network().attach(a);
  ctx.network().attach(b);
  ctx.network().set_faults({.partitions = {{b.id(), 10.0, 20.0}}});
  for (const double t : {5.0, 15.0, 25.0}) {
    ctx.engine().schedule_at(t, [&] {
      ctx.network().send(a, b.id(), std::make_unique<Ping>());
    });
  }
  ctx.engine().run();
  EXPECT_EQ(b.arrivals.size(), 2u) << "only the mid-window send is lost";
  EXPECT_EQ(ctx.network().dropped_of(obs::DropReason::kPartitioned), 1u);
}

TEST(FaultyNetwork, ReattachKeepsTheAddress) {
  SimContext ctx;
  Recorder a{"a", ctx};
  Recorder b{"b", ctx};
  ctx.network().attach(a);
  ctx.network().attach(b);
  const EntityId address = b.id();
  ctx.network().detach(address);
  EXPECT_EQ(ctx.network().find(address), nullptr);
  ctx.network().reattach(b);
  EXPECT_EQ(b.id(), address) << "a restarted entity keeps its address";
  EXPECT_EQ(ctx.network().find(address), &b);
  ctx.network().send(a, address, std::make_unique<Ping>());
  ctx.engine().run();
  EXPECT_EQ(b.arrivals.size(), 1u);
}

}  // namespace
}  // namespace faucets::sim
