// Central Server unit tests: registration, filtering, polling liveness,
// authentication round trips, and the filter against a reference copy of
// its first algorithm on generated directories.
#include "src/faucets/central.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "src/faucets/daemon.hpp"
#include "src/market/bidgen.hpp"
#include "src/sched/equipartition.hpp"
#include "src/util/rng.hpp"

namespace faucets {
namespace {

struct Fixture {
  sim::SimContext ctx;
  sim::Engine& engine = ctx.engine();
  sim::Network& network = ctx.network();
  CentralServerConfig config;

  std::unique_ptr<CentralServer> central;

  explicit Fixture(CentralServerConfig cfg = {}) : config(cfg) {
    central = std::make_unique<CentralServer>(ctx, config);
  }

  std::unique_ptr<FaucetsDaemon> add_daemon(ClusterId id, int procs,
                                            double mem_mb = 4096.0) {
    cluster::MachineSpec m;
    m.name = "c" + std::to_string(id.value());
    m.total_procs = procs;
    m.memory_per_proc_mb = mem_mb;
    auto cm = std::make_unique<cluster::ClusterManager>(
        ctx, m, std::make_unique<sched::EquipartitionStrategy>(),
        job::AdaptiveCosts{}, id);
    auto d = std::make_unique<FaucetsDaemon>(
        ctx, id, std::move(cm),
        std::make_unique<market::BaselineBidGenerator>(), central->id());
    d->register_with_central();
    return d;
  }
};

TEST(Central, DaemonRegistrationPopulatesDirectory) {
  Fixture f;
  auto d0 = f.add_daemon(ClusterId{0}, 64);
  auto d1 = f.add_daemon(ClusterId{1}, 128);
  f.engine.run(1.0);
  EXPECT_EQ(f.central->directory_size(), 2u);
}

TEST(Central, FilterBySize) {
  Fixture f;
  auto d0 = f.add_daemon(ClusterId{0}, 64);
  auto d1 = f.add_daemon(ClusterId{1}, 512);
  const auto uid = f.central->register_user("u", "p");
  ASSERT_TRUE(uid);
  f.engine.run(1.0);

  const auto big = qos::make_contract(256, 400, 1000.0);
  const auto servers = f.central->filter_servers(big, *uid);
  ASSERT_EQ(servers.size(), 1u);
  EXPECT_EQ(servers[0].cluster, ClusterId{1});
}

TEST(Central, FilterByMemory) {
  Fixture f;
  auto d0 = f.add_daemon(ClusterId{0}, 64, 512.0);
  auto d1 = f.add_daemon(ClusterId{1}, 64, 8192.0);
  const auto uid = f.central->register_user("u", "p");
  f.engine.run(1.0);

  auto c = qos::make_contract(4, 8, 100.0);
  c.resources.memory_per_proc_mb = 2048.0;
  const auto servers = f.central->filter_servers(c, *uid);
  ASSERT_EQ(servers.size(), 1u);
  EXPECT_EQ(servers[0].cluster, ClusterId{1});
}

TEST(Central, UnknownApplicationFilteredWhenRegistryUsed) {
  Fixture f;
  auto d0 = f.add_daemon(ClusterId{0}, 64);
  const auto uid = f.central->register_user("u", "p");
  f.central->register_application("namd");
  f.engine.run(1.0);

  auto c = qos::make_contract(4, 8, 100.0);
  c.environment.application = "namd";
  EXPECT_EQ(f.central->filter_servers(c, *uid).size(), 1u);
  c.environment.application = "unknown-app";
  // The app registry knows nothing about it -> no servers offered...
  EXPECT_TRUE(f.central->filter_servers(c, *uid).empty());
  // ...but the empty application (generic job) is always allowed.
  c.environment.application = "";
  EXPECT_EQ(f.central->filter_servers(c, *uid).size(), 1u);
}

TEST(Central, DynamicQueueFilter) {
  CentralServerConfig cfg;
  cfg.dynamic_queue_limit = 0;
  cfg.poll_interval = 10.0;
  Fixture f{cfg};
  auto d0 = f.add_daemon(ClusterId{0}, 64);
  const auto uid = f.central->register_user("u", "p");
  f.engine.run(1.0);
  EXPECT_EQ(f.central
                ->filter_servers(qos::make_contract(4, 8, 100.0), *uid)
                .size(),
            1u);
  // Saturate the cluster with queued work, then let a poll observe it.
  for (int i = 0; i < 5; ++i) {
    (void)d0->cm().submit(UserId{0}, qos::make_contract(64, 64, 1e6, 1.0, 1.0));
  }
  f.engine.run(25.0);  // poll at t=10 and t=20 observes the queue
  EXPECT_TRUE(
      f.central->filter_servers(qos::make_contract(4, 8, 100.0), *uid).empty());
}

TEST(Central, MissedPollsMarkServerDown) {
  CentralServerConfig cfg;
  cfg.poll_interval = 10.0;
  cfg.max_missed_polls = 2;
  Fixture f{cfg};
  auto d0 = f.add_daemon(ClusterId{0}, 64);
  const auto uid = f.central->register_user("u", "p");
  f.engine.run(1.0);

  // Kill the daemon (detach from the network): polls go unanswered.
  f.network.detach(d0->id());
  f.engine.run(100.0);
  EXPECT_TRUE(
      f.central->filter_servers(qos::make_contract(4, 8, 100.0), *uid).empty());
}

TEST(Central, HomeClusterListedFirstInBarterMode) {
  CentralServerConfig cfg;
  cfg.billing = BillingMode::kBarter;
  Fixture f{cfg};
  auto d0 = f.add_daemon(ClusterId{0}, 64);
  auto d1 = f.add_daemon(ClusterId{1}, 64);
  f.central->open_barter_account(ClusterId{0}, 1000.0);
  f.central->open_barter_account(ClusterId{1}, 1000.0);
  const auto uid = f.central->register_user("u", "p", ClusterId{1});
  f.engine.run(1.0);

  const auto servers =
      f.central->filter_servers(qos::make_contract(4, 8, 100.0), *uid);
  ASSERT_EQ(servers.size(), 2u);
  EXPECT_EQ(servers[0].cluster, ClusterId{1});
}

TEST(Central, HomeClusterListedFirstInDollarMode) {
  Fixture f;  // dollar billing
  auto d0 = f.add_daemon(ClusterId{0}, 64);
  auto d1 = f.add_daemon(ClusterId{1}, 64);
  auto d2 = f.add_daemon(ClusterId{2}, 64);
  const auto uid = f.central->register_user("u", "p", ClusterId{1});
  f.engine.run(1.0);

  const auto servers =
      f.central->filter_servers(qos::make_contract(4, 8, 100.0), *uid);
  ASSERT_EQ(servers.size(), 3u);
  EXPECT_EQ(servers[0].cluster, ClusterId{1});
  EXPECT_EQ(servers[0].daemon, d1->id());
  EXPECT_EQ(servers[1].cluster, ClusterId{0});
  EXPECT_EQ(servers[2].cluster, ClusterId{2});
}

TEST(Central, BarterModeHidesForeignClustersWithoutCredits) {
  CentralServerConfig cfg;
  cfg.billing = BillingMode::kBarter;
  Fixture f{cfg};
  auto d0 = f.add_daemon(ClusterId{0}, 64);
  auto d1 = f.add_daemon(ClusterId{1}, 64);
  f.central->open_barter_account(ClusterId{0}, 0.0);  // home is broke
  f.central->open_barter_account(ClusterId{1}, 1000.0);
  const auto uid = f.central->register_user("u", "p", ClusterId{0});
  f.engine.run(1.0);

  const auto servers =
      f.central->filter_servers(qos::make_contract(4, 8, 1000.0), *uid);
  ASSERT_EQ(servers.size(), 1u) << "only the home cluster should be offered";
  EXPECT_EQ(servers[0].cluster, ClusterId{0});
}

TEST(Central, RegisterUserOpensAccount) {
  Fixture f;
  const auto uid = f.central->register_user("u", "p");
  ASSERT_TRUE(uid);
  EXPECT_TRUE(f.central->user_accounts().has_account(*uid));
  EXPECT_FALSE(f.central->register_user("u", "again").has_value());
}

TEST(Central, HomeClusterLookup) {
  Fixture f;
  const auto uid = f.central->register_user("u", "p", ClusterId{3});
  ASSERT_TRUE(uid);
  EXPECT_EQ(f.central->home_cluster_of(*uid), ClusterId{3});
  const auto uid2 = f.central->register_user("v", "p");
  EXPECT_FALSE(f.central->home_cluster_of(*uid2).has_value());
}

// ------------------------------------ the filter against a reference copy

/// Stands in for a Faucets Daemon: registers a machine and answers the
/// Central Server's polls while `responsive`, reporting `queued` jobs. Once
/// the network is quiet, `unanswered` is the server's missed-poll count and
/// `reported_queue` the queue depth it last heard.
class StubDaemon final : public sim::Entity {
 public:
  StubDaemon(sim::SimContext& ctx, ClusterId cluster, EntityId central)
      : sim::Entity("stub-daemon", ctx),
        network_(&ctx.network()),
        cluster_(cluster),
        central_(central) {
    network_->attach(*this);
  }

  void register_machine(const cluster::MachineSpec& machine) {
    auto msg = std::make_unique<proto::RegisterDaemon>();
    msg->cluster = cluster_;
    msg->machine = machine;
    network_->send(*this, central_, std::move(msg));
    unanswered = 0;
    reported_queue = 0;
  }

  void on_message(const sim::Message& msg) override {
    if (msg.kind() != sim::MessageKind::kPoll) return;
    if (!responsive) {
      ++unanswered;
      return;
    }
    auto reply = std::make_unique<proto::PollReply>();
    reply->cluster = cluster_;
    reply->queued_jobs = queued;
    network_->send(*this, msg.from, std::move(reply));
    unanswered = 0;
    reported_queue = queued;
  }

  bool responsive = true;
  std::size_t queued = 0;
  std::size_t reported_queue = 0;
  int unanswered = 0;

 private:
  sim::Network* network_;
  ClusterId cluster_;
  EntityId central_;
};

/// One registered server as the test knows it: its last registered machine
/// and the stub the Central Server now polls.
struct Registered {
  ClusterId cluster;
  cluster::MachineSpec machine;
  StubDaemon* daemon = nullptr;
};

/// The filter's first algorithm, kept as the reference: walk every entry,
/// then sort the home cluster first and the rest by ClusterId.
std::vector<proto::ServerInfo> reference_filter(const CentralServer& central,
                                                const std::vector<Registered>& directory,
                                                const qos::QosContract& contract,
                                                UserId user) {
  const CentralServerConfig& config = central.config();
  const auto home = central.home_cluster_of(user);
  std::vector<proto::ServerInfo> out;
  for (const Registered& entry : directory) {
    if (entry.daemon->unanswered > config.max_missed_polls) continue;
    if (!entry.machine.can_ever_run(contract)) continue;
    if (!central.application_known(contract.environment.application)) continue;
    if (config.dynamic_queue_limit >= 0 &&
        entry.daemon->reported_queue >
            static_cast<std::size_t>(config.dynamic_queue_limit)) {
      continue;
    }
    if (config.billing == BillingMode::kBarter && home.has_value() &&
        entry.cluster != *home) {
      const double est_credits = contract.total_work() *
                                 entry.machine.cost_per_cpu_second /
                                 std::max(entry.machine.speed_factor, 1e-9);
      if (!central.barter_ledger().can_spend(*home, est_credits)) continue;
    }
    out.push_back(proto::ServerInfo{entry.cluster, entry.daemon->id()});
  }
  std::sort(out.begin(), out.end(),
            [&](const proto::ServerInfo& a, const proto::ServerInfo& b) {
              if (home.has_value()) {
                const bool ah = a.cluster == *home;
                const bool bh = b.cluster == *home;
                if (ah != bh) return ah;
              }
              return a.cluster < b.cluster;
            });
  return out;
}

template <typename T, std::size_t N>
T pick(Rng& rng, const std::array<T, N>& from) {
  return from[static_cast<std::size_t>(rng.uniform_int(0, N - 1))];
}

std::vector<std::string> pick_libraries(Rng& rng) {
  std::vector<std::string> libs;
  for (const char* lib : {"charm++", "ampi", "mpi", "fftw"}) {
    if (rng.bernoulli(0.5)) libs.emplace_back(lib);
  }
  return libs;
}

cluster::MachineSpec random_machine(Rng& rng) {
  cluster::MachineSpec m;
  m.total_procs = pick(rng, std::array{4, 16, 64, 128});
  m.memory_per_proc_mb = pick(rng, std::array{512.0, 2048.0, 8192.0});
  m.speed_factor = pick(rng, std::array{0.5, 1.0, 2.0});
  m.cost_per_cpu_second = pick(rng, std::array{0.0004, 0.0008, 0.002});
  m.provides.application = pick(rng, std::array<std::string, 3>{"", "namd", "cfd"});
  m.provides.operating_system =
      pick(rng, std::array<std::string, 3>{"linux", "aix", ""});
  m.provides.libraries = pick_libraries(rng);
  return m;
}

qos::QosContract random_contract(Rng& rng) {
  const int min_procs = pick(rng, std::array{1, 4, 16, 32, 64, 100});
  auto c = qos::make_contract(min_procs, 2 * min_procs, rng.uniform(10.0, 5000.0));
  c.resources.memory_per_proc_mb = pick(rng, std::array{0.0, 1024.0, 4096.0});
  c.environment.application = pick(rng, std::array<std::string, 3>{"", "namd", "cfd"});
  c.environment.operating_system =
      pick(rng, std::array<std::string, 3>{"", "linux", "aix"});
  c.environment.libraries = pick_libraries(rng);
  if (rng.bernoulli(0.5)) c.environment.libraries.clear();
  return c;
}

// Generated directories: clusters with sparse ids registering in shuffled
// order, re-registrations with another machine (from the same daemon or a
// new one), daemons that stop answering polls and come back, changing queue
// depths under a random dynamic filter, a known-applications registry or
// none, and every billing mode with random barter balances and homes. Every
// reply must equal the reference's, field by field and in order.
TEST(CentralProperty, FilterMatchesReferenceOnGeneratedDirectories) {
  constexpr std::array kBilling{BillingMode::kDollars, BillingMode::kServiceUnits,
                                BillingMode::kBarter};
  std::size_t listed = 0;   // servers in all replies
  std::size_t down = 0;     // (epoch, server) pairs down for missed polls
  std::size_t reregistered = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng{seed};
    CentralServerConfig cfg;
    cfg.poll_interval = 10.0;
    cfg.max_missed_polls = static_cast<int>(rng.uniform_int(0, 2));
    cfg.billing = pick(rng, kBilling);
    cfg.dynamic_queue_limit = static_cast<int>(rng.uniform_int(-1, 3));
    cfg.barter_debt_limit = rng.bernoulli(0.5) ? 0.0 : 5.0;
    sim::SimContext ctx;
    CentralServer central(ctx, cfg);
    if (rng.bernoulli(0.5)) central.register_application("namd");

    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 30));
    std::vector<ClusterId> ids;
    for (std::uint64_t v = 0; ids.size() < n; ++v) {
      if (rng.bernoulli(0.4)) ids.emplace_back(v);
    }
    std::shuffle(ids.begin(), ids.end(), rng);
    for (const ClusterId id : ids) {
      if (rng.bernoulli(0.9)) central.open_barter_account(id, rng.uniform(0.0, 40.0));
    }
    // Homes: none, a cluster that never registers, or a registered one.
    std::vector<UserId> users;
    for (int u = 0; u < 6; ++u) {
      ClusterId home;
      switch (rng.uniform_int(0, 3)) {
        case 0: break;
        case 1: home = ClusterId{1000}; break;
        default: home = pick(rng, std::array{ids.front(), ids.back(), ids[n / 2]});
      }
      users.push_back(*central.register_user("u" + std::to_string(u), "p", home));
    }

    std::vector<std::unique_ptr<StubDaemon>> stubs;
    std::vector<Registered> directory;
    std::size_t next = 0;  // ids[next] is the next cluster to register
    for (int epoch = 0; epoch < 8; ++epoch) {
      // Mid-way between polls, so each exchange below completes before the
      // next poll and every check runs on a quiet network.
      ctx.engine().run(10.0 * epoch + 5.0);
      for (auto k = rng.uniform_int(0, 6); k > 0 && next < n; --k) {
        stubs.push_back(std::make_unique<StubDaemon>(ctx, ids[next], central.id()));
        directory.push_back({ids[next], random_machine(rng), stubs.back().get()});
        directory.back().daemon->register_machine(directory.back().machine);
        ++next;
      }
      if (!directory.empty() && rng.bernoulli(0.6)) {
        Registered& again = directory[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(directory.size()) - 1))];
        again.machine = random_machine(rng);
        if (rng.bernoulli(0.5)) {
          stubs.push_back(std::make_unique<StubDaemon>(ctx, again.cluster, central.id()));
          again.daemon = stubs.back().get();
        }
        again.daemon->register_machine(again.machine);
        ++reregistered;
      }
      for (Registered& entry : directory) {
        if (rng.bernoulli(0.25)) entry.daemon->responsive = !entry.daemon->responsive;
        entry.daemon->queued = static_cast<std::size_t>(rng.uniform_int(0, 4));
      }
      ctx.engine().run(10.0 * epoch + 15.0);

      ASSERT_EQ(central.directory_size(), directory.size());
      for (const Registered& entry : directory) {
        if (entry.daemon->unanswered > cfg.max_missed_polls) ++down;
      }
      for (int q = 0; q < 12; ++q) {
        const auto contract = random_contract(rng);
        const UserId user = users[static_cast<std::size_t>(q) % users.size()];
        const auto got = central.filter_servers(contract, user);
        const auto want = reference_filter(central, directory, contract, user);
        SCOPED_TRACE("epoch " + std::to_string(epoch) + ", query " + std::to_string(q));
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].cluster, want[i].cluster) << "row " << i;
          ASSERT_EQ(got[i].daemon, want[i].daemon) << "row " << i;
        }
        listed += got.size();
      }
    }
  }
  // The generator reaches every case it is meant to.
  EXPECT_GT(listed, 1000u);
  EXPECT_GT(down, 100u);
  EXPECT_GT(reregistered, 100u);
}

}  // namespace
}  // namespace faucets
