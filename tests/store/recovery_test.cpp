// Crash recovery of the Central Server's accounting state (DESIGN.md §14):
// every journaled mutation replays over the latest snapshot to the exact
// live state (compared by encoded bytes), credits are conserved across the
// crash, a torn WAL tail loses only the unsynced suffix, and recovery of a
// real grid run's store reproduces the report's ledger totals.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "src/core/scenario.hpp"
#include "src/faucets/central_store.hpp"
#include "src/market/price_history.hpp"
#include "src/store/codec.hpp"
#include "src/store/store.hpp"
#include "src/util/ids.hpp"

namespace faucets {
namespace {

namespace fs = std::filesystem;

/// Wire all four components of `state` through `store` and journal a
/// representative mutation history.
void mutate_through(CentralState& state, store::StateStore& store) {
  state.users.set_store(&store);
  state.accounts.set_store(&store);
  state.ledger.set_store(&store);
  state.prices.set_store(&store);

  const auto alice = state.users.add_user("alice", "hunter2");
  const auto bob = state.users.add_user("bob", "swordfish");
  ASSERT_TRUE(alice && bob);
  ASSERT_TRUE(state.users.change_password("bob", "swordfish", "tr0ut"));

  state.accounts.open_account(*alice, 500.0);
  state.accounts.open_account(*bob, 250.0);
  ASSERT_TRUE(state.accounts.charge(*alice, 120.0));
  state.accounts.deposit(*bob, 40.0);

  state.ledger.open_account(ClusterId{1}, 1000.0);
  state.ledger.open_account(ClusterId{2}, 1000.0);
  state.ledger.set_clock(nullptr);
  ASSERT_TRUE(state.ledger.transfer(ClusterId{1}, ClusterId{2}, 300.0));
  ASSERT_TRUE(state.ledger.transfer(ClusterId{2}, ClusterId{1}, 50.0));

  state.prices.record({10.0, ClusterId{1}, 8, 800.0, 2.5});
  state.prices.record({20.0, ClusterId{2}, 16, 1600.0, 4.0});
}

TEST(Recovery, ReplaysWalOverSnapshotToTheExactLiveState) {
  store::MemStore store;
  store.snapshot("");  // open the session with the empty image
  CentralState live;
  mutate_through(live, store);

  bool torn = true;
  const CentralState recovered = recover_central_state(store, &torn);
  EXPECT_FALSE(torn);
  EXPECT_EQ(encode_central_state(recovered), encode_central_state(live))
      << "empty snapshot + full WAL replay must equal the live state";

  // Behavior, not just bytes: passwords verify, balances match, credits
  // conserved.
  EXPECT_TRUE(recovered.users.verify("bob", "tr0ut"));
  EXPECT_FALSE(recovered.users.verify("bob", "swordfish"));
  EXPECT_DOUBLE_EQ(recovered.ledger.total_credits(), 2000.0);
  EXPECT_DOUBLE_EQ(recovered.ledger.balance(ClusterId{1}), 750.0);
  EXPECT_DOUBLE_EQ(recovered.accounts.total_charged(), 120.0);
  EXPECT_EQ(recovered.prices.size(), 2u);
}

TEST(Recovery, SnapshotThenMoreOpsReplaysOnlyTheSuffix) {
  store::MemStore store;
  store.snapshot("");
  CentralState live;
  mutate_through(live, store);

  // Roll the WAL into a snapshot, then keep mutating.
  store.snapshot(encode_central_state(live));
  EXPECT_EQ(store.appends_since_snapshot(), 0u);
  ASSERT_TRUE(live.ledger.transfer(ClusterId{1}, ClusterId{2}, 10.0));
  live.prices.record({30.0, ClusterId{1}, 4, 400.0, 1.0});

  const CentralState recovered = recover_central_state(store);
  EXPECT_EQ(encode_central_state(recovered), encode_central_state(live));
  EXPECT_DOUBLE_EQ(recovered.ledger.total_credits(), 2000.0)
      << "credits conserved across snapshot + replay";
}

TEST(Recovery, RecoveredIdGeneratorDoesNotReuseUserIds) {
  store::MemStore store;
  store.snapshot("");
  CentralState live;
  mutate_through(live, store);

  CentralState recovered = recover_central_state(store);
  const auto carol = recovered.users.add_user("carol", "pw");
  ASSERT_TRUE(carol);
  EXPECT_NE(*carol, *recovered.users.find("alice"));
  EXPECT_NE(*carol, *recovered.users.find("bob"));
}

TEST(Recovery, TornDurableWalLosesOnlyTheSuffix) {
  const std::string dir = testing::TempDir() + "recovery_torn_store";
  fs::remove_all(dir);
  std::string wal_file;
  {
    store::DurableStore store(dir, {.sync = store::SyncPolicy::kNone});
    store.snapshot("");
    CentralState live;
    mutate_through(live, store);
    store.flush();
    wal_file = store.wal_path(store.generation());
  }
  // Crash mid-append: chop into the final record's frame.
  fs::resize_file(wal_file, fs::file_size(wal_file) - 5);

  store::DurableStore reopened(dir);
  bool torn = false;
  const CentralState recovered = recover_central_state(reopened, &torn);
  EXPECT_TRUE(torn);
  // The final journaled op was the second price record; everything before
  // it must have survived byte-exactly.
  EXPECT_EQ(recovered.prices.size(), 1u);
  EXPECT_DOUBLE_EQ(recovered.ledger.total_credits(), 2000.0);
  EXPECT_TRUE(recovered.users.verify("bob", "tr0ut"));
  fs::remove_all(dir);
}

TEST(Recovery, GridRunStoreReproducesTheReportLedger) {
  const std::string dir = testing::TempDir() + "recovery_grid_store";
  fs::remove_all(dir);
  std::ostringstream ini;
  ini << "[grid]\nbilling = barter\nusers = 4\nseed = 7\n"
      << "[store]\ndir = " << dir << "\nsync = none\n"
      << "[cluster]\nname = a\nprocs = 32\ncost = 0.001\ncredits = 500\n"
      << "[cluster]\nname = b\nprocs = 32\ncost = 0.002\ncredits = 500\n"
      << "[workload]\njobs = 60\nload = 0.8\n";
  auto scenario = core::Scenario::parse_string(ini.str());
  const auto report = scenario.run();

  EXPECT_TRUE(report.ledger.barter);
  EXPECT_NEAR(report.ledger.conservation_residual, 0.0, 1e-9)
      << "transfers must conserve total credits to within float rounding";
  EXPECT_DOUBLE_EQ(report.ledger.opening_credits, 1000.0);

  store::DurableStore store(dir, {.sync = store::SyncPolicy::kNone});
  bool torn = false;
  const CentralState recovered = recover_central_state(store, &torn);
  EXPECT_FALSE(torn);
  EXPECT_DOUBLE_EQ(recovered.ledger.total_credits(), report.ledger.total_credits);
  EXPECT_EQ(recovered.ledger.log().size(), report.ledger.transfers);
  EXPECT_EQ(recovered.users.size(), 4u);
  fs::remove_all(dir);
}

// [store] snapshot_every rolls the WAL into a fresh snapshot every N
// settled contracts. A roll is persistence only: the store still recovers
// the exact live state, and the run reports what a grid without rolls does.
TEST(Recovery, SnapshotEveryRollsTheStoreWithoutChangingTheRun) {
  struct Outcome {
    std::string report_json;
    std::uint64_t generation = 0;
    std::string recovered;
    std::string live;
  };
  const auto run = [](long snapshot_every) {
    const std::string dir = testing::TempDir() + "recovery_snapshot_every_" +
                            std::to_string(snapshot_every);
    fs::remove_all(dir);
    std::ostringstream ini;
    ini << "[grid]\nbilling = barter\nusers = 4\nseed = 7\n"
        << "[store]\ndir = " << dir << "\nsync = none\nsnapshot_every = "
        << snapshot_every << "\n"
        << "[cluster]\nname = a\nprocs = 32\ncost = 0.001\ncredits = 500\n"
        << "[cluster]\nname = b\nprocs = 32\ncost = 0.002\ncredits = 500\n"
        << "[workload]\njobs = 60\nload = 0.8\n";
    const auto scenario = core::Scenario::parse_string(ini.str());
    auto grid = scenario.make_grid();
    auto source = scenario.make_source();
    std::ostringstream json;
    core::write_report_json(json, grid->run(*source));
    Outcome out;
    out.report_json = json.str();
    out.generation = dynamic_cast<store::DurableStore&>(*grid->store()).generation();
    out.recovered = encode_central_state(recover_central_state(*grid->store()));
    out.live = encode_central_state(grid->central());
    grid.reset();
    fs::remove_all(dir);
    return out;
  };
  const Outcome rolled = run(5);
  const Outcome plain = run(0);
  EXPECT_EQ(plain.generation, 2u) << "the initial and end-of-run snapshots";
  EXPECT_GT(rolled.generation, 2u) << "snapshot_every = 5 never rolled the store";
  EXPECT_EQ(rolled.recovered, rolled.live);
  EXPECT_EQ(rolled.report_json, plain.report_json);
}

}  // namespace
}  // namespace faucets
