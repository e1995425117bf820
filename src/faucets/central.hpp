// The Faucets Central Server (FS) — the heart of the system (§2).
//
// It maintains the directory of available Compute Servers (refreshed by
// periodically polling the daemons), the list of registered applications,
// authenticates users, answers filtered directory queries (§5.1), keeps the
// contract price history (§5.2.1) and, in barter mode, the credit ledger
// (§5.5.3).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/faucets/accounting.hpp"
#include "src/faucets/auth.hpp"
#include "src/faucets/protocol.hpp"
#include "src/market/price_history.hpp"
#include "src/sim/network.hpp"

namespace faucets {

struct CentralServerConfig {
  BillingMode billing = BillingMode::kDollars;
  /// Market regulation (§5.5.1): bids priced outside
  /// [normal/price_band, normal*price_band] are rejected by clients.
  /// Disengaged (or <= 1) = no regulation. (The `price_band = 0` sentinel
  /// is gone from the public surface; see DESIGN.md §8.)
  std::optional<double> price_band;
  /// Price-history retention: how many settled contracts the bounded deque
  /// keeps, and how far back (seconds) queries look. Scenario `[market]`
  /// section; see PriceHistory.
  std::size_t history_capacity = 4096;
  double history_window = 24.0 * 3600.0;
};

class CentralServer final : public sim::Entity {
 public:
  /// Seconds between daemon polls.
  static constexpr double kPollInterval = 60.0;
  /// A server whose daemon missed more polls than this in a row is down:
  /// the directory's one dynamic filter (§5.1).
  static constexpr int kMaxMissedPolls = 3;

  explicit CentralServer(sim::SimContext& ctx, CentralServerConfig config = {});

  // --- administration (out of band, like the real system's admin tools) ---
  /// Create a user account; `home_cluster` matters in barter mode.
  std::optional<UserId> register_user(const std::string& username,
                                      const std::string& password,
                                      ClusterId home_cluster = ClusterId{});

  /// Register an application name as known/trusted grid-wide (§2.2's
  /// "Known Applications" scheme).
  void register_application(const std::string& name) { applications_.insert(name); }
  /// An empty registry means no Known-Applications policy is in force;
  /// once any application is registered, unknown names are filtered out.
  [[nodiscard]] bool application_known(const std::string& name) const {
    return name.empty() || applications_.empty() || applications_.contains(name);
  }

  /// Open a barter account for a cluster with an opening credit.
  void open_barter_account(ClusterId cluster, double credits);

  // --- queries used by tests/benchmarks -----------------------------------
  [[nodiscard]] std::size_t directory_size() const noexcept { return directory_.size(); }
  [[nodiscard]] const market::PriceHistory& price_history() const noexcept {
    return price_history_;
  }
  [[nodiscard]] BarterLedger& barter_ledger() noexcept { return ledger_; }
  [[nodiscard]] const BarterLedger& barter_ledger() const noexcept { return ledger_; }
  [[nodiscard]] UserAccounts& user_accounts() noexcept { return accounts_; }
  [[nodiscard]] const UserAccounts& user_accounts() const noexcept { return accounts_; }
  [[nodiscard]] const UserDatabase& user_db() const noexcept { return users_; }
  [[nodiscard]] const CentralServerConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::optional<ClusterId> home_cluster_of(UserId user) const;

  /// The filtering core (§5.1), exposed for unit tests: which directory
  /// entries could serve `contract` for `user`? Servers come in ClusterId
  /// order, except that the user's home cluster, when it qualifies, comes
  /// first in every billing mode.
  [[nodiscard]] std::vector<proto::ServerInfo> filter_servers(
      const qos::QosContract& contract, UserId user) const;

  /// Durable persistence (DESIGN.md §14): journal every ledger / account /
  /// user / price mutation through `store`. `snapshot_every > 0` rolls the
  /// WAL into a fresh snapshot after that many settled contracts. The caller
  /// must take the initial snapshot (usually of the empty image) *before*
  /// any journaled mutation. Implemented in central_store.cpp.
  void attach_store(store::StateStore* store, std::uint64_t snapshot_every = 0);
  /// Write the current durable state as a snapshot and rotate the WAL.
  void snapshot_to_store();

  void on_message(const sim::Message& msg) override;

 private:
  /// A registered server's poll state: all that a poll reply writes.
  struct DirectoryEntry {
    EntityId daemon;
    int missed_polls = 0;
    bool alive = true;
  };

  /// A registered server's static listing: its ClusterId and the
  /// MachineSpec fields the filter reads, with the fields most queries
  /// reject on first. `poll` is the server's node in `directory_`, which
  /// no rehash moves and nothing erases.
  struct Listing {
    ClusterId cluster;
    int total_procs = 0;
    double memory_per_proc_mb = 0.0;
    double cost_per_cpu_second = 0.0;
    double speed_factor = 1.0;
    const DirectoryEntry* poll = nullptr;
    qos::SoftwareEnvironment provides;
  };

  void handle_login(const proto::LoginRequest& msg);
  void handle_directory(const proto::DirectoryRequest& msg);
  void handle_register(const proto::RegisterDaemon& msg);
  void handle_poll_reply(const proto::PollReply& msg);
  void handle_auth_verify(const proto::AuthVerifyRequest& msg);
  void handle_settled(const proto::ContractSettled& msg);
  void poll_daemons();

  void record_auth(bool ok, UserId user, RequestId request);

  CentralServerConfig config_;

  obs::Counter* auth_ok_ctr_ = nullptr;
  obs::Counter* auth_denied_ctr_ = nullptr;

  UserDatabase users_;
  SessionManager sessions_;
  std::unordered_map<UserId, ClusterId> home_clusters_;
  std::unordered_set<std::string> applications_;
  // Iteration order is the poll send order, which decides the loss and
  // jitter draws: the chaos, golden and weather digests pin it, so polls
  // are not sent in ClusterId order.
  std::unordered_map<ClusterId, DirectoryEntry> directory_;
  std::vector<Listing> listing_;  // one row per directory_ entry, ClusterId order
  market::PriceHistory price_history_;
  BarterLedger ledger_;
  UserAccounts accounts_;
  double now_cache_ = 0.0;  // clock source for the ledger log
  store::StateStore* store_ = nullptr;
  std::uint64_t snapshot_every_ = 0;  // settled contracts per snapshot; 0 = never
  std::uint64_t settled_since_snapshot_ = 0;
};

}  // namespace faucets
