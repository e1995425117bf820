// Accounting and bartering (§5.5).
//
// Three billing modes: pay-per-use dollars (§5.5.1), Service-Unit
// multipliers for academic centers (§5.5.2), and bartering (§5.5.3): "Each
// contributor earns credit for sharing his/her resource and can use up the
// credit when needed. The Faucets Central Server keeps track of the credits
// of all the collaborating clusters. Each user belongs to a single Home
// Cluster [...] if the resources on the Home Cluster are not available and
// the Home Cluster has enough credits the system tries to submit the job to
// any of the collaborating Compute Servers and the appropriate number of
// credits are added to the Compute Server that executed the job and an
// equal amount is deducted from the Home Cluster's account."
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/util/ids.hpp"

namespace faucets::store {
class StateStore;
class Encoder;
class Decoder;
}  // namespace faucets::store

namespace faucets {

enum class BillingMode {
  kDollars,       // pay-per-use
  kServiceUnits,  // SU multipliers
  kBarter,        // cooperative credit pool
};

/// Double-entry credit ledger over cluster accounts. Total credits are
/// conserved by every transfer — the core invariant the bartering tests
/// check.
class BarterLedger {
 public:
  /// Register a cluster with an opening balance (contribution credit).
  void open_account(ClusterId cluster, double initial_credits = 0.0);

  [[nodiscard]] bool has_account(ClusterId cluster) const {
    return balances_.contains(cluster);
  }
  [[nodiscard]] double balance(ClusterId cluster) const;

  /// Can `home` afford `credits` on another cluster? A balance may reach
  /// zero but never go below it.
  [[nodiscard]] bool can_spend(ClusterId home, double credits) const;

  /// Move `credits` from the home cluster to the executing cluster.
  /// Returns false (and does nothing) when the home account is missing or
  /// cannot cover the transfer. A home == executor transfer is a no-op that
  /// succeeds (job ran at home; no credits move).
  bool transfer(ClusterId home, ClusterId executor, double credits);

  /// Sum over all accounts; constant under transfers.
  [[nodiscard]] double total_credits() const;

  [[nodiscard]] std::size_t account_count() const noexcept { return balances_.size(); }

  struct Transfer {
    double time = 0.0;
    ClusterId home;
    ClusterId executor;
    double credits = 0.0;
  };
  [[nodiscard]] const std::vector<Transfer>& log() const noexcept { return log_; }
  void set_clock(const double* clock) noexcept { clock_ = clock; }

  /// Journal every mutation through `store` (DESIGN.md §14).
  void set_store(store::StateStore* store) noexcept { store_ = store; }

  /// Deterministic full-state encoding (balances sorted by cluster id, then
  /// the transfer log). Used for snapshots and checkpoint images.
  void save(store::Encoder& out) const;
  void load(store::Decoder& in);
  /// Replay one journaled 0x01xx operation; false when `type` isn't ours.
  /// Mutates state directly — never re-journals.
  bool apply_op(std::uint16_t type, store::Decoder& in);

 private:
  std::unordered_map<ClusterId, double> balances_;
  std::vector<Transfer> log_;
  const double* clock_ = nullptr;  // optional sim-time source for the log
  store::StateStore* store_ = nullptr;
};

/// Per-user dollar/SU accounts used in the pay-per-use modes.
class UserAccounts {
 public:
  void open_account(UserId user, double initial_funds);
  [[nodiscard]] double balance(UserId user) const;
  [[nodiscard]] bool has_account(UserId user) const { return funds_.contains(user); }

  /// Charge for a completed job; fails if the account does not exist.
  /// Balances may go negative (billing, not admission control).
  bool charge(UserId user, double amount);
  void deposit(UserId user, double amount);

  [[nodiscard]] double total_charged() const noexcept { return total_charged_; }

  /// Store wiring, mirroring BarterLedger's (ops 0x02xx).
  void set_store(store::StateStore* store) noexcept { store_ = store; }
  void save(store::Encoder& out) const;
  void load(store::Decoder& in);
  bool apply_op(std::uint16_t type, store::Decoder& in);

 private:
  std::unordered_map<UserId, double> funds_;
  double total_charged_ = 0.0;
  store::StateStore* store_ = nullptr;
};

}  // namespace faucets
