#include "src/faucets/accounting.hpp"

#include <algorithm>

#include "src/store/codec.hpp"
#include "src/store/ops.hpp"
#include "src/store/store.hpp"

namespace faucets {

void BarterLedger::open_account(ClusterId cluster, double initial_credits) {
  const bool inserted = balances_.emplace(cluster, initial_credits).second;
  if (inserted && store_ != nullptr) {
    store::Encoder e;
    e.put_u64(cluster.value());
    e.put_f64(initial_credits);
    store_->append(store::op::kLedgerOpen, e.bytes());
  }
}

double BarterLedger::balance(ClusterId cluster) const {
  auto it = balances_.find(cluster);
  return it == balances_.end() ? 0.0 : it->second;
}

bool BarterLedger::can_spend(ClusterId home, double credits) const {
  auto it = balances_.find(home);
  if (it == balances_.end()) return false;
  return it->second - credits >= 0.0;
}

bool BarterLedger::transfer(ClusterId home, ClusterId executor, double credits) {
  if (credits < 0.0) return false;
  if (home == executor) return has_account(home);
  auto home_it = balances_.find(home);
  auto exec_it = balances_.find(executor);
  if (home_it == balances_.end() || exec_it == balances_.end()) return false;
  if (home_it->second - credits < 0.0) return false;
  home_it->second -= credits;
  exec_it->second += credits;
  const double when = clock_ != nullptr ? *clock_ : 0.0;
  log_.push_back(Transfer{when, home, executor, credits});
  if (store_ != nullptr) {
    store::Encoder e;
    e.put_f64(when);
    e.put_u64(home.value());
    e.put_u64(executor.value());
    e.put_f64(credits);
    store_->append(store::op::kLedgerTransfer, e.bytes());
  }
  return true;
}

double BarterLedger::total_credits() const {
  double sum = 0.0;
  for (const auto& [id, bal] : balances_) sum += bal;
  return sum;
}

void BarterLedger::save(store::Encoder& out) const {
  std::vector<std::pair<ClusterId, double>> sorted(balances_.begin(),
                                                   balances_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.put_u32(static_cast<std::uint32_t>(sorted.size()));
  for (const auto& [cluster, balance] : sorted) {
    out.put_u64(cluster.value());
    out.put_f64(balance);
  }
  out.put_u32(static_cast<std::uint32_t>(log_.size()));
  for (const Transfer& t : log_) {
    out.put_f64(t.time);
    out.put_u64(t.home.value());
    out.put_u64(t.executor.value());
    out.put_f64(t.credits);
  }
}

void BarterLedger::load(store::Decoder& in) {
  balances_.clear();
  log_.clear();
  const std::uint32_t accounts = in.get_u32();
  for (std::uint32_t i = 0; i < accounts; ++i) {
    const ClusterId cluster{in.get_u64()};
    balances_.emplace(cluster, in.get_f64());
  }
  const std::uint32_t transfers = in.get_u32();
  for (std::uint32_t i = 0; i < transfers; ++i) {
    Transfer t;
    t.time = in.get_f64();
    t.home = ClusterId{in.get_u64()};
    t.executor = ClusterId{in.get_u64()};
    t.credits = in.get_f64();
    log_.push_back(t);
  }
}

bool BarterLedger::apply_op(std::uint16_t type, store::Decoder& in) {
  switch (type) {
    case store::op::kLedgerOpen: {
      const ClusterId cluster{in.get_u64()};
      balances_.emplace(cluster, in.get_f64());
      return true;
    }
    case store::op::kLedgerTransfer: {
      Transfer t;
      t.time = in.get_f64();
      t.home = ClusterId{in.get_u64()};
      t.executor = ClusterId{in.get_u64()};
      t.credits = in.get_f64();
      balances_[t.home] -= t.credits;
      balances_[t.executor] += t.credits;
      log_.push_back(t);
      return true;
    }
    default:
      return false;
  }
}

void UserAccounts::open_account(UserId user, double initial_funds) {
  const bool inserted = funds_.emplace(user, initial_funds).second;
  if (inserted && store_ != nullptr) {
    store::Encoder e;
    e.put_u64(user.value());
    e.put_f64(initial_funds);
    store_->append(store::op::kAccountOpen, e.bytes());
  }
}

double UserAccounts::balance(UserId user) const {
  auto it = funds_.find(user);
  return it == funds_.end() ? 0.0 : it->second;
}

bool UserAccounts::charge(UserId user, double amount) {
  auto it = funds_.find(user);
  if (it == funds_.end()) return false;
  it->second -= amount;
  total_charged_ += amount;
  if (store_ != nullptr) {
    store::Encoder e;
    e.put_u64(user.value());
    e.put_f64(amount);
    store_->append(store::op::kAccountCharge, e.bytes());
  }
  return true;
}

void UserAccounts::deposit(UserId user, double amount) {
  auto it = funds_.find(user);
  if (it == funds_.end()) return;
  it->second += amount;
  if (store_ != nullptr) {
    store::Encoder e;
    e.put_u64(user.value());
    e.put_f64(amount);
    store_->append(store::op::kAccountDeposit, e.bytes());
  }
}

void UserAccounts::save(store::Encoder& out) const {
  std::vector<std::pair<UserId, double>> sorted(funds_.begin(), funds_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.put_u32(static_cast<std::uint32_t>(sorted.size()));
  for (const auto& [user, funds] : sorted) {
    out.put_u64(user.value());
    out.put_f64(funds);
  }
  out.put_f64(total_charged_);
}

void UserAccounts::load(store::Decoder& in) {
  funds_.clear();
  const std::uint32_t accounts = in.get_u32();
  for (std::uint32_t i = 0; i < accounts; ++i) {
    const UserId user{in.get_u64()};
    funds_.emplace(user, in.get_f64());
  }
  total_charged_ = in.get_f64();
}

bool UserAccounts::apply_op(std::uint16_t type, store::Decoder& in) {
  switch (type) {
    case store::op::kAccountOpen: {
      const UserId user{in.get_u64()};
      funds_.emplace(user, in.get_f64());
      return true;
    }
    case store::op::kAccountCharge: {
      const UserId user{in.get_u64()};
      const double amount = in.get_f64();
      funds_[user] -= amount;
      total_charged_ += amount;
      return true;
    }
    case store::op::kAccountDeposit: {
      const UserId user{in.get_u64()};
      funds_[user] += in.get_f64();
      return true;
    }
    default:
      return false;
  }
}

}  // namespace faucets
