#include "src/faucets/accounting.hpp"

#include <gtest/gtest.h>

namespace faucets {
namespace {

TEST(BarterLedger, OpeningBalances) {
  BarterLedger ledger;
  ledger.open_account(ClusterId{0}, 100.0);
  ledger.open_account(ClusterId{1}, 50.0);
  EXPECT_DOUBLE_EQ(ledger.balance(ClusterId{0}), 100.0);
  EXPECT_DOUBLE_EQ(ledger.balance(ClusterId{1}), 50.0);
  EXPECT_DOUBLE_EQ(ledger.total_credits(), 150.0);
  EXPECT_EQ(ledger.account_count(), 2u);
}

TEST(BarterLedger, TransferMovesCredits) {
  BarterLedger ledger;
  ledger.open_account(ClusterId{0}, 100.0);
  ledger.open_account(ClusterId{1}, 0.0);
  EXPECT_TRUE(ledger.transfer(ClusterId{0}, ClusterId{1}, 30.0));
  EXPECT_DOUBLE_EQ(ledger.balance(ClusterId{0}), 70.0);
  EXPECT_DOUBLE_EQ(ledger.balance(ClusterId{1}), 30.0);
  ASSERT_EQ(ledger.log().size(), 1u);
  EXPECT_DOUBLE_EQ(ledger.log()[0].credits, 30.0);
}

TEST(BarterLedger, ConservationInvariant) {
  BarterLedger ledger;
  for (std::uint64_t i = 0; i < 5; ++i) ledger.open_account(ClusterId{i}, 100.0);
  for (int step = 0; step < 100; ++step) {
    const auto from = ClusterId{static_cast<std::uint64_t>(step % 5)};
    const auto to = ClusterId{static_cast<std::uint64_t>((step + 2) % 5)};
    (void)ledger.transfer(from, to, 7.5);
    ASSERT_NEAR(ledger.total_credits(), 500.0, 1e-9);
  }
}

TEST(BarterLedger, InsufficientCreditsRefused) {
  BarterLedger ledger;
  ledger.open_account(ClusterId{0}, 10.0);
  ledger.open_account(ClusterId{1}, 0.0);
  EXPECT_FALSE(ledger.transfer(ClusterId{0}, ClusterId{1}, 20.0));
  EXPECT_DOUBLE_EQ(ledger.balance(ClusterId{0}), 10.0);
  EXPECT_FALSE(ledger.can_spend(ClusterId{0}, 20.0));
  EXPECT_TRUE(ledger.can_spend(ClusterId{0}, 10.0));
  // A balance may reach zero, but never go below it.
  EXPECT_TRUE(ledger.transfer(ClusterId{0}, ClusterId{1}, 10.0));
  EXPECT_DOUBLE_EQ(ledger.balance(ClusterId{0}), 0.0);
  EXPECT_FALSE(ledger.transfer(ClusterId{0}, ClusterId{1}, 1e-9));
}

TEST(BarterLedger, HomeRunIsFreeNoop) {
  BarterLedger ledger;
  ledger.open_account(ClusterId{0}, 5.0);
  EXPECT_TRUE(ledger.transfer(ClusterId{0}, ClusterId{0}, 100.0));
  EXPECT_DOUBLE_EQ(ledger.balance(ClusterId{0}), 5.0);
  EXPECT_TRUE(ledger.log().empty());
}

TEST(BarterLedger, UnknownAccountsRefused) {
  BarterLedger ledger;
  ledger.open_account(ClusterId{0}, 5.0);
  EXPECT_FALSE(ledger.transfer(ClusterId{0}, ClusterId{9}, 1.0));
  EXPECT_FALSE(ledger.transfer(ClusterId{9}, ClusterId{0}, 1.0));
  EXPECT_FALSE(ledger.can_spend(ClusterId{9}, 1.0));
}

TEST(BarterLedger, NegativeTransferRefused) {
  BarterLedger ledger;
  ledger.open_account(ClusterId{0}, 5.0);
  ledger.open_account(ClusterId{1}, 5.0);
  EXPECT_FALSE(ledger.transfer(ClusterId{0}, ClusterId{1}, -3.0));
}

TEST(UserAccounts, ChargeAndDeposit) {
  UserAccounts accounts;
  accounts.open_account(UserId{1}, 100.0);
  EXPECT_TRUE(accounts.charge(UserId{1}, 30.0));
  EXPECT_DOUBLE_EQ(accounts.balance(UserId{1}), 70.0);
  accounts.deposit(UserId{1}, 10.0);
  EXPECT_DOUBLE_EQ(accounts.balance(UserId{1}), 80.0);
  EXPECT_DOUBLE_EQ(accounts.total_charged(), 30.0);
}

TEST(UserAccounts, UnknownUserNotCharged) {
  UserAccounts accounts;
  EXPECT_FALSE(accounts.charge(UserId{9}, 5.0));
  EXPECT_DOUBLE_EQ(accounts.balance(UserId{9}), 0.0);
  EXPECT_FALSE(accounts.has_account(UserId{9}));
}

TEST(UserAccounts, BalancesMayGoNegative) {
  UserAccounts accounts;
  accounts.open_account(UserId{1}, 10.0);
  EXPECT_TRUE(accounts.charge(UserId{1}, 25.0));
  EXPECT_DOUBLE_EQ(accounts.balance(UserId{1}), -15.0);
}

}  // namespace
}  // namespace faucets
