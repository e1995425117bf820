// Bid-generation algorithms (§5.2). These run at individual Compute Servers
// and reflect each server's orientation to risk and profit. The paper
// publishes the generic interface so strategies can be tested against each
// other — BidGenerator is that interface.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "src/cluster/server.hpp"
#include "src/market/bid.hpp"
#include "src/market/price_history.hpp"

namespace faucets::market {

/// Everything a bid generator may consult: local cluster state plus the
/// global "grid weather" the Faucets system offers (§5.2.1).
struct BidContext {
  double now = 0.0;
  const cluster::ClusterManager* cm = nullptr;
  const qos::QosContract* contract = nullptr;
  const sched::AdmissionDecision* admission = nullptr;
  const PriceHistory* grid_history = nullptr;  // may be null (no FS feed)
};

class BidGenerator {
 public:
  virtual ~BidGenerator() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// The bid multiplier for this job, or nullopt to decline even though the
  /// scheduler could admit it (e.g. the price would be uneconomic).
  [[nodiscard]] virtual std::optional<double> multiplier(const BidContext& ctx) = 0;
};

/// "A baseline strategy that always returns a multiplier of 1.0 if it can
/// run the job."
class BaselineBidGenerator final : public BidGenerator {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "baseline"; }
  [[nodiscard]] std::optional<double> multiplier(const BidContext& ctx) override;
};

/// "Another implemented strategy returns a multiplier linearly interpolated
/// between k(1-alpha) and k(1+beta) depending on what the average system
/// utilization is likely to be between the current time and the deadline of
/// the proposed job." Defaults are the paper's current values: k=1,
/// alpha=0.5, beta=2.0.
class UtilizationBidGenerator final : public BidGenerator {
 public:
  explicit UtilizationBidGenerator(double k = 1.0, double alpha = 0.5,
                                   double beta = 2.0)
      : k_(k), alpha_(alpha), beta_(beta) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "utilization"; }
  [[nodiscard]] std::optional<double> multiplier(const BidContext& ctx) override;

  [[nodiscard]] double k() const noexcept { return k_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] double beta() const noexcept { return beta_; }

 private:
  double k_;
  double alpha_;
  double beta_;
};

/// Future-work strategy the paper sketches: the bid also depends on
/// non-local factors — "what is the average price of similar contracts in
/// the recent past, in the whole system?" Scales the utilization bid toward
/// the observed grid price.
class MarketAwareBidGenerator final : public BidGenerator {
 public:
  explicit MarketAwareBidGenerator(double k = 1.0, double alpha = 0.5,
                                   double beta = 2.0, double market_weight = 0.5)
      : local_(k, alpha, beta), market_weight_(market_weight) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "market-aware"; }
  [[nodiscard]] std::optional<double> multiplier(const BidContext& ctx) override;

 private:
  UtilizationBidGenerator local_;
  double market_weight_;
};

/// Futures bidder (§1's "futures market for perishable commodities"): the
/// utilization bid, scaled by where the grid-wide price is heading over the
/// job's own horizon. Rising prices mean capacity is getting scarce — hold
/// out for more; falling prices mean sell cycles now.
class FuturesBidGenerator final : public BidGenerator {
 public:
  explicit FuturesBidGenerator(double k = 1.0, double alpha = 0.5, double beta = 2.0,
                               double sensitivity = 1.0)
      : local_(k, alpha, beta), sensitivity_(sensitivity) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "futures"; }
  [[nodiscard]] std::optional<double> multiplier(const BidContext& ctx) override;

 private:
  UtilizationBidGenerator local_;
  double sensitivity_;
};

/// Turn a multiplier into a full bid. Price = multiplier x normalized cost x
/// CPU-seconds the job needs on this machine.
[[nodiscard]] Bid make_bid(BidId id, const cluster::ClusterManager& cm,
                           EntityId daemon, const qos::QosContract& contract,
                           const sched::AdmissionDecision& admission,
                           double multiplier, double now, double validity);

/// Price a contract at a given multiplier on a given machine (shared by
/// make_bid and the accounting tests).
[[nodiscard]] double contract_price(const cluster::MachineSpec& machine,
                                    const qos::QosContract& contract,
                                    double multiplier);

}  // namespace faucets::market
