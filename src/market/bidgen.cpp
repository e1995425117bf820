#include "src/market/bidgen.hpp"

#include <algorithm>

namespace faucets::market {

std::optional<double> BaselineBidGenerator::multiplier(const BidContext& ctx) {
  if (ctx.admission == nullptr || !ctx.admission->accept) return std::nullopt;
  return 1.0;
}

std::optional<double> UtilizationBidGenerator::multiplier(const BidContext& ctx) {
  if (ctx.admission == nullptr || !ctx.admission->accept || ctx.cm == nullptr ||
      ctx.contract == nullptr) {
    return std::nullopt;
  }
  // Projected utilization between now and the job's deadline; jobs without
  // deadlines are priced over the job's own expected span.
  double deadline = ctx.contract->payoff.has_deadline()
                        ? ctx.contract->payoff.hard_deadline()
                        : ctx.admission->estimated_completion;
  deadline = std::max(deadline, ctx.now + 1.0);
  const double util = ctx.cm->projected_utilization(ctx.now, deadline);
  const double lo = k_ * (1.0 - alpha_);
  const double hi = k_ * (1.0 + beta_);
  return lo + util * (hi - lo);
}

std::optional<double> MarketAwareBidGenerator::multiplier(const BidContext& ctx) {
  auto base = local_.multiplier(ctx);
  if (!base) return std::nullopt;
  if (ctx.grid_history == nullptr || ctx.cm == nullptr) return base;

  const auto grid_price = ctx.grid_history->average_unit_price(ctx.now);
  if (!grid_price || *grid_price <= 0.0) return base;

  // The multiplier that would match the recent grid-wide unit price.
  const double own_cost = ctx.cm->machine().cost_per_cpu_second /
                          std::max(ctx.cm->machine().speed_factor, 1e-9);
  if (own_cost <= 0.0) return base;
  const double market_multiplier = *grid_price / own_cost;
  const double blended =
      (1.0 - market_weight_) * *base + market_weight_ * market_multiplier;
  // Never bid below half the local strategy's floor; greed is bounded too.
  return std::clamp(blended, 0.5 * *base, 4.0 * *base);
}

std::optional<double> FuturesBidGenerator::multiplier(const BidContext& ctx) {
  auto base = local_.multiplier(ctx);
  if (!base) return std::nullopt;
  if (ctx.grid_history == nullptr || ctx.contract == nullptr) return base;

  const double horizon = ctx.contract->payoff.has_deadline()
                             ? ctx.contract->payoff.hard_deadline() - ctx.now
                             : 3600.0;
  const auto current = ctx.grid_history->average_unit_price(ctx.now);
  const auto future =
      ctx.grid_history->forecast_unit_price(ctx.now, std::max(horizon, 0.0));
  if (!current || !future || *current <= 0.0) return base;

  const double ratio = *future / *current;
  const double scale =
      std::clamp(1.0 + sensitivity_ * (ratio - 1.0), 0.5, 2.0);
  return *base * scale;
}

double contract_price(const cluster::MachineSpec& machine,
                      const qos::QosContract& contract, double multiplier) {
  const double cpu_seconds =
      contract.work / std::max(machine.speed_factor, 1e-9);
  return multiplier * machine.cost_per_cpu_second * cpu_seconds;
}

Bid make_bid(BidId id, const cluster::ClusterManager& cm, EntityId daemon,
             const qos::QosContract& contract,
             const sched::AdmissionDecision& admission, double multiplier,
             double now, double validity) {
  Bid bid;
  bid.id = id;
  bid.cluster = cm.id();
  bid.daemon = daemon;
  bid.declined = false;
  bid.multiplier = multiplier;
  bid.price = contract_price(cm.machine(), contract, multiplier);
  bid.promised_completion = admission.estimated_completion;
  bid.expires_at = now + validity;
  return bid;
}

}  // namespace faucets::market
