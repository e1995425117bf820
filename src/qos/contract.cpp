#include "src/qos/contract.hpp"

#include <algorithm>

namespace faucets::qos {

double QosContract::estimated_runtime(int procs, double speed_factor) const {
  if (speed_factor <= 0.0) return EfficiencyModel::kNever;
  return efficiency.time_to_complete(work / speed_factor, procs);
}

bool QosContract::valid() const noexcept {
  if (min_procs < 1 || max_procs < min_procs) return false;
  if (work <= 0.0) return false;
  return efficiency.min_procs() == min_procs && efficiency.max_procs() == max_procs;
}

QosContract QosContract::reduced_by(double completed) const {
  QosContract out = *this;
  if (completed <= 0.0) return out;
  // Keep a sliver of work so the contract stays valid even if the
  // checkpoint covered everything (the restart still has to run).
  out.work = std::max(out.work - completed, 1e-6);
  return out;
}

QosContract make_contract(int min_procs, int max_procs, double work, double eff_min,
                          double eff_max, PayoffFunction payoff) {
  QosContract c;
  c.min_procs = min_procs;
  c.max_procs = max_procs;
  c.work = work;
  c.efficiency = EfficiencyModel{min_procs, max_procs, eff_min, eff_max};
  c.payoff = payoff;
  return c;
}

}  // namespace faucets::qos
