#include "src/qos/payoff.hpp"

#include <algorithm>

namespace faucets::qos {

PayoffFunction PayoffFunction::flat(double amount) {
  PayoffFunction f;
  f.payoff_soft_ = amount;
  f.payoff_hard_ = amount;
  return f;
}

PayoffFunction PayoffFunction::deadline(double soft_deadline, double hard_deadline,
                                        double payoff_soft, double payoff_hard,
                                        double penalty) {
  PayoffFunction f;
  f.has_deadline_ = true;
  f.soft_deadline_ = soft_deadline;
  f.hard_deadline_ = std::max(soft_deadline, hard_deadline);
  f.payoff_soft_ = payoff_soft;
  f.payoff_hard_ = payoff_hard;
  f.penalty_ = penalty;
  return f;
}

double PayoffFunction::value_at(double completion) const noexcept {
  if (!has_deadline_) return payoff_soft_;
  if (completion <= soft_deadline_) return payoff_soft_;
  if (completion > hard_deadline_) return -penalty_;
  if (completion == hard_deadline_) return payoff_hard_;
  const double span = hard_deadline_ - soft_deadline_;
  const double t = (completion - soft_deadline_) / span;
  return payoff_soft_ + t * (payoff_hard_ - payoff_soft_);
}

}  // namespace faucets::qos
