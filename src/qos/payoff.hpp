// Payoff functions: how much the client pays as a function of completion
// time (§2.1, §4.1 of the paper).
//
// The experimental QoS feature the paper describes is a payoff with a soft
// and a hard deadline: full payoff up to the soft deadline, linear
// interpolation between the soft- and hard-deadline payoffs, and a penalty
// after the hard deadline ("a steep post-deadline dropoff").
#pragma once

namespace faucets::qos {

class PayoffFunction {
 public:
  /// A zero payoff function (free job, no deadline pressure).
  PayoffFunction() = default;

  /// Flat payoff: the client pays `amount` whenever the job completes.
  static PayoffFunction flat(double amount);

  /// The paper's soft/hard deadline shape. Requires soft <= hard.
  /// `payoff_soft` is earned at or before the soft deadline, dropping
  /// linearly to `payoff_hard` at the hard deadline; after the hard
  /// deadline the provider owes `penalty` (payoff = -penalty).
  static PayoffFunction deadline(double soft_deadline, double hard_deadline,
                                 double payoff_soft, double payoff_hard,
                                 double penalty = 0.0);

  /// Payoff earned if the job completes at absolute time `completion`.
  [[nodiscard]] double value_at(double completion) const noexcept;

  [[nodiscard]] bool has_deadline() const noexcept { return has_deadline_; }
  [[nodiscard]] double soft_deadline() const noexcept { return soft_deadline_; }
  [[nodiscard]] double hard_deadline() const noexcept { return hard_deadline_; }
  [[nodiscard]] double max_payoff() const noexcept { return payoff_soft_; }
  [[nodiscard]] double penalty() const noexcept { return penalty_; }

 private:
  bool has_deadline_ = false;
  double soft_deadline_ = 0.0;
  double hard_deadline_ = 0.0;
  double payoff_soft_ = 0.0;
  double payoff_hard_ = 0.0;
  double penalty_ = 0.0;
};

}  // namespace faucets::qos
