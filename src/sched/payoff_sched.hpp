// Profit-driven adaptive scheduler (§4.1).
//
// "If a high profit job arrives and has a tight deadline, the low priority
// jobs can be shrunk and the freed processors can be allocated to the high
// priority job. [...] running a new job may delay other jobs and lead to a
// loss in profit. So the payoff from the new job must at least compensate
// for the loss mentioned above or the job must be rejected. The strategy
// must find time windows for the job in its processor-time Gantt chart
// before the job's deadline. [...] Our current prototype strategy accepts a
// job if it is profitable and can be scheduled to run now or at a finite
// lookahead in future."
#pragma once

#include "src/cluster/gantt.hpp"
#include "src/sched/scheduler.hpp"

namespace faucets::sched {

struct PayoffStrategyParams {
  /// How far into the future admission searches for a window (seconds).
  /// 0 reproduces the paper's earliest prototype: accept only if the job
  /// can start right now.
  double lookahead = 24.0 * 3600.0;

  /// Whether admission charges the estimated payoff loss inflicted on
  /// already-accepted deadline jobs (the compensation rule quoted above).
  bool charge_displacement_loss = true;
};

class PayoffStrategy final : public Strategy {
 public:
  explicit PayoffStrategy(PayoffStrategyParams params = {}) : params_(params) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "payoff"; }
  [[nodiscard]] bool adaptive() const noexcept override { return true; }

  [[nodiscard]] AdmissionDecision admit(const SchedulerContext& ctx,
                                        const qos::QosContract& contract) override;
  [[nodiscard]] std::vector<Allocation> schedule(const SchedulerContext& ctx) override;

  [[nodiscard]] const PayoffStrategyParams& params() const noexcept { return params_; }

  /// Build the committed processor-time profile from the live jobs:
  /// running jobs occupy their current processors until their projected
  /// finish; queued jobs are placed greedily at their earliest window.
  [[nodiscard]] static cluster::GanttChart commitments(const SchedulerContext& ctx,
                                                       double horizon);

  /// Value density used for priority: maximum remaining payoff per unit of
  /// remaining work, with urgency boost as the soft deadline approaches.
  [[nodiscard]] static double priority(const job::Job& job, double now);

 private:
  [[nodiscard]] double estimate_displacement_loss(const SchedulerContext& ctx,
                                                  const qos::QosContract& contract,
                                                  double start, double duration) const;

  PayoffStrategyParams params_;
};

}  // namespace faucets::sched
