// Retry/timeout policy shared by the Faucets client, broker, and daemon.
//
// The simulated WAN can now lose messages (src/sim/faults.hpp), so every
// request/reply exchange in the protocol gets a small state machine: arm a
// timer when the request goes out, settle it when the reply arrives, and on
// timeout either resend with an exponentially longer wait or give up. The
// policy is pure data so tests can assert the backoff schedule directly.
#pragma once

#include <algorithm>

#include "src/sim/engine.hpp"

namespace faucets {

struct RetryPolicy {
  /// Each attempt waits twice as long as the one before...
  static constexpr double kMultiplier = 2.0;
  /// ...capped here, seconds.
  static constexpr double kMaxTimeout = 60.0;

  /// Total tries, counting the first: 4 means one send plus three retries.
  int max_attempts = 4;
  /// Timeout of the first attempt, seconds.
  double base_timeout = 5.0;

  /// Timeout of attempt `attempt` (1-based): base * 2^(attempt-1), capped
  /// at kMaxTimeout.
  [[nodiscard]] double timeout_for(int attempt) const noexcept {
    double t = base_timeout;
    for (int i = 1; i < attempt; ++i) {
      t *= kMultiplier;
      if (t >= kMaxTimeout) return kMaxTimeout;
    }
    return std::min(t, kMaxTimeout);
  }

  /// Worst-case wall time the full schedule can take before exhaustion.
  [[nodiscard]] double total_budget() const noexcept {
    double total = 0.0;
    for (int a = 1; a <= max_attempts; ++a) total += timeout_for(a);
    return total;
  }
};

/// One in-flight exchange: tracks the attempt number and the timeout timer.
/// Owners capture `this` plus a key in the timer callback; RetryState only
/// does the bookkeeping, so it stays trivially movable and allocation-free.
class RetryState {
 public:
  /// Attempts made so far (0 before the first arm()).
  [[nodiscard]] int attempts() const noexcept { return attempt_; }
  [[nodiscard]] bool in_flight() const noexcept { return timer_.active(); }

  /// Record one more attempt and return its timeout; the caller schedules
  /// the timer itself (it owns the engine and the callback) and hands the
  /// handle back via set_timer().
  [[nodiscard]] double arm(const RetryPolicy& policy) noexcept {
    ++attempt_;
    return policy.timeout_for(attempt_);
  }

  void set_timer(sim::EventHandle timer) noexcept {
    timer_.cancel();
    timer_ = timer;
  }

  /// The reply arrived: stop the clock. Idempotent.
  void settle() noexcept { timer_.cancel(); }

  /// True when a timeout just fired and the schedule is spent.
  [[nodiscard]] bool exhausted(const RetryPolicy& policy) const noexcept {
    return attempt_ >= policy.max_attempts;
  }

  /// Back to square one (e.g. a fresh bidding round re-uses the slot).
  void reset() noexcept {
    timer_.cancel();
    attempt_ = 0;
  }

 private:
  int attempt_ = 0;
  sim::EventHandle timer_;
};

}  // namespace faucets
