// The grid's invariants (DESIGN.md §16) and the live plane's online monitors
// over them (DESIGN.md §15.3).
//
// `Audit` is the one definition of the invariants: GridSystem fills it, run()
// evaluates it at the end of every run, and the monitors read the same value
// at every publish. It lives here because src/obs cannot include src/core.
//
// The suite never allocates after construction: states live in a fixed
// array indexed by obs::MonitorKind, and the deferred-alert queue is a fixed
// ring. Alerts are edge-triggered: one kAlert trace event and one
// faucets_alerts_total increment per transition into violation, not per
// evaluation — a run that goes wrong once does not flood the ring.
//
// Thread model: the owner (LivePlane) serializes every call. evaluate() and
// drain_pending() run on the simulation thread at publish
// boundaries; report_stall()/clear_stall() run on the server thread, which
// is why the stall monitor's kAlert is queued instead of recorded directly —
// the simulation thread may be stuck, but /healthz must not wait for it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "src/obs/trace.hpp"

namespace faucets::obs::live {

/// The grid's invariants at one instant: one plain value, cheap to copy.
struct Audit {
  /// |ledger residual| above this means credits were minted or lost:
  /// transfers move one value between two balances, so only rounding
  /// separates the total from the opening total.
  static constexpr double kLedgerResidualMax = 1e-9;
  /// Sim-seconds a lease may stay held past its expiry before it is overdue.
  static constexpr double kLeaseGrace = 5.0;
  /// The terms in first-failure order; each is also the monitor that
  /// alerts on it.
  static constexpr std::array<MonitorKind, 3> kTerms = {
      MonitorKind::kLedgerConservation, MonitorKind::kLeaseLeak,
      MonitorKind::kSpanBalance};

  std::uint64_t submitted = 0;  // the registry's grid-wide job counters
  std::uint64_t completed = 0;
  std::uint64_t unplaced = 0;
  double ledger_residual = 0.0;        // barter total - opening total
  std::uint64_t held_leases = 0;       // reservations held on every daemon
  std::uint64_t overdue_leases = 0;    // held past expiry + kLeaseGrace
  std::uint64_t open_submissions = 0;  // open kSubmission roots
  std::uint64_t open_spans = 0;        // open spans of every kind
  /// The run ended because every client was drained and idle, not at
  /// `until` and not abandoned. Then nothing may be in flight, held or open.
  bool drained = false;

  [[nodiscard]] std::int64_t in_flight() const noexcept {
    return static_cast<std::int64_t>(submitted) -
           static_cast<std::int64_t>(completed) -
           static_cast<std::int64_t>(unplaced);
  }
  /// What `term` measures; it holds while observed <= threshold.
  [[nodiscard]] double observed(MonitorKind term) const noexcept {
    const auto abs_of = [](double v) { return v < 0.0 ? -v : v; };
    switch (term) {
      case MonitorKind::kLedgerConservation:
        return abs_of(ledger_residual);
      case MonitorKind::kLeaseLeak:
        // Mid-run a held lease may still be expiring; at a drained end none
        // may be held.
        return static_cast<double>(drained ? held_leases : overdue_leases);
      case MonitorKind::kSpanBalance:
        // Mid-run every job in flight has one open root. At a drained end
        // nothing is in flight and no span of any kind is open (open roots
        // are among the open spans, so they balance too).
        return drained ? static_cast<double>(open_spans) +
                             abs_of(static_cast<double>(in_flight()))
                       : abs_of(static_cast<double>(open_submissions) -
                                static_cast<double>(in_flight()));
      case MonitorKind::kBarrierStall:
        return 0.0;  // host time: the stall watchdog measures it, not the audit
    }
    return 0.0;
  }
  [[nodiscard]] static double threshold(MonitorKind term) noexcept {
    return term == MonitorKind::kLedgerConservation ? kLedgerResidualMax : 0.0;
  }
  /// The one predicate of a term (false for a NaN observation).
  [[nodiscard]] bool holds(MonitorKind term) const noexcept {
    return observed(term) <= threshold(term);
  }
  /// The first term that fails, to name in an error; nullopt when ok().
  [[nodiscard]] std::optional<MonitorKind> first_failure() const noexcept {
    for (const MonitorKind term : kTerms) {
      if (!holds(term)) return term;
    }
    return std::nullopt;
  }
  [[nodiscard]] bool ok() const noexcept { return !first_failure(); }
};

/// Rolling per-monitor outcome, exported to /healthz, /metrics
/// (faucets_alerts_total{monitor=...}) and the HTML report's Alerts table.
struct MonitorState {
  std::uint64_t alerts = 0;        // rising edges into violation
  bool firing = false;             // in violation at the latest evaluation
  double first_sim_time = 0.0;     // sim time of the first alert
  double last_sim_time = 0.0;      // sim time last seen in violation
  double last_observed = 0.0;
  double threshold = 0.0;
};

class MonitorSuite {
 public:
  /// Edge-trigger every audit term at a consistent boundary, then drain
  /// stall alerts queued by the server thread. `emit` receives one
  /// TraceEvent per new alert (the caller records it into the sim trace
  /// ring).
  template <typename Emit>
  void evaluate(double sim_now, const Audit& audit, Emit&& emit) {
    for (const MonitorKind m : Audit::kTerms) {
      MonitorState& s = states_[static_cast<std::size_t>(m)];
      const double observed = audit.observed(m);
      s.threshold = Audit::threshold(m);
      const bool violated = !audit.holds(m);
      if (violated) {
        s.last_observed = observed;
        s.last_sim_time = sim_now;
        if (!s.firing) {
          if (s.alerts == 0) s.first_sim_time = sim_now;
          ++s.alerts;
          emit(alert_event(sim_now, static_cast<std::uint8_t>(m), observed,
                           s.threshold));
        }
      }
      s.firing = violated;
    }
    drain_pending(emit);
  }

  /// Server-thread half of the stall watchdog: sim time `stalled_at` has not
  /// advanced for `host_seconds`, past `timeout`. Counted and surfaced in
  /// /healthz immediately; the kAlert trace event is queued for the next
  /// simulation-thread publish (the sim thread may be the thing that is
  /// stuck).
  void report_stall(double stalled_at, double host_seconds, double timeout);
  /// Sim time advanced again: re-arm the stall monitor's edge trigger.
  void clear_stall() noexcept;

  /// Record queued stall alerts through `emit` (simulation thread).
  template <typename Emit>
  void drain_pending(Emit&& emit) {
    if (pending_count_ - pending_drained_ > kPendingCap) {
      pending_drained_ = pending_count_ - kPendingCap;  // ring overwrote these
    }
    for (; pending_drained_ < pending_count_; ++pending_drained_) {
      emit(pending_[pending_drained_ % kPendingCap]);
    }
  }

  [[nodiscard]] const MonitorState& state(MonitorKind m) const noexcept {
    return states_[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] const std::array<MonitorState, kMonitorKindCount>& states()
      const noexcept {
    return states_;
  }
  [[nodiscard]] std::uint64_t total_alerts() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : states_) n += s.alerts;
    return n;
  }
  [[nodiscard]] bool healthy() const noexcept { return total_alerts() == 0; }

 private:
  static constexpr std::size_t kPendingCap = 16;

  std::array<MonitorState, kMonitorKindCount> states_{};
  // Fixed ring of stall alerts awaiting a sim-thread publish. Overwrites
  // past kPendingCap are harmless: the alert count is already in states_.
  std::array<TraceEvent, kPendingCap> pending_{};
  std::uint64_t pending_count_ = 0;
  std::uint64_t pending_drained_ = 0;
};

}  // namespace faucets::obs::live
