#include "src/obs/live/monitor.hpp"

namespace faucets::obs::live {

void MonitorSuite::report_stall(double stalled_at, double host_seconds,
                                double timeout) {
  MonitorState& s = states_[static_cast<std::size_t>(MonitorKind::kBarrierStall)];
  s.threshold = timeout;
  s.last_observed = host_seconds;
  s.last_sim_time = stalled_at;
  if (s.firing) return;  // one alert per stall episode
  s.firing = true;
  if (s.alerts == 0) s.first_sim_time = stalled_at;
  ++s.alerts;
  pending_[pending_count_ % kPendingCap] =
      alert_event(stalled_at,
                  static_cast<std::uint8_t>(MonitorKind::kBarrierStall),
                  host_seconds, timeout);
  ++pending_count_;
}

void MonitorSuite::clear_stall() noexcept {
  states_[static_cast<std::size_t>(MonitorKind::kBarrierStall)].firing = false;
}

}  // namespace faucets::obs::live
