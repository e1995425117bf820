#include "src/obs/live/monitor.hpp"

namespace faucets::obs::live {

void MonitorSuite::report_stall(double stalled_at, double host_seconds,
                                double timeout) noexcept {
  MonitorState& s = states_[static_cast<std::size_t>(MonitorKind::kBarrierStall)];
  s.threshold = timeout;
  s.last_observed = host_seconds;
  s.last_sim_time = stalled_at;
  if (s.firing) return;  // one alert per stall episode
  s.firing = true;
  if (s.alerts == 0) s.first_sim_time = stalled_at;
  ++s.alerts;
}

void MonitorSuite::clear_stall() noexcept {
  states_[static_cast<std::size_t>(MonitorKind::kBarrierStall)].firing = false;
}

}  // namespace faucets::obs::live
