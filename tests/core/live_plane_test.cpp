// Grid-level guarantees of the live operations plane (DESIGN.md §15):
//
//  1. Byte-identity — turning the monitoring endpoint on must not move a
//     single byte of the report JSON, trace JSONL, Chrome trace, or
//     Prometheus artifact. The plane only reads published snapshots; the
//     one thing it may write into the simulation (a kAlert trace record)
//     requires an actual invariant violation, and clean runs have none.
//  2. Zero false positives — those same clean runs finish with every online
//     monitor at zero alerts, including the end-of-run final check.
//  3. Chaos — a deliberately leaked reservation lease and a host-time stall
//     both raise their monitor's alert, flip /healthz to 503, and land a
//     kAlert record in the trace.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/scenario.hpp"
#include "src/obs/exporters.hpp"
#include "src/obs/live/plane.hpp"
#include "src/qos/contract.hpp"

namespace faucets::core {
namespace {

/// A 100-cluster grid: four big (64-proc) clusters for the 32..48-proc
/// workload, 96 small ones the §5.1 filter screens out.
std::string grid_ini() {
  std::ostringstream ini;
  ini << "[grid]\n"
         "billing = dollars\n"
         "users = 20\n"
         "evaluator = least-cost\n"
         "brokered = false\n"
         "seed = 42\n\n";
  for (int i = 0; i < 100; ++i) {
    const bool big = i % 25 == 0;
    ini << "[cluster]\n"
        << "name = c" << i << "\n"
        << "procs = " << (big ? 64 : 4) << "\n"
        << "cost = " << 0.0005 + (i % 7) * 0.0001 << "\n"
        << "strategy = " << (big && i % 50 == 0 ? "payoff" : "fcfs") << "\n"
        << "bidgen = baseline\n\n";
  }
  ini << "[workload]\n"
         "jobs = 400\n"
         "load = 0.7\n"
         "min_procs_lo = 32\n"
         "min_procs_hi = 48\n";
  return ini.str();
}

std::vector<obs::TraceEvent> alert_events(const obs::TraceView& view) {
  std::vector<obs::TraceEvent> out;
  view.for_each([&](const obs::TraceEvent& ev) {
    if (ev.kind == obs::TraceEventKind::kAlert) out.push_back(ev);
  });
  return out;
}

struct Outputs {
  std::string report_json;
  std::string trace_jsonl;
  std::string chrome;
  std::string prometheus;
  std::uint64_t alerts = 0;
};

Outputs run_at(const std::string& ini, bool live) {
  Scenario scenario = Scenario::parse_string(ini);
  if (live) {
    scenario.grid.live.serve = true;  // ephemeral port
    scenario.grid.live.publish_interval = 0.0;  // publish at every boundary
  }
  auto grid = scenario.make_grid();
  const GridReport report = grid->run(scenario.make_requests(), /*until=*/1e9);

  Outputs out;
  if (live) {
    EXPECT_NE(grid->live(), nullptr);
    out.alerts = grid->live()->alerts_total();
  } else {
    EXPECT_EQ(grid->live(), nullptr);
  }
  {
    std::ostringstream os;
    write_report_json(os, report);
    out.report_json = os.str();
  }
  {
    std::ostringstream os;
    obs::write_trace_jsonl(os, grid->merged_trace());
    out.trace_jsonl = os.str();
  }
  {
    std::ostringstream os;
    obs::write_chrome_trace(os, grid->merged_spans(), grid->merged_trace(), {});
    out.chrome = os.str();
  }
  {
    std::ostringstream os;
    obs::write_prometheus(os, grid->merged_metrics());
    out.prometheus = os.str();
  }
  return out;
}

TEST(LivePlaneGrid, ServerOnAndOffAreByteIdentical) {
  const std::string ini = grid_ini();
  const Outputs off = run_at(ini, /*live=*/false);
  const Outputs on = run_at(ini, /*live=*/true);
  EXPECT_EQ(off.report_json, on.report_json);
  EXPECT_EQ(off.trace_jsonl, on.trace_jsonl);
  EXPECT_EQ(off.chrome, on.chrome);
  EXPECT_EQ(off.prometheus, on.prometheus);
  // Zero false positives on the clean golden, including the final check.
  EXPECT_EQ(on.alerts, 0u);
}

TEST(LivePlaneGrid, EndpointsServeDuringARealRun) {
  Scenario scenario = Scenario::parse_string(grid_ini());
  scenario.grid.live.serve = true;
  scenario.grid.live.publish_interval = 0.0;
  auto grid = scenario.make_grid();
  ASSERT_NE(grid->live(), nullptr);
  ASSERT_TRUE(grid->live()->serving());
  ASSERT_NE(grid->live()->port(), 0);

  // Scrape mid-run from a pause hook: the sim thread is parked at a
  // consistent boundary, the server thread answers from the last snapshot.
  bool checked = false;
  grid->set_pause_hook(50.0, [&] {
    const auto progress = grid->live()->handle("/progress");
    EXPECT_EQ(progress.status, 200);
    EXPECT_NE(progress.body.find("\"schema\":\"faucets.live.progress.v3\""),
              std::string::npos);
    EXPECT_NE(progress.body.find("\"run_active\":true"), std::string::npos);
    EXPECT_EQ(grid->live()->handle("/healthz").status, 200);
    const auto metrics = grid->live()->handle("/metrics");
    EXPECT_NE(metrics.body.find("faucets_live_publishes_total"),
              std::string::npos);
    checked = true;
    return true;
  });
  (void)grid->run(scenario.make_requests(), /*until=*/1e9);
  EXPECT_TRUE(checked);
  EXPECT_GT(grid->live()->publishes(), 0u);
  const auto done = grid->live()->handle("/progress");
  EXPECT_NE(done.body.find("\"finished\":true"), std::string::npos);
}

TEST(LivePlaneGrid, LeakedLeaseRaisesTheLeaseLeakAlert) {
  Scenario scenario = Scenario::parse_string(grid_ini());
  scenario.grid.live.serve = true;
  scenario.grid.live.publish_interval = 0.0;
  auto grid = scenario.make_grid();
  ASSERT_NE(grid->live(), nullptr);

  // Chaos: take a reservation and cancel its expiry timer while keeping the
  // lease held — the lost-expiry failure mode. Cluster 1 is a 4-proc box the
  // §5.1 filter keeps idle, so admission always accepts. The lease lapses at
  // t=51; past the audit's 5 s grace every subsequent publish sees it.
  grid->set_pause_hook(50.0, [&] {
    auto& cm = grid->daemon(1).cm();
    const auto id = cm.reserve(qos::make_contract(1, 2, 10.0), 51.0);
    EXPECT_TRUE(id.has_value());
    EXPECT_TRUE(cm.leak_reservation_for_test(*id));
    return true;
  });
  (void)grid->run(scenario.make_requests(), /*until=*/1e9);

  const auto state = grid->live()->monitor_states()[static_cast<std::size_t>(
      obs::MonitorKind::kLeaseLeak)];
  EXPECT_GE(state.alerts, 1u);
  EXPECT_GE(state.last_observed, 1.0);
  EXPECT_GE(grid->live()->alerts_total(), 1u);
  EXPECT_EQ(grid->live()->handle("/healthz").status, 503);
  // The end-of-run audit the final publish used names the same term.
  EXPECT_EQ(grid->audit().first_failure(), obs::MonitorKind::kLeaseLeak);
  // The kAlert reached the simulation trace ring, and therefore the
  // exported artifacts.
  const auto alerts = alert_events(grid->merged_trace());
  ASSERT_GE(alerts.size(), 1u);
  EXPECT_EQ(static_cast<obs::MonitorKind>(alerts[0].payload.alert.monitor),
            obs::MonitorKind::kLeaseLeak);
}

TEST(LivePlaneGrid, HostTimeStallTripsTheWatchdogMidRun) {
  Scenario scenario = Scenario::parse_string(grid_ini());
  scenario.grid.live.serve = true;
  scenario.grid.live.publish_interval = 0.0;
  scenario.grid.live.poll_interval_ms = 2;
  scenario.grid.live.stall_timeout = 0.05;  // 50ms of host time
  auto grid = scenario.make_grid();
  ASSERT_NE(grid->live(), nullptr);

  // Chaos: park the simulation thread mid-run. The server thread's
  // watchdog must notice on its own and flip /healthz while we sleep.
  // hold_watchdog=false: this hook *simulates* a wedged simulation, unlike
  // a deliberate checkpoint pause (which holds the watchdog).
  grid->set_pause_hook(
      50.0,
      [&] {
        for (int i = 0; i < 500; ++i) {
          if (grid->live()->handle("/healthz").status == 503) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        EXPECT_EQ(grid->live()->handle("/healthz").status, 503);
        return true;
      },
      /*hold_watchdog=*/false);
  (void)grid->run(scenario.make_requests(), /*until=*/1e9);

  const auto state = grid->live()->monitor_states()[static_cast<std::size_t>(
      obs::MonitorKind::kBarrierStall)];
  EXPECT_GE(state.alerts, 1u);
  // The deferred kAlert was drained into the trace at the next publish.
  const auto alerts = alert_events(grid->merged_trace());
  ASSERT_GE(alerts.size(), 1u);
  EXPECT_EQ(static_cast<obs::MonitorKind>(alerts[0].payload.alert.monitor),
            obs::MonitorKind::kBarrierStall);
}

}  // namespace
}  // namespace faucets::core
