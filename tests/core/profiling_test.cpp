// The host-time profiler (DESIGN.md §12) measures the executor, never the
// simulation: on a 1000-cluster grid, switching it on must leave the report
// JSON, trace JSONL, Chrome trace, Prometheus text, and executed-event count
// exactly as the unprofiled run produced them.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/core/scenario.hpp"
#include "src/obs/exporters.hpp"

namespace faucets::core {
namespace {

/// 1000 Compute Servers: ten big (64-proc) clusters able to run the
/// workload's 32..48-proc jobs, and 990 small ones the Central Server's
/// static §5.1 filter screens out of every RFB round.
std::string big_grid_ini() {
  std::ostringstream ini;
  ini << "[grid]\n"
         "billing = dollars\n"
         "users = 100\n"
         "evaluator = least-cost\n"
         "brokered = false\n"
         "seed = 42\n\n";
  for (int i = 0; i < 1000; ++i) {
    const bool big = i % 100 == 0;
    ini << "[cluster]\n"
        << "name = c" << i << "\n"
        << "procs = " << (big ? 64 : 4) << "\n"
        << "cost = " << 0.0005 + (i % 7) * 0.0001 << "\n"
        << "strategy = " << (big && i % 200 == 0 ? "payoff" : "fcfs") << "\n"
        << "bidgen = baseline\n\n";
  }
  ini << "[workload]\n"
         "jobs = 2000\n"
         "load = 0.7\n"
         "min_procs_lo = 32\n"
         "min_procs_hi = 48\n";
  return ini.str();
}

struct Outputs {
  std::string report_json;
  std::string trace_jsonl;
  std::string chrome;
  std::string prometheus;
  std::uint64_t submitted = 0;
  std::uint64_t executed = 0;
};

Outputs run(const std::string& ini, bool profile) {
  Scenario scenario = Scenario::parse_string(ini);
  scenario.grid.profile.enabled = profile;
  auto grid = scenario.make_grid();
  const GridReport report = grid->run(scenario.make_requests(), /*until=*/1e9);
  EXPECT_EQ(grid->profiler() != nullptr, profile);

  Outputs out;
  out.submitted = report.jobs_submitted;
  out.executed = grid->engine().executed();
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

TEST(Profiling, DoesNotPerturbOutputs) {
  const std::string ini = big_grid_ini();
  const Outputs off = run(ini, /*profile=*/false);
  const Outputs on = run(ini, /*profile=*/true);
  ASSERT_GT(off.submitted, 0u);
  EXPECT_EQ(off.report_json, on.report_json);
  EXPECT_EQ(off.trace_jsonl, on.trace_jsonl);
  EXPECT_EQ(off.chrome, on.chrome);
  EXPECT_EQ(off.prometheus, on.prometheus);
  EXPECT_EQ(off.executed, on.executed)
      << "profiling must not add, drop, or reorder a single event";
}

}  // namespace
}  // namespace faucets::core
