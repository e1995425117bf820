// Streaming trace replay's headline guarantees (DESIGN.md §13):
//
//  1. Stream == preload: running a grid off SwfStreamSource pull-by-pull
//     produces byte-identical artifacts to preloading the same trace into
//     a vector first, for the raw and the user-multiplied trace, and a
//     repeated streamed run reproduces them. Streaming changes memory,
//     never results.
//  2. Sweeps over trace axes (time_compression x user_multiplier) are
//     byte-identical at 1 vs 8 worker threads.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/core/scenario.hpp"
#include "src/obs/exporters.hpp"
#include "src/sweep/sweep.hpp"

namespace faucets::core {
namespace {

/// A sorted, deterministic 150-record SWF trace: 9 users, mixed sizes and
/// runtimes, arrivals every 20 s.
std::string swf_text() {
  std::string out = "; synthetic replay fixture\n";
  for (int i = 0; i < 150; ++i) {
    out += std::to_string(i + 1) + " " + std::to_string(i * 20) + " 0 " +
           std::to_string(300 + (i % 5) * 120) + " -1 -1 -1 " +
           std::to_string(4 << (i % 4)) + " " +
           std::to_string(600 + (i % 7) * 300) + " -1 1 " +
           std::to_string(1 + i % 9) + " 1 1 1 1 -1 -1\n";
  }
  return out;
}

/// Write the fixture once per process; scenarios reference it by path.
/// ctest runs each test in its own process, in parallel, all on this one
/// path: each process writes a private copy and renames it into place, so
/// a reader never sees another process's half-written file.
const std::string& trace_path() {
  static const std::string path = [] {
    const std::string p = testing::TempDir() + "faucets_replay_fixture.swf";
    const std::string tmp = p + "." + std::to_string(::getpid());
    {
      std::ofstream f(tmp);
      f << swf_text();
    }
    if (std::rename(tmp.c_str(), p.c_str()) != 0) {
      throw std::runtime_error("cannot publish " + p);
    }
    return p;
  }();
  return path;
}

std::string grid_ini(const std::string& trace_extra) {
  std::ostringstream ini;
  ini << "[grid]\n"
         "users = 12\n"
         "seed = 42\n"
         "evaluator = least-cost\n\n";
  for (int i = 0; i < 4; ++i) {
    ini << "[cluster]\n"
        << "name = r" << i << "\n"
        << "procs = 64\n"
        << "cost = " << 0.0006 + i * 0.0002 << "\n"
        << "strategy = " << (i % 2 == 0 ? "payoff" : "fcfs") << "\n"
        << "bidgen = baseline\n\n";
  }
  ini << "[trace]\n"
      << "file = " << trace_path() << "\n"
      << "malleability = 0.5\n"
      << "deadline_fraction = 0.6\n"
      << "jitter = 40\n"
      << trace_extra;
  return ini.str();
}

struct Outputs {
  std::string report_json;
  std::string trace_jsonl;
  std::uint64_t submitted = 0;
  std::size_t high_water = 0;
};

Outputs run_streamed(const std::string& ini) {
  Scenario scenario = Scenario::parse_string(ini);
  auto grid = scenario.make_grid();
  auto source = scenario.make_source();
  const GridReport report = grid->run(*source, /*until=*/1e9);

  Outputs out;
  out.submitted = report.jobs_submitted;
  out.high_water = grid->workload_high_water();
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
  return out;
}

Outputs run_preloaded(const std::string& ini) {
  Scenario scenario = Scenario::parse_string(ini);
  auto grid = scenario.make_grid();
  const GridReport report =
      grid->run(scenario.make_requests(), /*until=*/1e9);

  Outputs out;
  out.submitted = report.jobs_submitted;
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
  return out;
}

/// Streams `ini` twice and preloads it once; all three runs must agree
/// byte for byte. Returns the first streamed run for further checks.
Outputs expect_stream_matches_preload(const std::string& ini) {
  const Outputs streamed = run_streamed(ini);
  const Outputs again = run_streamed(ini);
  const Outputs preloaded = run_preloaded(ini);
  EXPECT_EQ(streamed.report_json, preloaded.report_json);
  EXPECT_EQ(streamed.trace_jsonl, preloaded.trace_jsonl);
  EXPECT_EQ(streamed.report_json, again.report_json);
  EXPECT_EQ(streamed.trace_jsonl, again.trace_jsonl);
  return streamed;
}

TEST(ReplayDeterminism, StreamMatchesPreloadByteForByte) {
  // The raw trace's 9 users leave 3 of the 12 client lanes empty for the
  // whole run, so priming reads the entire trace (the degenerate routing
  // case of DESIGN.md §13); only identity is checked here.
  const Outputs streamed = expect_stream_matches_preload(grid_ini(""));
  EXPECT_EQ(streamed.submitted, 150u);
}

TEST(ReplayDeterminism, MultipliedTraceStreamMatchesPreload) {
  // 4 clones per record fill every client lane, so the read-ahead bound
  // applies.
  const Outputs streamed =
      expect_stream_matches_preload(grid_ini("user_multiplier = 4\n"));
  ASSERT_EQ(streamed.submitted, 600u);  // 150 records x 4 clones
  // Streaming memory bound: the demux never buffered anywhere near the
  // whole workload.
  EXPECT_GT(streamed.high_water, 0u);
  EXPECT_LT(streamed.high_water, streamed.submitted);
}

TEST(ReplayDeterminism, TraceAxisSweepByteIdenticalAcrossThreads) {
  // 2 schedulers x 2 compressions x 2 multipliers x 2 replicates = 16 runs.
  std::ostringstream ini;
  ini << "[grid]\n"
         "users = 6\n"
         "seed = 2026\n"
         "[cluster]\n"
         "name = s\n"
         "procs = 64\n"
         "[trace]\n"
      << "file = " << trace_path() << "\n"
      << "malleability = 1.0\n"
         "deadline_fraction = 0.5\n"
         "[sweep]\n"
         "mode = cluster\n"
         "schedulers = fcfs, equipartition\n"
         "time_compressions = 1, 2\n"
         "user_multipliers = 1, 4\n"
         "replicates = 2\n";

  const sweep::SweepRunner runner(sweep::SweepSpec::parse_string(ini.str()));
  const auto serial = runner.run({.threads = 1});
  const auto parallel = runner.run({.threads = 8});
  ASSERT_EQ(serial.size(), 16u);
  ASSERT_EQ(parallel.size(), 16u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].jsonl, parallel[i].jsonl) << "run " << i;
    // Trace axes are recorded in the artifact so rows are self-describing.
    EXPECT_NE(serial[i].jsonl.find("\"time_compression\":"), std::string::npos);
    EXPECT_NE(serial[i].jsonl.find("\"user_multiplier\":"), std::string::npos);
  }

  std::ostringstream a;
  std::ostringstream b;
  sweep::write_ordered(a, serial);
  sweep::write_ordered(b, parallel);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ReplayDeterminism, CompressionRaisesOfferedLoad) {
  // Sanity anchor for the scale knobs: compressing a month into a week
  // must not lose jobs, only pack them tighter.
  const Outputs raw = run_streamed(grid_ini(""));
  const Outputs fast = run_streamed(grid_ini("time_compression = 4\n"));
  EXPECT_EQ(raw.submitted, fast.submitted);
  EXPECT_NE(raw.report_json, fast.report_json);
}

}  // namespace
}  // namespace faucets::core
