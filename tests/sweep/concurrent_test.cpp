// Thread-safety audit tests (DESIGN.md §9): the per-run state contract.
//
// SimContext owns every piece of mutable simulation state — engine, network,
// recorders — and the library keeps no process-wide mutable state, so two
// complete grid simulations running on two threads must produce exactly the
// results they produce serially.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/core/scenario.hpp"
#include "src/sweep/result.hpp"

namespace faucets {
namespace {

constexpr const char* kScenarioA = R"ini(
[grid]
users = 6
seed = 31
evaluator = least-cost

[cluster]
name = a1
procs = 96
strategy = payoff

[cluster]
name = a2
procs = 64
strategy = equipartition

[workload]
jobs = 40
load = 0.8
)ini";

constexpr const char* kScenarioB = R"ini(
[grid]
users = 5
seed = 93
evaluator = earliest-completion

[cluster]
name = b1
procs = 128
strategy = backfill
bidgen = utilization

[cluster]
name = b2
procs = 48
strategy = payoff

[workload]
jobs = 35
load = 1.1
)ini";

std::vector<std::pair<std::string, double>> run_one(const char* ini) {
  auto scenario = core::Scenario::parse_string(ini);
  return sweep::grid_metrics(scenario.run());
}

TEST(ConcurrentEngines, TwoGridsOnTwoThreadsMatchSerialRuns) {
  // Serial reference runs first...
  const auto serial_a = run_one(kScenarioA);
  const auto serial_b = run_one(kScenarioB);

  // ...then both engines at once, each on its own thread.
  std::vector<std::pair<std::string, double>> threaded_a;
  std::vector<std::pair<std::string, double>> threaded_b;
  std::thread ta([&threaded_a] { threaded_a = run_one(kScenarioA); });
  std::thread tb([&threaded_b] { threaded_b = run_one(kScenarioB); });
  ta.join();
  tb.join();

  EXPECT_EQ(threaded_a, serial_a);
  EXPECT_EQ(threaded_b, serial_b);
  // The scenarios are genuinely different simulations, not aliases.
  EXPECT_NE(serial_a, serial_b);
}

TEST(ConcurrentEngines, RerunningTheSameScenarioConcurrentlyAgrees) {
  const auto reference = run_one(kScenarioA);
  std::vector<std::vector<std::pair<std::string, double>>> out(4);
  std::vector<std::thread> threads;
  threads.reserve(out.size());
  for (auto& slot : out) {
    threads.emplace_back([&slot] { slot = run_one(kScenarioA); });
  }
  for (auto& t : threads) t.join();
  for (const auto& result : out) EXPECT_EQ(result, reference);
}

}  // namespace
}  // namespace faucets
