// Experiment E14: host-time profiler overhead — the end-to-end cost of
// per-event attribution plus phase accounting on a full grid market run
// (the figure BENCH_profiler.json records: profiling must stay within 5%
// of a profiling-off run), plus microbenchmarks for the per-event record
// path and the ProfStats histogram insert.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/grid_system.hpp"
#include "src/obs/profiler.hpp"
#include "src/sched/equipartition.hpp"

namespace {

using namespace faucets;

core::ClusterSetup make_cluster(const std::string& name, double cost) {
  core::ClusterSetup setup;
  setup.machine.name = name;
  setup.machine.total_procs = 64;
  setup.machine.cost_per_cpu_second = cost;
  setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  setup.bid_generator = [] { return std::make_unique<market::BaselineBidGenerator>(); };
  setup.costs = job::AdaptiveCosts{.reconfig_seconds = 0.0};
  return setup;
}

std::vector<job::JobRequest> workload(std::size_t n) {
  std::vector<job::JobRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    job::JobRequest req;
    req.submit_time = static_cast<double>(i) * 20.0;
    req.user_index = i % 4;
    req.contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
    req.contract.payoff = qos::PayoffFunction::flat(10.0);
    reqs.push_back(std::move(req));
  }
  return reqs;
}

core::GridReport run_grid(bool profiled) {
  core::GridConfig config;
  // The run only records, so this arm pays every hot-path hook and no
  // export.
  config.profile.enabled = profiled;
  core::GridSystem grid(config,
                        {make_cluster("alpha", 0.0001), make_cluster("beta", 0.0005),
                         make_cluster("gamma", 0.0009)},
                        4);
  return grid.run(workload(48), /*until=*/1e7);
}

// The headline figure: a full market run with the profiler off vs on. The
// two arms are timed as a PAIR inside each iteration, alternating which
// runs first, so slow clock drift (frequency scaling, thermal throttle)
// lands on both arms equally — the same protocol as bench_telemetry. The
// off/on counters are what BENCH_profiler.json records; the displayed
// iteration time is off+on.
void BM_GridRunProfiler(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  const auto seconds = [](clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  double off_s = 0.0;
  double on_s = 0.0;
  std::uint64_t rounds = 0;
  bool off_first = true;
  for (auto _ : state) {
    const clock::time_point t0 = clock::now();
    const core::GridReport first = run_grid(!off_first);
    const clock::time_point t1 = clock::now();
    const core::GridReport second = run_grid(off_first);
    const clock::time_point t2 = clock::now();
    (off_first ? off_s : on_s) += seconds(t1 - t0);
    (off_first ? on_s : off_s) += seconds(t2 - t1);
    off_first = !off_first;
    ++rounds;
    benchmark::DoNotOptimize(first.jobs_completed + second.jobs_completed);
  }
  const double n = rounds > 0 ? static_cast<double>(rounds) : 1.0;
  state.counters["off_ms_per_run"] = benchmark::Counter(off_s * 1e3 / n);
  state.counters["on_ms_per_run"] = benchmark::Counter(on_s * 1e3 / n);
  state.counters["overhead_pct"] =
      benchmark::Counter(off_s > 0.0 ? (on_s - off_s) / off_s * 100.0 : 0.0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 96);
}
BENCHMARK(BM_GridRunProfiler)->Unit(benchmark::kMillisecond);

// The per-event hot path in isolation: two HostClock reads, a tag store,
// and a ProfStats insert into the kind and entity histograms. This is what
// Engine::step pays per handler when a lane is attached.
void BM_ProfilerLaneRecord(benchmark::State& state) {
  obs::Profiler prof;
  obs::ProfilerLane& lane = prof.lane(0);
  for (auto _ : state) {
    lane.begin_event();
    lane.set_event_tag(3, 2);
    lane.end_event();
  }
  benchmark::DoNotOptimize(lane.events());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProfilerLaneRecord);

// One ProfStats insert: bit_width bucketing plus count/total/min/max.
void BM_ProfStatsRecord(benchmark::State& state) {
  obs::ProfStats stats;
  std::uint64_t ticks = 1;
  for (auto _ : state) {
    stats.record(ticks);
    ticks = ticks * 6364136223846793005ULL + 1442695040888963407ULL;
    ticks = (ticks >> 40) | 1;  // bounded, varying bucket
  }
  benchmark::DoNotOptimize(stats.count);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProfStatsRecord);

}  // namespace

BENCHMARK_MAIN();
