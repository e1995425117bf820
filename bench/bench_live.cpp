// Experiment E17: live operations plane overhead — the end-to-end cost of
// serving the monitoring endpoints during a full grid market run (the
// figure BENCH_live.json records: the plane must stay within 5% of a
// plane-off run), plus microbenchmarks for the paced maybe_publish check
// the simulation loop pays per boundary and for a full snapshot publish.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/grid_system.hpp"
#include "src/obs/live/plane.hpp"
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
  setup.costs = job::AdaptiveCosts{.reconfig_seconds = 0.0,
                                   .checkpoint_seconds = 0.0,
                                   .restart_seconds = 0.0};
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

core::GridReport run_grid(bool live) {
  core::GridBuilder b;
  b.cluster(make_cluster("alpha", 0.0001))
      .cluster(make_cluster("beta", 0.0005))
      .cluster(make_cluster("gamma", 0.0009))
      .users(4);
  // The full production configuration: HTTP server on an ephemeral port,
  // monitors on, default 0.1s publish pacing — every hook the simulation
  // loop pays runs; only actual scrapes are absent (a scrape never touches
  // the simulation thread anyway).
  if (live) b.serve(0);
  auto grid = b.build();
  // 512 jobs ≈ 15ms of host time per run: long enough that the plane's
  // fixed setup (server thread spawn, socket bind, teardown join) amortizes
  // and the measured overhead is the steady-state publish cost, which is
  // what the <5% budget is about.
  return grid->run(workload(512), /*until=*/1e7);
}

// The headline figure: a full market run with the plane off vs on. The two
// arms are timed as a PAIR inside each iteration, alternating which runs
// first, so slow clock drift (frequency scaling, thermal throttle) lands on
// both arms equally — the same protocol as bench_telemetry/bench_profiler.
// The off/on counters are what BENCH_live.json records; the displayed
// iteration time is off+on.
void BM_GridRunLivePlane(benchmark::State& state) {
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
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_GridRunLivePlane)->Unit(benchmark::kMillisecond);

/// A plane over a fabricated registry and ring, no server/ticker threads:
/// isolates the publish-path cost from socket machinery.
struct PlaneHarness {
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace{1 << 12};
  std::uint64_t executed = 0;
  std::unique_ptr<obs::live::LivePlane> plane;

  explicit PlaneHarness(double publish_interval) {
    for (int i = 0; i < 8; ++i) {
      metrics.counter("faucets_bench_counter_" + std::to_string(i)).inc(1);
    }
    metrics.histogram("faucets_bench_wait_seconds", {1.0, 10.0, 100.0})
        .observe(2.0);
    obs::live::LiveConfig config;
    config.publish_interval = publish_interval;
    obs::live::LivePlane::Bindings b;
    b.metrics = &metrics;
    b.trace = &trace;
    b.executed = [this] { return executed; };
    plane = std::make_unique<obs::live::LivePlane>(config, std::move(b));
    plane->begin_run();
    plane->publish(0.0);  // schema capture off the timed path
  }
};

// What the simulation loop pays at a boundary when the pacing interval has
// NOT elapsed: one clock read and a compare. This is the per-event-boundary
// cost of having the plane enabled.
void BM_LiveMaybePublishPaced(benchmark::State& state) {
  PlaneHarness h(/*publish_interval=*/3600.0);  // never due again
  double t = 1.0;
  for (auto _ : state) {
    h.plane->maybe_publish(t);
    t += 1.0;
  }
  benchmark::DoNotOptimize(h.plane->publishes());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LiveMaybePublishPaced);

// A full snapshot publish: capture every instrument value, the trace tail,
// progress, and run the monitor suite. This is the cost paid once per
// publish interval (default every 0.1 host seconds).
void BM_LivePublishSnapshot(benchmark::State& state) {
  PlaneHarness h(/*publish_interval=*/0.0);
  double t = 1.0;
  for (auto _ : state) {
    ++h.executed;
    h.plane->publish(t);
    t += 1.0;
  }
  benchmark::DoNotOptimize(h.plane->publishes());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LivePublishSnapshot);

}  // namespace

BENCHMARK_MAIN();
