// Experiment E12: telemetry analytics overhead — the end-to-end cost of
// periodic time-series sampling on a full grid market run (the figure
// BENCH_telemetry.json records: sampling at the default cadence must stay
// within 5% of a sampling-off run), plus microbenchmarks for one sampler
// snapshot, span-tree decomposition, and the HTML report writer.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "src/core/grid_system.hpp"
#include "src/obs/report.hpp"
#include "src/obs/sampler.hpp"
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

core::GridReport run_grid(double sample_interval) {
  core::GridConfig config;
  config.telemetry.sample_interval = sample_interval;  // 0 = sampling off
  core::GridSystem grid(config,
                        {make_cluster("alpha", 0.0001), make_cluster("beta", 0.0005),
                         make_cluster("gamma", 0.0009)},
                        4);
  return grid.run(workload(48), /*until=*/1e7);
}

// The headline figure: a full market run with sampling off vs on at the
// default scenario_sim cadence of 5 sim-seconds. The two arms are timed as a
// PAIR inside each iteration, alternating which runs first, so slow clock
// drift (frequency scaling, thermal throttle) lands on both arms equally —
// timing the arms as separate benchmarks makes a ~1% true delta
// indistinguishable from machine noise. The off/on counters are what
// BENCH_telemetry.json records; the displayed iteration time is off+on.
void BM_GridRunTelemetry(benchmark::State& state) {
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
    const core::GridReport first = run_grid(off_first ? 0.0 : 5.0);
    const clock::time_point t1 = clock::now();
    const core::GridReport second = run_grid(off_first ? 5.0 : 0.0);
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
BENCHMARK(BM_GridRunTelemetry)->Unit(benchmark::kMillisecond);

// One sampler snapshot over a realistic signal count (3 clusters x 3 signals
// + 4 market-wide series): the cost GridSystem pays per sampling event.
void BM_SamplerSnapshot(benchmark::State& state) {
  obs::Sampler sampler;
  double value = 0.0;
  for (int i = 0; i < 13; ++i) {
    sampler.add_series("signal_" + std::to_string(i), [&value] { return value; },
                       "", 512);
  }
  double t = 0.0;
  for (auto _ : state) {
    value = t * 0.5;
    sampler.sample(t);
    t += 5.0;
  }
  benchmark::DoNotOptimize(sampler.samples_taken());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SamplerSnapshot);

// Decomposing one run's span trees (the end-of-run analyzer pass).
void BM_AnalyzeSpans(benchmark::State& state) {
  obs::SpanTracker spans;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i) {
    const double base = static_cast<double>(i) * 50.0;
    const SpanId root = spans.start_span(obs::SpanKind::kSubmission, base);
    spans.set_user(root, UserId{i % 4});
    const SpanId rfb = spans.start_span(obs::SpanKind::kRfb, base, root);
    spans.record_bid(rfb, base + 1.0, 0.5);
    spans.end_span(rfb, base + 2.0);
    const SpanId award =
        spans.start_span(obs::SpanKind::kAward, base + 2.0, rfb);
    spans.end_span(award, base + 3.0);
    const SpanId queue =
        spans.start_span(obs::SpanKind::kQueue, base + 3.0, award);
    spans.bind_job(queue, ClusterId{i % 3}, JobId{i});
    spans.end_span(queue, base + 10.0);
    const SpanId run =
        spans.start_span(obs::SpanKind::kRun, base + 10.0, queue);
    spans.end_span(run, base + 40.0);
    spans.instant_span(obs::SpanKind::kComplete, base + 40.0, run);
    spans.end_span(root, base + 40.0);
  }
  for (auto _ : state) {
    const obs::SpanAnalysis analysis = obs::analyze_spans(spans);
    benchmark::DoNotOptimize(analysis.jobs.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AnalyzeSpans)->Arg(100)->Arg(1000);

// Rendering the self-contained HTML report (charts + tables) to a string.
void BM_WriteHtmlReport(benchmark::State& state) {
  obs::Sampler sampler;
  double value = 0.0;
  for (int i = 0; i < 13; ++i) {
    sampler.add_series("signal_" + std::to_string(i), [&value] { return value; },
                       "", 512);
  }
  for (int t = 0; t < 2000; ++t) {
    value = static_cast<double>(t % 64);
    sampler.sample(static_cast<double>(t) * 5.0);
  }
  obs::SpanAnalysis analysis;
  for (int i = 0; i < 200; ++i) {
    obs::JobPhaseRecord rec;
    rec.root = SpanId{static_cast<std::uint64_t>(i)};
    rec.submit = i * 10.0;
    rec.end = i * 10.0 + 40.0;
    rec.phase_seconds = {1.0, 2.0, 5.0, 30.0, 1.0, 1.0};
    rec.outcome = obs::SpanKind::kComplete;
    analysis.jobs.push_back(rec);
  }
  for (auto _ : state) {
    std::ostringstream os;
    obs::write_html_report(os, sampler, analysis, {}, {});
    benchmark::DoNotOptimize(os.str().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WriteHtmlReport);

}  // namespace

BENCHMARK_MAIN();
