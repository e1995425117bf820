#include "src/sweep/runner.hpp"

#include <atomic>
#include <utility>

#include "src/obs/profiler.hpp"
#include "src/sweep/thread_pool.hpp"

namespace faucets::sweep {

RunResult SweepRunner::execute(const RunPoint& point, bool profile) const {
  core::Scenario scenario = spec_.materialize(point);
  if (spec_.mode() == SweepMode::kCluster) {
    const auto source = scenario.make_source();
    const auto result = core::run_cluster_experiment(
        scenario.clusters.front().machine, scenario.clusters.front().strategy,
        *source, scenario.clusters.front().costs);
    return make_result(point, spec_.mode(), cluster_metrics(result));
  }
  if (!profile) {
    const auto report = scenario.run();
    return make_result(point, spec_.mode(), grid_metrics(report));
  }
  // Profiled grid point: build the grid directly so the profiler survives
  // the run, then append the host-time prof_* columns after the sim metrics.
  scenario.grid.profile.enabled = true;
  const auto grid = scenario.make_grid();
  const auto source = scenario.make_source();
  const auto report = grid->run(*source);
  auto metrics = grid_metrics(report);
  if (const obs::Profiler* prof = grid->profiler()) {
    prof->append_sweep_metrics(metrics);
  }
  return make_result(point, spec_.mode(), std::move(metrics));
}

std::vector<RunResult> SweepRunner::run(const SweepOptions& options) const {
  const std::vector<RunPoint> points = spec_.expand();
  std::atomic<std::size_t> completed{0};
  // expand() numbers its points 0..n-1, so index i is run id i.
  return parallel_map(points.size(), options.threads, [&](std::size_t run_id) {
    RunResult result = execute(points[run_id], options.profile);
    if (options.sink != nullptr) options.sink->append(result.jsonl);
    if (options.on_progress) {
      options.on_progress(completed.fetch_add(1, std::memory_order_relaxed) + 1,
                          points.size());
    }
    return result;
  });
}

}  // namespace faucets::sweep
