// Experiment E9b (DESIGN.md): allocator and Gantt-chart microbenchmarks —
// the inner loops of admission control. google-benchmark.
#include <benchmark/benchmark.h>

#include "src/cluster/allocator.hpp"
#include "src/cluster/gantt.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace faucets;
using namespace faucets::cluster;

void BM_AllocatorChurn(benchmark::State& state) {
  const bool contiguous = state.range(0) == 1;
  Rng rng{7};
  ContiguousAllocator alloc{4096};
  std::vector<std::vector<ProcRange>> held;
  for (auto _ : state) {
    if (rng.bernoulli(0.55) || held.empty()) {
      const int n = static_cast<int>(rng.uniform_int(8, 256));
      if (contiguous) {
        if (auto r = alloc.allocate(n)) held.push_back({*r});
      } else {
        auto pieces = alloc.allocate_scattered(n);
        if (!pieces.empty()) held.push_back(std::move(pieces));
      }
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
      for (const auto& r : held[idx]) alloc.release(r);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocatorChurn)->Arg(1)->Arg(0)->ArgName("contiguous");

void BM_GanttReserve(benchmark::State& state) {
  Rng rng{11};
  for (auto _ : state) {
    state.PauseTiming();
    GanttChart gantt{1024};
    state.ResumeTiming();
    for (int i = 0; i < 256; ++i) {
      const double start = rng.uniform(0.0, 1e5);
      gantt.reserve(start, start + rng.uniform(10.0, 5000.0),
                    static_cast<int>(rng.uniform_int(1, 256)));
    }
    benchmark::DoNotOptimize(gantt.committed_at(5e4));
  }
  state.SetItemsProcessed(256 * state.iterations());
}
BENCHMARK(BM_GanttReserve);

void BM_GanttEarliestFit(benchmark::State& state) {
  const auto reservations = static_cast<int>(state.range(0));
  Rng rng{13};
  GanttChart gantt{1024};
  for (int i = 0; i < reservations; ++i) {
    const double start = rng.uniform(0.0, 1e5);
    gantt.reserve(start, start + rng.uniform(10.0, 5000.0),
                  static_cast<int>(rng.uniform_int(1, 200)));
  }
  for (auto _ : state) {
    const double t = gantt.earliest_fit(rng.uniform(0.0, 1e5), 600.0, 512, 2e5);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GanttEarliestFit)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
