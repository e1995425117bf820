// Zero-allocation guarantee for the sampler hot path: Series buffers are
// reserved to capacity at registration time and compaction merges in place,
// so Sampler::sample() must never touch the global heap — including across
// compaction events, which is exactly when a naive implementation would
// reallocate. Same counting-allocator technique as the trace ring; separate
// binary so the replaced operators cannot perturb other suites.
#include <gtest/gtest.h>

#include <cstddef>

#include "src/obs/sampler.hpp"
#include "tests/support/alloc_counter.hpp"

namespace faucets::obs {
namespace {

using test::allocations;

TEST(SamplerAlloc, SampleIsAllocationFreeAcrossCompaction) {
  Sampler s;
  double util = 0.0;
  double depth = 0.0;
  // Registration allocates (names, probes, reserved buffers) — that's fine.
  s.add_series("faucets_cluster_utilization", [&] { return util; }, "", 64);
  s.add_series("faucets_cluster_queue_depth", [&] { return depth; }, "", 64);

  const auto before = allocations();
  // 10k snapshots into 64-point buffers force many compaction rounds.
  for (int i = 0; i < 10'000; ++i) {
    util = static_cast<double>(i % 100) / 100.0;
    depth = static_cast<double>(i % 7);
    s.sample(static_cast<double>(i));
  }
  EXPECT_EQ(allocations(), before)
      << "sample() must not allocate, even when buffers compact";
  EXPECT_EQ(s.samples_taken(), 10'000u);
  EXPECT_EQ(s.series(0).observations(), 10'000u);
  EXPECT_LE(s.series(0).points().size(), 64u);
}

TEST(SamplerAlloc, ReadsDoNotAllocate) {
  Sampler s;
  s.add_series("sig", [] { return 1.0; }, "", 16);
  for (int i = 0; i < 100; ++i) s.sample(static_cast<double>(i));

  const auto before = allocations();
  double acc = 0.0;
  s.for_each([&](const Series& series) {
    for (const SamplePoint& p : series.points()) acc += p.mean();
    acc += series.value_min() + series.value_max();
  });
  EXPECT_EQ(allocations(), before);
  EXPECT_GT(acc, 0.0);
}

}  // namespace
}  // namespace faucets::obs
