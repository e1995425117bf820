// Zero-allocation guarantee for fault bookkeeping: deciding the fate of a
// message — loss roll, partition lookup, jitter draw — happens on the
// network's per-message hot path and must never touch the global heap. A
// global counting operator new/delete pair makes any regression an
// immediate test failure.
#include <gtest/gtest.h>

#include <cstddef>

#include "src/sim/faults.hpp"
#include "tests/support/alloc_counter.hpp"

namespace faucets::sim {
namespace {

using test::allocations;

TEST(FaultAlloc, InspectIsAllocationFree) {
  FaultInjector inj;
  FaultConfig config;
  config.loss_rate = 0.2;
  config.jitter = 1.0;
  config.partitions.push_back({EntityId{5}, 100.0, 200.0});
  config.partitions.push_back({EntityId{9}, 300.0, 400.0});
  inj.configure(std::move(config));

  const auto before = allocations();
  std::uint64_t drops = 0;
  double delay = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const auto v =
        inj.inspect(EntityId{1}, EntityId{static_cast<std::uint64_t>(i % 12)},
                    static_cast<double>(i % 500));
    drops += v.drop ? 1u : 0u;
    delay += v.extra_delay;
  }
  EXPECT_EQ(allocations(), before)
      << "per-message fault decisions must not heap-allocate";
  EXPECT_GT(drops, 0u);
  EXPECT_GT(delay, 0.0);
}

TEST(FaultAlloc, DisabledInspectIsAllocationFree) {
  FaultInjector inj;
  const auto before = allocations();
  for (int i = 0; i < 100000; ++i) {
    (void)inj.inspect(EntityId{1}, EntityId{2}, static_cast<double>(i));
  }
  EXPECT_EQ(allocations(), before);
}

}  // namespace
}  // namespace faucets::sim
