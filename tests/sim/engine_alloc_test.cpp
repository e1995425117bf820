// Zero-allocation guarantee for the timer hot path: once the slot pool is
// warm, schedule/cancel/fire with captures that fit SmallFunction's inline
// buffer must not touch the global heap. A global counting operator
// new/delete pair makes any regression an immediate test failure.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "src/sim/callable.hpp"
#include "src/sim/engine.hpp"
#include "tests/support/alloc_counter.hpp"

namespace faucets::sim {
namespace {

using test::allocations;

TEST(EngineAlloc, SmallCapturesFitInline) {
  struct Capture {
    std::uint64_t* counter;
    double a, b, c;
  };
  static_assert(SmallFunction::fits_inline<Capture>(),
                "a pointer plus a few doubles must fit the inline buffer");
  std::uint64_t n = 0;
  Capture cap{&n, 1.0, 2.0, 3.0};
  const auto before = allocations();
  SmallFunction fn{[cap] { ++*cap.counter; }};
  fn();
  EXPECT_EQ(allocations(), before) << "inline callable must not heap-allocate";
  EXPECT_EQ(n, 1u);
}

TEST(EngineAlloc, WarmHotPathIsAllocationFree) {
  Engine engine;
  std::uint64_t fired = 0;
  // Warm up: grow the slot pool and the heap vector to steady state.
  constexpr int kBatch = 64;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < kBatch; ++i) {
      engine.schedule_after(static_cast<double>(i % 7), [&fired] { ++fired; });
    }
    engine.run();
  }

  const auto before = allocations();
  for (int round = 0; round < 100; ++round) {
    EventHandle victim;
    for (int i = 0; i < kBatch; ++i) {
      auto h = engine.schedule_after(static_cast<double>(i % 7),
                                     [&fired] { ++fired; });
      if (i % 3 == 0) victim = h;
    }
    victim.cancel();
    engine.run();
  }
  EXPECT_EQ(allocations(), before)
      << "schedule/cancel/run on a warm pool must not allocate";
  EXPECT_GT(fired, 0u);
}

TEST(EngineAlloc, CaptureAtInlineBoundaryStaysInline) {
  // Exactly kInlineCapacity bytes: the documented contract of the ISSUE —
  // captures up to 48 bytes ride in the event slot itself.
  struct Boundary {
    std::uint64_t* counter;
    std::byte pad[SmallFunction::kInlineCapacity - sizeof(std::uint64_t*)];
  };
  static_assert(sizeof(Boundary) == SmallFunction::kInlineCapacity);
  static_assert(SmallFunction::fits_inline<Boundary>());

  Engine engine;
  std::uint64_t n = 0;
  Boundary cap{};
  cap.counter = &n;
  engine.schedule_at(1.0, [] {});  // warm one slot
  engine.run();

  const auto before = allocations();
  engine.schedule_at(2.0, [cap] { ++*cap.counter; });
  engine.run();
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(n, 1u);
}

TEST(EngineAlloc, OversizedCapturesStillWorkViaHeap) {
  struct Big {
    std::uint64_t* counter;
    double pad[16];
  };
  static_assert(!SmallFunction::fits_inline<Big>());
  Engine engine;
  std::uint64_t n = 0;
  Big cap{};
  cap.counter = &n;
  const auto before = allocations();
  engine.schedule_at(1.0, [cap] { ++*cap.counter; });
  engine.run();
  EXPECT_GT(allocations(), before) << "boxed fallback is expected to allocate";
  EXPECT_EQ(n, 1u);
}

TEST(EngineAlloc, MoveOnlyInlineCaptureDoesNotLeak) {
  // unique_ptr capture allocates for the pointee, not for the callable box;
  // the SmallFunction move machinery must destroy it exactly once.
  Engine engine;
  int seen = 0;
  {
    auto payload = std::make_unique<int>(9);
    engine.schedule_at(1.0, [p = std::move(payload), &seen] { seen = *p; });
  }
  engine.run();
  EXPECT_EQ(seen, 9);
}

}  // namespace
}  // namespace faucets::sim
