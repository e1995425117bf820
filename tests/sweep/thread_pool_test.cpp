#include "src/sweep/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace faucets::sweep {
namespace {

using namespace std::chrono_literals;

TEST(ThreadPool, RunsEveryTask) {
  std::atomic<int> count{0};
  parallel_for(200, 4, [&count](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ClampsToAtLeastOneThread) {
  // Zero threads means one worker: the calling thread runs every index.
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(5);
  parallel_for(ran_on.size(), 0,
               [&ran_on](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const auto id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturns) {
  // An empty index range returns at once and runs no body.
  bool ran = false;
  parallel_for(0, 2, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  // The pool lives for one call and joins its workers before returning:
  // bodies still running when the cursor passes the end are finished, not
  // abandoned.
  std::atomic<int> count{0};
  parallel_for(64, 2, [&count](std::size_t) {
    std::this_thread::sleep_for(200us);
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  // count 0, count < threads, and count far above threads.
  for (const auto& [count, threads] :
       {std::pair<std::size_t, std::size_t>{0, 4}, {3, 8}, {1000, 4}}) {
    std::vector<std::atomic<int>> hits(count);
    parallel_for(count, threads, [&hits](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << count;
    }
  }
}

TEST(ThreadPool, NeverRunsMoreBodiesThanThreads) {
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  parallel_for(60, 3, [&](std::size_t) {
    const int now = running.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(500us);
    running.fetch_sub(1);
  });
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), 3);
}

TEST(ThreadPool, IdleWorkerTakesTheNextIndexWhileOneBlocks) {
  // Body 0 blocks its worker until every other body has run. With two
  // workers, the other one must take each later index from the cursor
  // while body 0 waits; a pool that assigned any later index to body 0's
  // worker ahead of time would leave it queued there and time out.
  std::vector<std::atomic<int>> hits(10);
  std::latch others_ran{static_cast<std::ptrdiff_t>(hits.size() - 1)};
  bool timed_out = false;
  parallel_for(hits.size(), 2, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    if (i != 0) {
      others_ran.count_down();
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (!others_ran.try_wait()) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out = true;
        return;
      }
      std::this_thread::sleep_for(1ms);
    }
  });
  EXPECT_FALSE(timed_out) << "an index waited behind the blocked body";
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, FailuresRunEveryOtherIndexAndRethrowTheLowest) {
  // More failing bodies than workers: a worker keeps taking indices after
  // a body of its own threw.
  std::vector<std::atomic<int>> hits(50);
  try {
    parallel_for(hits.size(), 2, [&hits](std::size_t i) {
      if (i == 40 || i == 3 || i == 17) {
        throw std::runtime_error("boom at " + std::to_string(i));
      }
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 3");
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const bool threw = i == 40 || i == 3 || i == 17;
    EXPECT_EQ(hits[i].load(), threw ? 0 : 1) << "index " << i;
  }
}

TEST(ParallelMap, ResultsLandInIndexOrder) {
  const auto out =
      parallel_map(100, 8, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, SameResultAtAnyThreadCount) {
  auto fn = [](std::size_t i) { return static_cast<double>(i) * 1.5 + 1.0; };
  EXPECT_EQ(parallel_map(37, 1, fn), parallel_map(37, 8, fn));
}

TEST(ParallelMap, RethrowsFirstExceptionAfterDraining) {
  std::atomic<int> completed{0};
  try {
    (void)parallel_map(20, 4, [&completed](std::size_t i) -> int {
      if (i == 3) throw std::runtime_error("boom at 3");
      completed.fetch_add(1, std::memory_order_relaxed);
      return 0;
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 3");
  }
  // Every non-throwing task still ran: one failure does not cancel peers.
  EXPECT_EQ(completed.load(), 19);
}

TEST(ParallelMap, ZeroCountIsEmpty) {
  EXPECT_TRUE(parallel_map(0, 4, [](std::size_t) { return 1; }).empty());
}

}  // namespace
}  // namespace faucets::sweep
