#include "src/sweep/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace faucets::sweep {
namespace {

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(pool.thread_count(), 4u);
}

TEST(ThreadPool, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, WaitIdleWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

TEST(ThreadPool, TasksMaySubmitMoreTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.submit([&pool, &count] {
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait_idle: teardown must finish the queue, not abandon it.
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, StealsRebalanceABlockedWorker) {
  // Task 0 blocks its worker until task 2 has run. Tasks 1 and 2 are
  // submitted only once task 0 is running, and submission round-robins
  // across the two workers, so task 2 needs a steal either way: if the idle
  // worker stole task 0, that was the steal; otherwise task 2 lands on the
  // blocked worker's deque and the idle worker must steal it. Waiting for
  // task 0 to start matters because a worker pops its own deque
  // newest-first: one that woke after task 2 was queued would run task 2
  // before task 0, and nothing would need stealing.
  ThreadPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  bool first_started = false;
  bool third_done = false;
  pool.submit([&] {
    std::unique_lock lock(m);
    first_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return third_done; });
  });
  {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return first_started; });
  }
  pool.submit([] {});
  pool.submit([&] {
    {
      std::lock_guard lock(m);
      third_done = true;
    }
    cv.notify_all();
  });
  pool.wait_idle();
  EXPECT_GE(pool.steals(), 1u);
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
