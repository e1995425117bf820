// Work-stealing thread pool for batch simulation execution.
//
// Each worker owns a deque: it pushes and pops its own work at the front
// and steals from the back of a victim's deque when it runs dry, so a
// worker that lands a run of expensive simulations sheds them to idle
// peers instead of serializing the tail of the sweep. Tasks must be
// independent (sweep runs are: every run owns its SimContext); the pool
// makes no ordering promises, which is why sweep results carry their run id
// and are written into pre-assigned slots rather than appended.
//
// The deques are mutex-guarded rather than lock-free Chase-Lev: a sweep
// task is a whole discrete-event simulation (milliseconds to seconds), so
// queue overhead is noise, and the simple implementation is auditable and
// clean under ThreadSanitizer.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace faucets::sweep {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `thread_count` workers (clamped to at least 1). The pool is
  /// idle until tasks are submitted.
  explicit ThreadPool(std::size_t thread_count);

  /// Drains nothing: outstanding tasks are completed before teardown.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task. Round-robins across worker deques so stealing only
  /// happens when the load is actually imbalanced. Safe to call from any
  /// thread, including from inside a running task.
  void submit(Task task);

  /// Block until every submitted task has finished executing.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Tasks executed by a worker other than the one they were submitted to —
  /// a direct measure of how much rebalancing the sweep needed.
  [[nodiscard]] std::uint64_t steals() const noexcept;

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t index);
  [[nodiscard]] bool try_run_one(std::size_t index);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  mutable std::mutex state_mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::size_t pending_ = 0;   // submitted but not yet finished
  std::size_t next_ = 0;      // round-robin submission cursor
  std::uint64_t steals_ = 0;
  bool stopping_ = false;
};

/// Evaluate `fn(0..count-1)` on a fresh pool and return the results in
/// index order — the index-slot pattern the sweep runner uses, packaged for
/// experiment harnesses that fan out a handful of independent simulations.
/// Exceptions from `fn` are captured and rethrown (first index wins) after
/// the pool drains.
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t count, std::size_t threads, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  std::vector<decltype(fn(std::size_t{}))> out(count);
  std::vector<std::exception_ptr> errors(count);
  {
    ThreadPool pool(threads);
    for (std::size_t i = 0; i < count; ++i) {
      pool.submit([&out, &errors, &fn, i] {
        try {
          out[i] = fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return out;
}

}  // namespace faucets::sweep
