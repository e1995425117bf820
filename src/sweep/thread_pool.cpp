#include "src/sweep/thread_pool.hpp"

#include <chrono>
#include <utility>

namespace faucets::sweep {

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) thread_count = 1;
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard lock(state_mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(Task task) {
  std::size_t target = 0;
  {
    std::lock_guard lock(state_mutex_);
    target = next_;
    next_ = (next_ + 1) % workers_.size();
    ++pending_;
  }
  {
    std::lock_guard lock(workers_[target]->mutex);
    workers_[target]->tasks.push_front(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(state_mutex_);
  all_done_.wait(lock, [this] { return pending_ == 0; });
}

std::uint64_t ThreadPool::steals() const noexcept {
  std::lock_guard lock(state_mutex_);
  return steals_;
}

bool ThreadPool::try_run_one(std::size_t index) {
  Task task;
  bool stolen = false;
  // Own deque first (front = most recently submitted, cache-warm)...
  {
    auto& own = *workers_[index];
    std::lock_guard lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.front());
      own.tasks.pop_front();
    }
  }
  // ...then steal from the back of the first non-empty victim.
  if (!task) {
    for (std::size_t k = 1; k < workers_.size() && !task; ++k) {
      auto& victim = *workers_[(index + k) % workers_.size()];
      std::lock_guard lock(victim.mutex);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.back());
        victim.tasks.pop_back();
        stolen = true;
      }
    }
  }
  if (!task) return false;

  task();

  {
    std::lock_guard lock(state_mutex_);
    if (stolen) ++steals_;
    if (--pending_ == 0) all_done_.notify_all();
  }
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  for (;;) {
    if (try_run_one(index)) continue;
    std::unique_lock lock(state_mutex_);
    if (stopping_) return;
    if (pending_ == 0) {
      work_ready_.wait(lock, [this] { return stopping_ || pending_ > 0; });
      continue;
    }
    // pending_ > 0 but every deque looked empty: tasks are in flight on
    // other workers. Sleep until something is submitted or we stop.
    work_ready_.wait_for(lock, std::chrono::milliseconds(1),
                         [this] { return stopping_; });
  }
}

}  // namespace faucets::sweep
