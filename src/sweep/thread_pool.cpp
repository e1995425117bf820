#include "src/sweep/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace faucets::sweep {

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> cursor{0};
  // One slot per index, so no two workers write the same slot; joining the
  // workers publishes every slot (and every body's writes) to this thread.
  std::vector<std::exception_ptr> errors(count);
  const auto work = [&] {
    for (std::size_t i = cursor++; i < count; i = cursor++) {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    const std::size_t workers = std::min(std::max<std::size_t>(threads, 1), count);
    for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(work);
    work();
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace faucets::sweep
