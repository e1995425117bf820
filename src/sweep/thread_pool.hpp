// The sweep pool: run a known set of independent tasks on a few threads.
//
// Sweep runs are whole simulations, and all of them are known before the
// first one starts, so the pool is one call: workers take the next index
// from a shared atomic cursor until it runs past the end. A worker that
// lands a long simulation simply takes fewer indices; an idle worker never
// waits behind a busy one. The pool makes no ordering promises, which is
// why sweep results carry their run id and are written into pre-assigned
// slots rather than appended.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace faucets::sweep {

/// Run `body(0)`, ..., `body(count - 1)` on `threads` workers (at least one,
/// never more than `count`; the calling thread is one of them) and return
/// once every body has finished. A body that throws does not stop the
/// others: every index still runs, then the exception of the lowest
/// failing index is rethrown.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

/// Evaluate `fn(0..count-1)` with parallel_for and return the results in
/// index order: the index-slot pattern the sweep runner uses, packaged for
/// experiment harnesses that fan out a handful of independent simulations.
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t count, std::size_t threads, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  std::vector<decltype(fn(std::size_t{}))> out(count);
  parallel_for(count, threads, [&out, &fn](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace faucets::sweep
