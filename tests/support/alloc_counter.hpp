// Allocation counting for the zero-allocation tests.
//
// alloc_counter.cpp replaces the global operator new/delete with a
// malloc-backed pair that counts every allocation. Each allocation test is
// its own binary with that file linked in (tests/CMakeLists.txt,
// faucets_alloc_test), so the replacement never perturbs the other suites.
#pragma once

#include <cstdint>

namespace faucets::test {

/// Global operator new calls so far, on any thread.
[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace faucets::test
