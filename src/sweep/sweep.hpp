// Umbrella header for the batch sweep-execution subsystem (DESIGN.md §9):
// declarative parameter grids over scenarios, executed on a shared-cursor
// pool with order-independent determinism, aggregated across replicate
// seeds, and gated against committed regression baselines.
#pragma once

#include "src/sweep/aggregate.hpp"
#include "src/sweep/gate.hpp"
#include "src/sweep/jsonio.hpp"
#include "src/sweep/result.hpp"
#include "src/sweep/runner.hpp"
#include "src/sweep/sink.hpp"
#include "src/sweep/spec.hpp"
#include "src/sweep/thread_pool.hpp"
