// SweepRunner: execute every run of a SweepSpec on a work-stealing pool.
//
// Determinism contract: each run materializes its own Scenario (seed from
// SeedSequence) and builds a fully private SimContext/GridSystem, so runs
// share no mutable state; results are written into pre-assigned slots of
// the output vector, indexed by run id. A sweep's ordered results — and
// therefore its JSONL artifact — are bit-identical at any thread count and
// any completion order. The only thread-count-dependent observable is the
// streaming sink's line order.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "src/sweep/result.hpp"
#include "src/sweep/sink.hpp"
#include "src/sweep/spec.hpp"

namespace faucets::sweep {

struct SweepOptions {
  std::size_t threads = 1;
  /// Optional streaming sink; lines arrive in completion order.
  JsonlSink* sink = nullptr;
  /// Run every grid point under the host-time profiler and append per-run
  /// prof_* columns (wall/phase milliseconds, events) to each
  /// result. Off by default: the columns are host-time measurements, so
  /// unlike every other sweep column they are NOT byte-stable across
  /// machines or thread counts.
  bool profile = false;
  /// Warm-state forking (DESIGN.md §14.3). When the spec sets
  /// [sweep] warmup_until and the sweep is eligible (grid mode, no trace,
  /// no profiling, no durable store), each warm group — the
  /// cells that differ only in message loss — is simulated once up to the
  /// warm-up instant, then fork(2)ed per cell, resuming each from the
  /// shared warm image. Results are byte-identical to in-process runs
  /// because the fault gate draws nothing before warmup_until. Off, or an
  /// ineligible sweep, falls back to the in-process thread pool.
  bool warm_fork = true;
  /// Fleet progress callback, invoked once per completed run with
  /// (completed so far, total). Called from worker threads concurrently —
  /// the callback must be thread-safe (faucets_sweep --serve feeds an
  /// atomic counter behind its /progress endpoint).
  std::function<void(std::size_t completed, std::size_t total)> on_progress = {};
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepSpec spec) : spec_(std::move(spec)) {}

  /// Run the whole grid; returns results in run-id order.
  [[nodiscard]] std::vector<RunResult> run(const SweepOptions& options) const;

  [[nodiscard]] const SweepSpec& spec() const noexcept { return spec_; }

  /// True when run() would take the warm-fork path for these options.
  [[nodiscard]] bool warm_fork_eligible(const SweepOptions& options) const;

 private:
  [[nodiscard]] RunResult execute(const RunPoint& point, bool profile) const;
  [[nodiscard]] std::vector<RunResult> run_forked(const SweepOptions& options) const;

  SweepSpec spec_;
};

}  // namespace faucets::sweep
