// SweepRunner: execute every run of a SweepSpec on the sweep pool.
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
  /// Fleet progress callback, invoked once per completed run with
  /// (completed so far, total). Called from worker threads concurrently —
  /// the callback must be thread-safe (faucets_sweep --serve feeds an
  /// atomic counter behind its /progress endpoint).
  std::function<void(std::size_t completed, std::size_t total)> on_progress = {};
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepSpec spec) : spec_(std::move(spec)) {}

  /// Run every cell from scratch on `options.threads` workers; returns
  /// results in run-id order. A run that throws does not stop the others:
  /// the lowest failing run id's exception is rethrown once all have run.
  [[nodiscard]] std::vector<RunResult> run(const SweepOptions& options) const;

  [[nodiscard]] const SweepSpec& spec() const noexcept { return spec_; }

 private:
  [[nodiscard]] RunResult execute(const RunPoint& point, bool profile) const;

  SweepSpec spec_;
};

}  // namespace faucets::sweep
