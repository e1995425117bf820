// SweepSpec: a declarative parameter grid over scenarios.
//
// A sweep file is an ordinary scenario INI (see src/core/scenario.hpp) plus
// one [sweep] section listing the axes to vary. The cartesian product of
// the axes times `replicates` expands to a flat, stably ordered list of
// RunPoints; run ids number that list, and every run's RNG seed is derived
// from (base_seed, load index, replicate) via util/rng.hpp's SeedSequence —
// never from execution order — so a sweep is bit-reproducible at any
// thread count. Treatment axes (scheduler, bidgen, evaluator, loss) do NOT
// enter the derivation: every treatment faces the same replicate request
// streams (common random numbers), so treatment comparisons are paired.
//
//   [sweep]
//   mode = grid               # grid (full market) | cluster (E2/E3 single
//                             # Compute Server, no market)
//   schedulers = fcfs, payoff # overrides every cluster's strategy
//   bidgens = baseline        # grid mode only
//   evaluators = least-cost   # grid mode only
//   loads = 0.5, 0.9          # re-calibrates the workload per point
//   loss = 0.0, 0.1           # fault profile: message loss probability
//   time_compressions = 1, 4  # [trace] scenarios: replay speed-ups
//   user_multipliers = 1, 4   # [trace] scenarios: CRN-paired user cloning
//   replicates = 4            # seeds per grid point
//   base_seed = 42            # SeedSequence root (defaults to [grid] seed)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/scenario.hpp"
#include "src/util/config.hpp"
#include "src/util/rng.hpp"

namespace faucets::sweep {

enum class SweepMode {
  kGrid,     // full market: Scenario::run() per point
  kCluster,  // single Compute Server, no market: core::run_cluster_experiment
};

/// One concrete run of the sweep: a grid point plus a replicate index and
/// its derived seed. Axis fields always hold the effective value (the
/// scenario's own setting when the axis is not swept), so the JSONL record
/// of a run is self-describing.
struct RunPoint {
  std::size_t run_id = 0;       // index into the expanded, stably ordered list
  std::size_t point_index = 0;  // grid point (replicates share this)
  std::size_t replicate = 0;
  std::string scheduler;
  std::string bidgen;
  std::string evaluator;
  double load = 0.0;
  double loss = 0.0;
  /// Trace-replay axes, engaged (> 0) only when the scenario has a [trace]
  /// section. Zero means "not a trace sweep": the key and JSONL then omit
  /// them, so non-trace sweep artifacts are byte-identical to before.
  double time_compression = 0.0;
  std::size_t user_multiplier = 0;
  std::uint64_t seed = 0;

  /// Stable grid-point key, e.g. "scheduler=payoff|load=0.9|loss=0":
  /// replicates of one point share it; the Aggregator groups by it and the
  /// RegressionGate addresses baseline metrics with it.
  [[nodiscard]] std::string key() const;
};

class SweepSpec {
 public:
  /// Parse the base scenario and the [sweep] section. Axis values are
  /// validated eagerly (unknown scheduler names, empty axes, zero
  /// replicates all throw std::invalid_argument).
  static SweepSpec parse(const ConfigFile& config);
  static SweepSpec parse_string(const std::string& text);

  /// The cartesian expansion, in stable order: axes vary slowest-first in
  /// declaration order (scheduler, bidgen, evaluator, load, loss), with the
  /// replicate as the fastest axis.
  [[nodiscard]] std::vector<RunPoint> expand() const;

  /// Concrete scenario for one run: the base scenario with the point's
  /// axis values and derived seed applied. In cluster mode only scheduler
  /// and load apply.
  [[nodiscard]] core::Scenario materialize(const RunPoint& point) const;

  [[nodiscard]] SweepMode mode() const noexcept { return mode_; }
  [[nodiscard]] std::size_t replicates() const noexcept { return replicates_; }
  [[nodiscard]] std::uint64_t base_seed() const noexcept { return base_seed_; }
  [[nodiscard]] const core::Scenario& base() const noexcept { return base_; }
  [[nodiscard]] std::size_t run_count() const noexcept {
    return schedulers_.size() * bidgens_.size() * evaluators_.size() *
           user_multipliers_.size() * time_compressions_.size() *
           loads_.size() * losses_.size() * replicates_;
  }

 private:
  core::Scenario base_;
  SweepMode mode_ = SweepMode::kGrid;
  std::vector<std::string> schedulers_;
  std::vector<std::string> bidgens_;
  std::vector<std::string> evaluators_;
  std::vector<double> loads_;
  std::vector<double> losses_;
  // Trace-replay axes; singletons holding the base [trace] values (or the
  // inert 1/1) when not swept, so run_count() and seed derivation reduce to
  // the pre-trace formulas on non-trace sweeps.
  std::vector<double> time_compressions_;
  std::vector<std::size_t> user_multipliers_;
  std::size_t replicates_ = 1;
  std::uint64_t base_seed_ = 0;
};

}  // namespace faucets::sweep
