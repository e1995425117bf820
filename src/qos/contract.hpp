// The quality-of-service contract (§2.1): everything a client tells the grid
// about a job when requesting bids.
#pragma once

#include "src/qos/payoff.hpp"
#include "src/qos/resources.hpp"
#include "src/qos/speedup.hpp"

namespace faucets::qos {

/// The full contract. `work` is in processor-seconds at perfect efficiency;
/// the paper's machine-independent formulation (FLOP count / machine speed /
/// parallel efficiency) reduces to this once the server's speed factor is
/// applied.
struct QosContract {
  // --- software and hardware requirements -------------------------------
  SoftwareEnvironment environment;
  ResourceRequirements resources;

  // --- malleability range and behaviour over it -------------------------
  int min_procs = 1;
  int max_procs = 1;
  EfficiencyModel efficiency;  // efficiency over [min_procs, max_procs]

  // --- how much computation ----------------------------------------------
  double work = 0.0;  // processor-seconds at efficiency 1 on a speed-1 machine

  /// Estimated wall-clock time if run on `procs` processors of a machine
  /// with the given speed factor (1.0 = reference machine).
  [[nodiscard]] double estimated_runtime(int procs, double speed_factor = 1.0) const;

  // --- economics ---------------------------------------------------------
  PayoffFunction payoff;

  /// Intranet mode (§5.5.4): priority assigned by management. Higher wins;
  /// 0 is the default class. Ignored by the market strategies.
  int priority = 0;

  /// Validation: true when the contract is internally consistent
  /// (min <= max, positive work, efficiency range matches proc range).
  [[nodiscard]] bool valid() const noexcept;

  /// True if the job is malleable (can usefully change its allocation).
  [[nodiscard]] bool adaptive() const noexcept { return max_procs > min_procs; }

  /// The contract left after `completed` processor-seconds have already
  /// been executed (checkpoint/migration, §4.1): work shrinks, deadlines
  /// and payoff stay absolute.
  [[nodiscard]] QosContract reduced_by(double completed) const;
};

/// Convenience factory for the common case: a malleable job with linear
/// efficiency interpolation and a deadline payoff.
[[nodiscard]] QosContract make_contract(int min_procs, int max_procs, double work,
                                        double eff_min = 1.0, double eff_max = 1.0,
                                        PayoffFunction payoff = {});

}  // namespace faucets::qos
