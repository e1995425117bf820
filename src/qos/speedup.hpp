// Parallel efficiency model of an adaptive job.
//
// The QoS contract (§2.1) lets the user state the job's efficiency at the
// minimum and maximum processor counts, with linear interpolation in
// between. Work is measured in processor-seconds at perfect efficiency, so
// the job's execution rate on p processors is p * eff(p) work-units per
// second.
#pragma once

#include <algorithm>

namespace faucets::qos {

class EfficiencyModel {
 public:
  /// By default a job is perfectly scalable within its range.
  EfficiencyModel() = default;

  /// `eff_min`/`eff_max` are the parallel efficiencies at `min_procs` and
  /// `max_procs` respectively, each in (0, 1].
  EfficiencyModel(int min_procs, int max_procs, double eff_min, double eff_max);

  /// Parallel efficiency at `procs`, linearly interpolated and clamped to
  /// the contract range.
  [[nodiscard]] double efficiency(int procs) const noexcept;

  /// Useful work completed per second on `procs` processors.
  [[nodiscard]] double rate(int procs) const noexcept {
    return procs <= 0 ? 0.0 : static_cast<double>(procs) * efficiency(procs);
  }

  /// Wall-clock seconds to finish `work` processor-seconds on `procs`.
  [[nodiscard]] double time_to_complete(double work, int procs) const noexcept {
    const double r = rate(procs);
    return r <= 0.0 ? kNever : work / r;
  }

  [[nodiscard]] int min_procs() const noexcept { return min_procs_; }
  [[nodiscard]] int max_procs() const noexcept { return max_procs_; }

  static constexpr double kNever = 1e300;

 private:
  int min_procs_ = 1;
  int max_procs_ = 1;
  double eff_min_ = 1.0;
  double eff_max_ = 1.0;
};

}  // namespace faucets::qos
