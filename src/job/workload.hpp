// Synthetic workload generation: the job-submission patterns over which the
// paper's simulation system (§5.4) runs its experiments.
#pragma once

#include <vector>

#include "src/job/shaping.hpp"
#include "src/qos/contract.hpp"
#include "src/util/rng.hpp"

namespace faucets::job {

/// A job waiting to be submitted: contract plus submission metadata.
struct JobRequest {
  double submit_time = 0.0;
  qos::QosContract contract;
  std::size_t user_index = 0;     // which synthetic user submits it
  std::size_t home_cluster = 0;   // the user's Home Cluster (§5.5.3)
};

/// Tunable parameters of the generator. It produces a moderately loaded
/// malleable workload resembling supercomputer trace studies: Poisson
/// arrivals, lognormal work, power-of-two-ish processor ranges. The shapes
/// of the work, expansion, efficiency and memory draws are constants in
/// workload.cpp.
struct WorkloadParams {
  std::size_t job_count = 200;

  // Arrivals: exponential inter-arrival with this mean (seconds).
  double mean_interarrival = 120.0;

  // Malleability: min_procs uniform in [min_procs_lo, min_procs_hi];
  // max_procs = min_procs times an expansion drawn uniformly in [2, 8].
  // Set rigid_fraction > 0 for a mix of traditional jobs (max = min). (The
  // generator draws its own expansion; shaping.malleability is the trace
  // backends' widening knob.)
  int min_procs_lo = 4;
  int min_procs_hi = 32;
  double rigid_fraction = 0.0;

  // Deadline / payoff widening and the max_procs clamp, shared with every
  // other workload backend (see src/job/shaping.hpp).
  JobShaping shaping;

  // Population for market experiments.
  std::size_t user_count = 16;
  std::size_t cluster_count = 1;
};

/// Deterministic generator: the same seed and params always yield the same
/// request stream. Jobs are produced one at a time in submit order (arrival
/// times are a monotone exponential walk), so the generator streams without
/// ever materializing the full workload.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadParams params, std::uint64_t seed = 42);

  /// Generate the remaining stream, sorted by submit time.
  [[nodiscard]] std::vector<JobRequest> generate();

  /// Generate the next job (valid while !exhausted()).
  [[nodiscard]] JobRequest next();
  [[nodiscard]] bool exhausted() const noexcept {
    return emitted_ >= params_.job_count;
  }

  /// Scale `mean_interarrival` so the stream offers `load` (fraction of
  /// capacity) to a machine with `total_procs` processors, given the mean
  /// work per job. load = mean_work / (interarrival * total_procs).
  static void calibrate_load(WorkloadParams& params, double load, int total_procs);

  /// Mean work per job of the generator's lognormal draw.
  [[nodiscard]] static double mean_work() noexcept;

 private:
  WorkloadParams params_;
  Rng rng_;
  double t_ = 0.0;
  std::size_t emitted_ = 0;
};

/// The exact internal-fragmentation scenario from §1 of the paper: a
/// 1000-processor machine, a long unimportant job B occupying 500
/// processors (malleable 400..1000), and an urgent job A needing 600.
/// Returns {B, A} with A submitted `gap_seconds` after B.
[[nodiscard]] std::vector<JobRequest> fragmentation_scenario(double gap_seconds = 600.0);

}  // namespace faucets::job
