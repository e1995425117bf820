#include "src/job/workload.hpp"

#include <algorithm>
#include <cmath>

namespace faucets::job {

namespace {
// Work per job (processor-seconds at perfect efficiency) is lognormal,
// median ~13,360 proc-s; the rest are uniform draws: max_procs' expansion
// over min_procs, the efficiency at each end of the processor range, and
// memory per processor (MB).
constexpr double kWorkLogMu = 9.5, kWorkLogSigma = 1.0;
constexpr double kExpansionLo = 2.0, kExpansionHi = 8.0;
constexpr double kEffMinLo = 0.85, kEffMinHi = 1.0;  // at min_procs
constexpr double kEffMaxLo = 0.55, kEffMaxHi = 0.9;  // at max_procs
constexpr double kMemPerProcLo = 256.0, kMemPerProcHi = 2048.0;
}  // namespace

WorkloadGenerator::WorkloadGenerator(WorkloadParams params, std::uint64_t seed)
    : params_(params), rng_(seed) {}

double WorkloadGenerator::mean_work() noexcept {
  // Mean of lognormal(mu, sigma) = exp(mu + sigma^2 / 2).
  return std::exp(kWorkLogMu + kWorkLogSigma * kWorkLogSigma / 2.0);
}

void WorkloadGenerator::calibrate_load(WorkloadParams& params, double load,
                                       int total_procs) {
  const double mw = mean_work();
  params.mean_interarrival = mw / (load * static_cast<double>(total_procs));
}

JobRequest WorkloadGenerator::next() {
  t_ += rng_.exponential(params_.mean_interarrival);
  ++emitted_;

  JobRequest req;
  req.submit_time = t_;
  req.user_index = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(params_.user_count) - 1));
  req.home_cluster = req.user_index % std::max<std::size_t>(1, params_.cluster_count);

  const double work = rng_.lognormal(kWorkLogMu, kWorkLogSigma);
  const int min_procs = static_cast<int>(
      rng_.uniform_int(params_.min_procs_lo, params_.min_procs_hi));
  int max_procs = min_procs;
  if (!rng_.bernoulli(params_.rigid_fraction)) {
    const double expansion = rng_.uniform(kExpansionLo, kExpansionHi);
    max_procs = static_cast<int>(std::lround(min_procs * expansion));
  }
  if (params_.shaping.procs_cap > 0) {
    max_procs = std::min(max_procs, params_.shaping.procs_cap);
  }
  max_procs = std::max(max_procs, min_procs);

  const double eff_min = rng_.uniform(kEffMinLo, kEffMinHi);
  const double eff_max = rng_.uniform(kEffMaxLo, kEffMaxHi);

  qos::QosContract c = qos::make_contract(min_procs, max_procs, work,
                                          eff_min, std::min(eff_min, eff_max));
  c.resources.memory_per_proc_mb = rng_.uniform(kMemPerProcLo, kMemPerProcHi);
  c.environment.operating_system = "linux";

  apply_shaping(params_.shaping, t_, c.estimated_runtime(max_procs), work,
                rng_, c);

  req.contract = std::move(c);
  return req;
}

std::vector<JobRequest> WorkloadGenerator::generate() {
  std::vector<JobRequest> out;
  out.reserve(params_.job_count - std::min(emitted_, params_.job_count));
  while (!exhausted()) out.push_back(next());
  return out;
}

std::vector<JobRequest> fragmentation_scenario(double gap_seconds) {
  std::vector<JobRequest> out;

  // Job B: long, unimportant, currently sized at 500 but malleable 400..1000.
  JobRequest b;
  b.submit_time = 0.0;
  // Eight hours of work at 500 processors and efficiency ~1.
  b.contract = qos::make_contract(400, 1000, 500.0 * 8.0 * 3600.0, 0.98, 0.90);
  b.contract.payoff = qos::PayoffFunction::flat(10.0);
  out.push_back(b);

  // Job A: urgent and important, needs exactly 600 processors.
  JobRequest a;
  a.submit_time = gap_seconds;
  a.contract = qos::make_contract(600, 600, 600.0 * 1800.0, 0.95, 0.95);
  const double soft = gap_seconds + 2400.0;  // wants to finish within 40 min
  a.contract.payoff = qos::PayoffFunction::deadline(soft, soft + 1200.0,
                                                    1000.0, 400.0, 100.0);
  out.push_back(a);

  return out;
}

}  // namespace faucets::job
