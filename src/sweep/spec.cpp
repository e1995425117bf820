#include "src/sweep/spec.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/job/workload.hpp"
#include "src/sweep/jsonio.hpp"

namespace faucets::sweep {

namespace {

/// Reserved axis value: keep whatever the base scenario configures for this
/// axis instead of overriding it. Lets a sweep compare the scenario's own
/// (possibly heterogeneous) setup against homogeneous overrides, e.g.
/// `schedulers = base, fcfs`.
constexpr const char* kBaseValue = "base";

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<double> split_doubles(const std::string& text, const char* axis) {
  std::vector<double> out;
  for (const auto& item : split_list(text)) {
    out.push_back(parse_number<double>(item, std::string("[sweep] ") + axis));
  }
  return out;
}

/// The offered load the base scenario's calibrated workload implies, so a
/// sweep without a `loads` axis still records the effective value.
double implied_load(const core::Scenario& scenario) {
  const double mean_work = job::WorkloadGenerator::mean_work();
  const double denominator =
      scenario.workload.mean_interarrival * static_cast<double>(scenario.total_procs());
  return denominator <= 0.0 ? 0.0 : mean_work / denominator;
}

}  // namespace

std::string RunPoint::key() const {
  std::string out = "scheduler=" + scheduler;
  if (!bidgen.empty()) out += "|bidgen=" + bidgen;
  if (!evaluator.empty()) out += "|evaluator=" + evaluator;
  out += "|load=" + format_double(load);
  if (!bidgen.empty()) out += "|loss=" + format_double(loss);
  if (time_compression > 0.0) {
    out += "|tc=" + format_double(time_compression);
    out += "|um=" + std::to_string(user_multiplier);
  }
  return out;
}

SweepSpec SweepSpec::parse(const ConfigFile& config) {
  SweepSpec out;
  out.base_ = core::Scenario::parse(config);
  out.base_seed_ = out.base_.seed;

  const ConfigSection* sweep = config.section("sweep");
  if (sweep != nullptr) {
    const std::string mode = sweep->get_string("mode", "grid");
    if (mode == "grid") {
      out.mode_ = SweepMode::kGrid;
    } else if (mode == "cluster") {
      out.mode_ = SweepMode::kCluster;
    } else {
      throw std::invalid_argument("[sweep] unknown mode '" + mode +
                                  "' (expected grid|cluster)");
    }

    if (const auto v = sweep->get("schedulers")) out.schedulers_ = split_list(*v);
    if (const auto v = sweep->get("bidgens")) out.bidgens_ = split_list(*v);
    if (const auto v = sweep->get("evaluators")) out.evaluators_ = split_list(*v);
    if (const auto v = sweep->get("loads")) out.loads_ = split_doubles(*v, "loads");
    if (const auto v = sweep->get("loss")) out.losses_ = split_doubles(*v, "loss");
    if (const auto v = sweep->get("time_compressions")) {
      out.time_compressions_ = split_doubles(*v, "time_compressions");
    }
    if (const auto v = sweep->get("user_multipliers")) {
      for (const double m : split_doubles(*v, "user_multipliers")) {
        if (!std::isfinite(m) || m < 1.0 || m != std::floor(m)) {
          throw std::invalid_argument(
              "[sweep] user_multipliers must be integers >= 1");
        }
        out.user_multipliers_.push_back(static_cast<std::size_t>(m));
      }
    }
    if ((!out.time_compressions_.empty() || !out.user_multipliers_.empty()) &&
        !out.base_.trace.has_value()) {
      throw std::invalid_argument(
          "[sweep] time_compressions/user_multipliers need a [trace] section");
    }
    const long reps = sweep->get_int("replicates", 1);
    if (reps <= 0) throw std::invalid_argument("[sweep] replicates must be positive");
    out.replicates_ = static_cast<std::size_t>(reps);
    out.base_seed_ = static_cast<std::uint64_t>(
        sweep->get_int("base_seed", static_cast<long>(out.base_seed_)));

    if (out.mode_ == SweepMode::kCluster &&
        (!out.bidgens_.empty() || !out.evaluators_.empty() || !out.losses_.empty())) {
      throw std::invalid_argument(
          "[sweep] cluster mode sweeps schedulers and loads only "
          "(bidgens/evaluators/loss need the market)");
    }
  }
  core::refuse_unread(config);
  if (out.mode_ == SweepMode::kCluster && out.base_.clusters.size() != 1) {
    throw std::invalid_argument(
        "[sweep] cluster mode runs one Compute Server: the scenario must "
        "have exactly one [cluster] section");
  }

  // Defaults: a missing axis holds one value — the base scenario's own.
  if (out.schedulers_.empty()) out.schedulers_ = {kBaseValue};
  if (out.bidgens_.empty()) out.bidgens_ = {kBaseValue};
  if (out.evaluators_.empty()) out.evaluators_ = {kBaseValue};
  if (out.loads_.empty()) out.loads_ = {implied_load(out.base_)};
  if (out.losses_.empty()) out.losses_ = {out.base_.grid.faults.loss_rate};
  if (out.time_compressions_.empty()) {
    out.time_compressions_ = {
        out.base_.trace ? out.base_.trace->options.time_compression : 1.0};
  }
  if (out.user_multipliers_.empty()) {
    out.user_multipliers_ = {
        out.base_.trace ? out.base_.trace->options.user_multiplier
                        : std::size_t{1}};
  }

  // Validate axis names eagerly: the factories throw the precise message.
  for (const auto& name : out.schedulers_) {
    if (name != kBaseValue) (void)core::strategy_factory(name);
  }
  for (const auto& name : out.bidgens_) {
    if (name != kBaseValue) (void)core::bidgen_factory(name);
  }
  for (const auto& name : out.evaluators_) {
    if (name != kBaseValue) (void)core::evaluator_factory(name);
  }
  for (const double load : out.loads_) {
    if (!std::isfinite(load) || load <= 0.0) {
      throw std::invalid_argument("[sweep] loads must be finite and positive");
    }
  }
  for (const double loss : out.losses_) {
    if (loss < 0.0 || loss >= 1.0) {
      throw std::invalid_argument("[sweep] loss must be in [0, 1)");
    }
  }
  for (const double tc : out.time_compressions_) {
    if (!std::isfinite(tc) || tc <= 0.0) {
      throw std::invalid_argument(
          "[sweep] time_compressions must be finite and positive");
    }
  }
  return out;
}

SweepSpec SweepSpec::parse_string(const std::string& text) {
  return parse(ConfigFile::parse_string(text));
}

std::vector<RunPoint> SweepSpec::expand() const {
  std::vector<RunPoint> out;
  out.reserve(run_count());
  const SeedSequence seeds(base_seed_);
  const bool cluster = mode_ == SweepMode::kCluster;
  std::size_t run_id = 0;
  std::size_t point_index = 0;
  const bool traced = base_.trace.has_value();
  for (const auto& scheduler : schedulers_) {
    for (const auto& bidgen : bidgens_) {
      for (const auto& evaluator : evaluators_) {
        for (std::size_t um_index = 0; um_index < user_multipliers_.size();
             ++um_index) {
          for (std::size_t tc_index = 0; tc_index < time_compressions_.size();
               ++tc_index) {
            for (std::size_t load_index = 0; load_index < loads_.size();
                 ++load_index) {
              for (const double loss : losses_) {
                for (std::size_t rep = 0; rep < replicates_; ++rep) {
                  RunPoint point;
                  point.run_id = run_id++;
                  point.point_index = point_index;
                  point.replicate = rep;
                  point.scheduler = scheduler;
                  if (!cluster) {
                    point.bidgen = bidgen;
                    point.evaluator = evaluator;
                    point.loss = loss;
                  }
                  point.load = loads_[load_index];
                  if (traced) {
                    point.time_compression = time_compressions_[tc_index];
                    point.user_multiplier = user_multipliers_[um_index];
                  }
                  // Common-random-numbers design: the seed depends only on
                  // the workload-defining axes (user multiplier, time
                  // compression, load) and the replicate, never on the
                  // treatment axes (scheduler/bidgen/evaluator/loss), so
                  // every treatment is measured against the same replicate
                  // request streams and their differences are paired, not
                  // confounded with workload draw. Singleton trace axes
                  // collapse the index to the bare load index, so non-trace
                  // sweeps reproduce their historical seeds exactly.
                  const std::size_t workload_index =
                      (um_index * time_compressions_.size() + tc_index) *
                          loads_.size() +
                      load_index;
                  point.seed = seeds.at(workload_index, rep);
                  out.push_back(std::move(point));
                }
                ++point_index;
              }
            }
          }
        }
      }
    }
  }
  return out;
}

core::Scenario SweepSpec::materialize(const RunPoint& point) const {
  core::Scenario scenario = base_;
  scenario.seed = point.seed;
  // The fault injector draws from its own stream; derive it from the run
  // seed so replicates see independent fault patterns (a fixed fault seed
  // across replicates would correlate every replicate's message drops).
  scenario.grid.faults.seed = splitmix64(point.seed ^ 0xf3a5c1e28b6d94ULL);

  if (point.scheduler != kBaseValue) {
    for (auto& cluster : scenario.clusters) {
      cluster.strategy = core::strategy_factory(point.scheduler);
    }
  }
  if (mode_ == SweepMode::kGrid) {
    if (point.bidgen != kBaseValue) {
      for (auto& cluster : scenario.clusters) {
        cluster.bid_generator = core::bidgen_factory(point.bidgen);
      }
    }
    if (point.evaluator != kBaseValue) {
      scenario.grid.evaluator = core::evaluator_factory(point.evaluator);
    }
    scenario.grid.faults.loss_rate = point.loss;
  }
  job::WorkloadGenerator::calibrate_load(scenario.workload, point.load,
                                         scenario.total_procs());
  if (scenario.trace && point.time_compression > 0.0) {
    // Trace axes + CRN: every run's shaping/jitter stream derives from the
    // run seed (the [trace] section's own seed is a non-sweep convenience
    // only), and clone 0 reproduces the raw trace at every multiplier.
    scenario.trace->options.time_compression = point.time_compression;
    scenario.trace->options.user_multiplier = point.user_multiplier;
    scenario.trace->options.seed = point.seed;
  }
  return scenario;
}

}  // namespace faucets::sweep
