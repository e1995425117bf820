#include "src/core/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/faucets/central_store.hpp"
#include "src/obs/exporters.hpp"
#include "src/sched/backfill.hpp"
#include "src/sweep/jsonio.hpp"
#include "src/sched/equipartition.hpp"
#include "src/sched/fcfs.hpp"
#include "src/sched/payoff_sched.hpp"
#include "src/sched/priority_sched.hpp"
#include "src/util/table.hpp"

namespace faucets::core {

StrategyFactory strategy_factory(const std::string& name) {
  if (name == "fcfs") {
    return [] { return std::make_unique<sched::FcfsStrategy>(); };
  }
  if (name == "backfill") {
    return [] { return std::make_unique<sched::BackfillStrategy>(); };
  }
  if (name == "equipartition") {
    return [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  }
  if (name == "payoff") {
    return [] { return std::make_unique<sched::PayoffStrategy>(); };
  }
  if (name == "priority") {
    return [] { return std::make_unique<sched::PriorityStrategy>(); };
  }
  throw std::invalid_argument(
      "unknown strategy '" + name +
      "' (expected fcfs|backfill|equipartition|payoff|priority)");
}

BidGeneratorFactory bidgen_factory(const std::string& name) {
  if (name == "baseline") {
    return [] { return std::make_unique<market::BaselineBidGenerator>(); };
  }
  if (name == "utilization") {
    return [] { return std::make_unique<market::UtilizationBidGenerator>(); };
  }
  if (name == "market") {
    return [] { return std::make_unique<market::MarketAwareBidGenerator>(); };
  }
  if (name == "futures") {
    return [] { return std::make_unique<market::FuturesBidGenerator>(); };
  }
  throw std::invalid_argument("unknown bidgen '" + name +
                              "' (expected baseline|utilization|market|futures)");
}

EvaluatorFactory evaluator_factory(const std::string& name) {
  if (name == "least-cost") {
    return [] { return std::make_unique<market::LeastCostEvaluator>(); };
  }
  if (name == "earliest-completion") {
    return [] { return std::make_unique<market::EarliestCompletionEvaluator>(); };
  }
  if (name == "surplus") {
    return [] { return std::make_unique<market::SurplusEvaluator>(); };
  }
  throw std::invalid_argument(
      "unknown evaluator '" + name +
      "' (expected least-cost|earliest-completion|surplus)");
}

namespace {

BillingMode billing_mode(const std::string& name) {
  if (name == "dollars") return BillingMode::kDollars;
  if (name == "su") return BillingMode::kServiceUnits;
  if (name == "barter") return BillingMode::kBarter;
  throw std::invalid_argument("unknown billing '" + name +
                              "' (expected dollars|su|barter)");
}

// One shaping vocabulary for [workload] and [trace]: both sections read
// the same keys into the same JobShaping, so they cannot drift apart.
void parse_shaping(const ConfigSection& section, job::JobShaping& shaping) {
  shaping.malleability = section.get_double("malleability", shaping.malleability);
  shaping.deadline_fraction =
      section.get_double("deadline_fraction", shaping.deadline_fraction);
  shaping.tightness_lo = section.get_double("tightness_lo", shaping.tightness_lo);
  shaping.tightness_hi = section.get_double("tightness_hi", shaping.tightness_hi);
  shaping.hard_stretch = section.get_double("hard_stretch", shaping.hard_stretch);
  shaping.price_per_work =
      section.get_double("price_per_work", shaping.price_per_work);
  shaping.premium_lo = section.get_double("premium_lo", shaping.premium_lo);
  shaping.premium_hi = section.get_double("premium_hi", shaping.premium_hi);
  shaping.penalty_fraction =
      section.get_double("penalty_fraction", shaping.penalty_fraction);
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

constexpr const char* kAuditHint =
    "is no longer a key: the monitors always run and read the grid's audit, "
    "whose thresholds are fixed (DESIGN.md §16)";

/// Sections and keys that once meant something, with what replaced them.
constexpr const char* kRetired[][2] = {
    {"[shards]",
     "selected the sharded executor, which has been removed; delete the "
     "section (every run uses the single event loop)"},
    {"[profile]",
     "is no longer a scenario section; profile a run with scenario_sim "
     "--profile[=path] or a sweep with faucets_sweep --profile"},
    {"[live] monitors", kAuditHint},
    {"[live] ledger_residual_max", kAuditHint},
    {"[live] lease_grace", kAuditHint},
    {"[live] recent_events",
     "is no longer a key: /traces/recent serves the newest 256 events"},
    {"[sweep] warmup_until",
     "selected warm-state forking, which has been removed; delete the key "
     "(every sweep runs each cell from scratch)"},
    {"[sweep]",
     "is read by faucets_sweep --grid; scenario_sim runs the one scenario "
     "without it"},
};

}  // namespace

void refuse_unread(const ConfigFile& config) {
  const std::optional<std::string> unread = config.first_unread();
  if (!unread) return;
  for (const auto& [what, hint] : kRetired) {
    if (*unread == what) throw std::invalid_argument(*unread + " " + hint);
  }
  throw std::invalid_argument(*unread + " is not a " +
                              (unread->back() == ']' ? "section" : "key") +
                              " any reader knows; check its spelling");
}

Scenario Scenario::parse(const ConfigFile& config) {
  Scenario out;

  const ConfigSection* grid = config.section("grid");
  if (grid != nullptr) {
    out.grid.central.billing = billing_mode(grid->get_string("billing", "dollars"));
    out.grid.clients_prefer_home = grid->get_bool("prefer_home", false);
    out.grid.brokered_submission = grid->get_bool("brokered", false);
    // Optional knobs keep their INI spelling: a negative watchdog and a
    // price band <= 1 mean "off", and map onto disengaged optionals.
    // get_double refuses NaN, which would fail both comparisons.
    const double watchdog = grid->get_double("watchdog", -1.0);
    const double band = grid->get_double("price_band", 0.0);
    if (watchdog >= 0.0) out.grid.client_watchdog_margin = watchdog;
    if (band > 1.0) out.grid.central.price_band = band;
    out.grid.evaluator =
        evaluator_factory(grid->get_string("evaluator", "least-cost"));
    out.seed = static_cast<std::uint64_t>(grid->get_int("seed", 42));
  } else {
    out.grid.evaluator = evaluator_factory("least-cost");
  }

  const ConfigSection* faults = config.section("faults");
  if (faults != nullptr) {
    out.grid.faults.loss_rate = faults->get_double("loss", 0.0);
    out.grid.faults.jitter = faults->get_double("jitter", 0.0);
    out.grid.faults.seed = static_cast<std::uint64_t>(
        faults->get_int("seed", static_cast<long>(out.grid.faults.seed)));
    const long crash_cluster = faults->get_int("crash_cluster", -1);
    if (crash_cluster >= 0) {
      CrashSchedule crash;
      crash.cluster = static_cast<std::size_t>(crash_cluster);
      crash.at = faults->get_double("crash_at", 0.0);
      const double restart = faults->get_double("crash_restart", -1.0);
      // Negative means "stays down"; an infinite restart is kept for
      // validate_grid to reject.
      if (restart >= 0.0) crash.restart_at = restart;
      out.grid.crashes.push_back(crash);
    }
    const long part_cluster = faults->get_int("partition_cluster", -1);
    if (part_cluster >= 0) {
      out.grid.partitions.push_back(
          {static_cast<std::size_t>(part_cluster),
           faults->get_double("partition_from", 0.0),
           faults->get_double("partition_until", 0.0)});
    }
    out.grid.retry.max_attempts = static_cast<int>(
        faults->get_int("retry_attempts", out.grid.retry.max_attempts));
    out.grid.retry.base_timeout =
        faults->get_double("retry_base", out.grid.retry.base_timeout);
  }

  const auto cluster_sections = config.sections("cluster");
  if (cluster_sections.empty()) {
    throw std::invalid_argument("scenario needs at least one [cluster] section");
  }
  int index = 0;
  for (const auto* section : cluster_sections) {
    ClusterSetup setup;
    setup.machine.name = section->get_string("name", "cluster" + std::to_string(index));
    setup.machine.total_procs = static_cast<int>(section->get_int("procs", 128));
    if (setup.machine.total_procs <= 0) {
      throw std::invalid_argument("cluster '" + setup.machine.name +
                                  "': procs must be positive");
    }
    setup.machine.cost_per_cpu_second = section->get_double("cost", 0.0008);
    setup.machine.speed_factor = section->get_double("speed", 1.0);
    if (!finite_positive(setup.machine.speed_factor)) {  // at 0 no job finishes
      throw std::invalid_argument("[cluster] speed of '" + setup.machine.name +
                                  "' must be finite and > 0");
    }
    setup.machine.memory_per_proc_mb = section->get_double("mem_mb", 4096.0);
    // Below a contract's memory per processor the Central Server lists no
    // server, so every job goes unplaced.
    if (!finite_positive(setup.machine.memory_per_proc_mb)) {
      throw std::invalid_argument("[cluster] mem_mb of '" + setup.machine.name +
                                  "' must be finite and > 0");
    }
    setup.strategy = strategy_factory(section->get_string("strategy", "payoff"));
    setup.bid_generator = bidgen_factory(section->get_string("bidgen", "baseline"));
    setup.barter_credits = section->get_double("credits", 0.0);
    out.clusters.push_back(std::move(setup));
    ++index;
  }

  const ConfigSection* wl = config.section("workload");
  long users = 8;
  if (grid != nullptr) {
    users = grid->get_int("users", 8);
    if (users < 1) throw std::invalid_argument("[grid] users must be >= 1");
  }
  out.workload.user_count = static_cast<std::size_t>(users);
  out.workload.cluster_count = out.clusters.size();
  if (wl != nullptr) {
    const long jobs = wl->get_int("jobs", 200);
    if (jobs < 0) throw std::invalid_argument("[workload] jobs must be >= 0");
    out.workload.job_count = static_cast<std::size_t>(jobs);
    out.workload.rigid_fraction = wl->get_double("rigid_fraction", 0.0);
    // A minimum of 0 processors makes every generated contract invalid.
    // Checked before narrowing; the cap to the largest machine follows.
    const auto min_procs = [&](const char* key, long fallback) {
      const long v = wl->get_int(key, fallback);
      if (v < 1) {
        throw std::invalid_argument(std::string("[workload] ") + key + " must be >= 1");
      }
      return static_cast<int>(std::min<long>(v, std::numeric_limits<int>::max()));
    };
    out.workload.min_procs_lo = min_procs("min_procs_lo", 4);
    out.workload.min_procs_hi = min_procs("min_procs_hi", 32);
    parse_shaping(*wl, out.workload.shaping);
  }
  // Clamp jobs to the smallest machine? No — clamp their processor demand
  // to the largest machine so everything is placeable somewhere.
  int largest = 0;
  for (const auto& c : out.clusters) largest = std::max(largest, c.machine.total_procs);
  out.workload.shaping.procs_cap = largest;
  out.workload.min_procs_hi = std::min(out.workload.min_procs_hi, largest);
  out.workload.min_procs_lo =
      std::min(out.workload.min_procs_lo, out.workload.min_procs_hi);

  const ConfigSection* trace = config.section("trace");
  if (trace != nullptr) {
    TraceScenario ts;
    ts.path = trace->get_string("file", "");
    if (ts.path.empty()) {
      throw std::invalid_argument("[trace] needs a file = <path.swf> key");
    }
    job::SwfOptions& topt = ts.options;
    topt.cluster_count = out.clusters.size();
    topt.time_compression = trace->get_double("time_compression", 1.0);
    if (topt.time_compression <= 0.0) {
      throw std::invalid_argument("[trace] time_compression must be positive");
    }
    const long um = trace->get_int("user_multiplier", 1);
    if (um < 1) throw std::invalid_argument("[trace] user_multiplier must be >= 1");
    topt.user_multiplier = static_cast<std::size_t>(um);
    topt.clone_jitter = trace->get_double("jitter", topt.clone_jitter);
    topt.sort_window = trace->get_double("sort_window", 0.0);
    topt.max_jobs =
        static_cast<std::size_t>(std::max(0L, trace->get_int("max_jobs", 0)));
    topt.read_ahead = static_cast<std::size_t>(
        std::max(1L, trace->get_int("read_ahead",
                                    static_cast<long>(topt.read_ahead))));
    // The trace draws its shaping/jitter randomness from the scenario seed
    // unless the section pins its own.
    topt.seed = static_cast<std::uint64_t>(
        trace->get_int("seed", static_cast<long>(out.seed)));
    parse_shaping(*trace, topt.shaping);
    topt.shaping.procs_cap = largest;
    out.trace = std::move(ts);
  }

  // [market] — price-history retention (satellite of DESIGN.md §14): how
  // many settled contracts the Central Server's bounded deque keeps and how
  // far back its queries look.
  const ConfigSection* market = config.section("market");
  if (market != nullptr) {
    const long capacity = market->get_int(
        "history_capacity", static_cast<long>(out.grid.central.history_capacity));
    if (capacity < 1) {
      throw std::invalid_argument("[market] history_capacity must be >= 1");
    }
    out.grid.central.history_capacity = static_cast<std::size_t>(capacity);
    out.grid.central.history_window = market->get_double(
        "history_window", out.grid.central.history_window);
    if (out.grid.central.history_window <= 0.0) {
      throw std::invalid_argument("[market] history_window must be positive");
    }
  }

  // [store] — durable accounting state (DESIGN.md §14).
  const ConfigSection* store_section = config.section("store");
  if (store_section != nullptr) {
    out.grid.store.dir = store_section->get_string("dir", "");
    if (out.grid.store.dir.empty()) {
      throw std::invalid_argument("[store] needs a dir = <path> key");
    }
    const std::string sync = store_section->get_string("sync", "batch");
    if (sync == "none") {
      out.grid.store.sync = store::SyncPolicy::kNone;
    } else if (sync == "batch") {
      out.grid.store.sync = store::SyncPolicy::kBatch;
    } else if (sync == "always") {
      out.grid.store.sync = store::SyncPolicy::kAlways;
    } else {
      throw std::invalid_argument("[store] unknown sync '" + sync +
                                  "' (expected none|batch|always)");
    }
    out.grid.store.sync_every = static_cast<std::size_t>(std::max(
        1L, store_section->get_int("sync_every",
                                   static_cast<long>(out.grid.store.sync_every))));
    out.grid.store.snapshot_every = static_cast<std::uint64_t>(
        std::max(0L, store_section->get_int("snapshot_every", 0)));
  }

  // [live] — the live operations plane (DESIGN.md §15). `serve` defaults to
  // true when the section is present.
  const ConfigSection* live = config.section("live");
  if (live != nullptr) {
    out.grid.live.serve = live->get_bool("serve", true);
    const long port = live->get_int("port", 0);
    if (port < 0 || port > 65535) {
      throw std::invalid_argument("[live] port must be in [0, 65535]");
    }
    out.grid.live.port = static_cast<std::uint16_t>(port);
    out.grid.live.progress = live->get_bool("progress", out.grid.live.progress);
    out.grid.live.publish_interval =
        live->get_double("publish_interval", out.grid.live.publish_interval);
    out.grid.live.stall_timeout =
        live->get_double("stall_timeout", out.grid.live.stall_timeout);
  }

  const double load = wl != nullptr ? wl->get_double("load", 0.8) : 0.8;
  // At load 0 the mean interarrival is infinite: no job is ever submitted.
  if (!finite_positive(load)) {
    throw std::invalid_argument("[workload] load must be finite and > 0");
  }
  int total = 0;
  for (const auto& c : out.clusters) total += c.machine.total_procs;
  job::WorkloadGenerator::calibrate_load(out.workload, load, total);
  return out;
}

Scenario Scenario::parse_string(const std::string& text) {
  const ConfigFile config = ConfigFile::parse_string(text);
  Scenario out = parse(config);
  refuse_unread(config);
  return out;
}

int Scenario::total_procs() const {
  int total = 0;
  for (const auto& c : clusters) total += c.machine.total_procs;
  return total;
}

std::unique_ptr<GridSystem> Scenario::make_grid() const {
  return std::make_unique<GridSystem>(grid, clusters, workload.user_count);
}

std::unique_ptr<job::WorkloadSource> Scenario::make_source() const {
  if (trace.has_value()) {
    return job::SwfStreamSource::open(trace->path, trace->options);
  }
  return std::make_unique<job::GeneratorSource>(workload, seed);
}

std::vector<job::JobRequest> Scenario::make_requests() const {
  auto source = make_source();
  return job::collect(*source);
}

GridReport Scenario::run() {
  auto system = make_grid();
  auto source = make_source();
  return system->run(*source);
}

void write_report_json(std::ostream& os, const GridReport& report) {
  const auto num = [](double v) { return sweep::format_double(v); };
  os << "{\"jobs_submitted\":" << report.jobs_submitted
     << ",\"jobs_completed\":" << report.jobs_completed
     << ",\"jobs_unplaced\":" << report.jobs_unplaced
     << ",\"migrations\":" << report.migrations
     << ",\"watchdog_restarts\":" << report.watchdog_restarts
     << ",\"makespan\":" << num(report.makespan)
     << ",\"messages\":" << report.messages
     << ",\"network_bytes\":" << report.network_bytes
     << ",\"total_spent\":" << num(report.total_spent)
     << ",\"total_client_payoff\":" << num(report.total_client_payoff)
     << ",\"mean_award_latency\":" << num(report.mean_award_latency);
  os << ",\"messages_sent_by_kind\":[";
  for (std::size_t k = 0; k < report.messages_sent_by_kind.size(); ++k) {
    os << (k == 0 ? "" : ",") << report.messages_sent_by_kind[k];
  }
  os << "],\"messages_delivered_by_kind\":[";
  for (std::size_t k = 0; k < report.messages_delivered_by_kind.size(); ++k) {
    os << (k == 0 ? "" : ",") << report.messages_delivered_by_kind[k];
  }
  os << "],\"phase_mean_seconds\":[";
  for (std::size_t i = 0; i < report.phase_mean_seconds.size(); ++i) {
    os << (i == 0 ? "" : ",") << num(report.phase_mean_seconds[i]);
  }
  os << "],\"ledger\":{\"barter\":" << (report.ledger.barter ? "true" : "false")
     << ",\"opening_credits\":" << num(report.ledger.opening_credits)
     << ",\"total_credits\":" << num(report.ledger.total_credits)
     << ",\"conservation_residual\":" << num(report.ledger.conservation_residual)
     << ",\"transfers\":" << report.ledger.transfers
     << ",\"total_charged\":" << num(report.ledger.total_charged) << "}";
  os << ",\"clusters\":[";
  for (std::size_t i = 0; i < report.clusters.size(); ++i) {
    const ClusterReport& c = report.clusters[i];
    os << (i == 0 ? "" : ",") << "{\"name\":\"" << obs::json_escape(c.name)
       << "\",\"utilization\":" << num(c.utilization)
       << ",\"completed\":" << c.completed
       << ",\"rejected\":" << c.rejected
       << ",\"revenue\":" << num(c.revenue)
       << ",\"payoff_earned\":" << num(c.payoff_earned)
       << ",\"bids_issued\":" << c.bids_issued
       << ",\"bids_declined\":" << c.bids_declined
       << ",\"awards_confirmed\":" << c.awards_confirmed
       << ",\"awards_refused\":" << c.awards_refused
       << ",\"barter_balance\":" << num(c.barter_balance) << "}";
  }
  os << "]}\n";
}

void fill_checkpoint(store::Checkpoint& ckpt, GridSystem& grid, double sim_time) {
  ckpt.sim_time = sim_time;
  ckpt.executed = grid.engine().executed();
  ckpt.state_image = encode_central_state(grid.central());
}

std::string verify_checkpoint(const store::Checkpoint& ckpt, GridSystem& grid) {
  const std::uint64_t executed = grid.engine().executed();
  if (executed != ckpt.executed) {
    return "executed " + std::to_string(executed) + " events by t=" +
           std::to_string(ckpt.sim_time) + ", checkpoint recorded " +
           std::to_string(ckpt.executed);
  }
  if (encode_central_state(grid.central()) != ckpt.state_image) {
    return "central server state at t=" + std::to_string(ckpt.sim_time) +
           " differs from the checkpointed image";
  }
  return {};
}

void print_report(std::ostream& os, const GridReport& report) {
  os << "jobs: " << report.jobs_submitted << " submitted, "
     << report.jobs_completed << " completed, " << report.jobs_unplaced
     << " unplaced";
  if (report.migrations > 0) os << ", " << report.migrations << " migrated";
  if (report.watchdog_restarts > 0) {
    os << ", " << report.watchdog_restarts << " watchdog restarts";
  }
  os << "\nmakespan " << report.makespan / 3600.0 << " h, " << report.messages
     << " messages, mean time-to-award " << report.mean_award_latency << " s\n"
     << "clients spent $" << report.total_spent << " for payoff value $"
     << report.total_client_payoff << "\n\n";

  Table table{{"cluster", "utilization", "jobs", "revenue($)", "bids",
               "awards", "refused", "barter"}};
  for (const auto& c : report.clusters) {
    table.row()
        .cell(c.name)
        .cell(c.utilization, 3)
        .cell(c.completed)
        .cell(c.revenue, 2)
        .cell(c.bids_issued)
        .cell(c.awards_confirmed)
        .cell(c.awards_refused)
        .cell(c.barter_balance, 1);
  }
  table.print(os);
}

}  // namespace faucets::core
