// bench_e2e: end-to-end benchmark of the Faucets simulator, with a per-layer
// split measured from outside the simulator's sources (README.md beside this
// file has the workloads, the metric definitions and how to read them).
//
//   bench_e2e --workload NAME|all [--seed S] [--seconds T | --reps N]
//             [--trace 0|1] [--smoke] [--out FILE]
//
// Every simulation runs in a fresh child process (fork + exec of this
// binary), so the ru_maxrss that wait4() reports belongs to that one run.
// Timed children run the scenario exactly as a user would. Traced children
// (--trace 1) wrap every strategy, bid generator, evaluator and the workload
// source in timing decorators defined below, switch on the host-time
// profiler, and read the network, store and observability counters after
// the run; their report digest must equal the timed children's.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, where metrics holds the end-to-end metrics with
// --trace 0 and the per-layer metrics with --trace 1. The exit status is
// non-zero when any simulation failed a check.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/scenario.hpp"
#include "src/obs/exporters.hpp"
#include "src/obs/profiler.hpp"
#include "src/store/store.hpp"
#include "src/store/wal.hpp"
#include "src/sweep/jsonio.hpp"

using namespace faucets;

// --- store probe -------------------------------------------------------------
//
// CMakeLists.txt links this binary with -Wl,--wrap=fsync,--wrap=remove, so
// the durable store's calls into libc arrive here first. While armed, fsyncs
// are counted, and every WAL generation the store retires (an end-of-run or
// periodic snapshot deletes the old log) is read back just before it goes,
// which yields the appends and framed bytes of the whole run.
namespace store_probe {
std::atomic<bool> armed{false};
std::atomic<std::uint64_t> fsyncs{0};
std::uint64_t retired_records = 0;
std::uint64_t retired_bytes = 0;
}  // namespace store_probe

extern "C" int __real_fsync(int fd);
extern "C" int __real_remove(const char* path);

extern "C" int __wrap_fsync(int fd) {
  if (store_probe::armed.load(std::memory_order_relaxed)) {
    store_probe::fsyncs.fetch_add(1, std::memory_order_relaxed);
  }
  return __real_fsync(fd);
}

extern "C" int __wrap_remove(const char* path) {
  if (store_probe::armed.load(std::memory_order_relaxed) &&
      std::filesystem::path(path).filename().string().rfind("wal-", 0) == 0) {
    const store::WalReadResult wal = store::read_wal(path);
    for (const store::WalRecord& rec : wal.records) {
      ++store_probe::retired_records;
      store_probe::retired_bytes += store::frame_record(rec.type, rec.payload).size();
    }
  }
  return __real_remove(path);
}

namespace {

constexpr std::size_t kMinReps = 3;      // timed children per window, at least
constexpr unsigned kChildTimeout = 150;  // seconds before a child is killed

// --- seeds -------------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The seeds of one input. A run draws input i of its --seed from
/// splitmix64 state (seed, i), which fans out into independent streams for
/// the parts of a scenario that draw randomness; each fits the INI reader's
/// signed long.
///
/// Every child of a window simulates a different input, because one input's
/// cost is dominated by its longest job: the Central Server polls every
/// daemon until the last job ends, so one seed can take twice as long as the
/// next. A quantile over a window's inputs is stable from seed to seed;
/// the cost of any single input is not.
struct Seeds {
  long grid = 0;   // [grid] seed: the synthetic workload generator
  long fault = 0;  // [faults] seed: message loss and jitter draws
  long trace = 0;  // [trace] seed: clone jitter and shaping of the replay
};

Seeds derive_seeds(std::uint64_t seed, std::uint64_t input) {
  std::uint64_t state = seed;
  state = splitmix64(state) ^ input;
  const auto next = [&state] { return static_cast<long>(splitmix64(state) >> 33); };
  Seeds s;
  s.grid = next();
  s.fault = next();
  s.trace = next();
  return s;
}

// --- workloads ---------------------------------------------------------------

/// The E13 grid (DESIGN.md §11): ten 64-proc payoff servers that do the work
/// and 990 4-proc fcfs servers. Non-brokered, 100 users.
std::string e13_grid(long seed) {
  std::ostringstream ini;
  ini << "[grid]\nbilling = dollars\nusers = 100\nevaluator = least-cost\n"
         "brokered = false\nseed = "
      << seed << "\n\n";
  for (int i = 0; i < 1000; ++i) {
    const bool big = i % 100 == 0;
    ini << "[cluster]\nname = c" << i << "\nprocs = " << (big ? 64 : 4)
        << "\ncost = " << 0.0005 + (i % 7) * 0.0001
        << "\nstrategy = " << (big ? "payoff" : "fcfs") << "\nbidgen = baseline\n\n";
  }
  return ini.str();
}

std::string market_fanout_ini(const Seeds& s, std::size_t jobs, const std::string&) {
  // 2-4 processors fit every server, so each RFB reaches all 1000.
  return e13_grid(s.grid) + "[workload]\njobs = " + std::to_string(jobs) +
         "\nload = 0.7\nmin_procs_lo = 2\nmin_procs_hi = 4\n";
}

std::string e13_ini(const Seeds& s, std::size_t jobs, const std::string&) {
  // 32-48 processors: only the ten big servers qualify.
  return e13_grid(s.grid) + "[workload]\njobs = " + std::to_string(jobs) +
         "\nload = 0.7\nmin_procs_lo = 32\nmin_procs_hi = 48\n";
}

std::string replay_deep_ini(const Seeds& s, std::size_t jobs, const std::string&) {
  static constexpr const char* kStrategies[] = {"payoff", "backfill", "equipartition",
                                                "fcfs"};
  std::ostringstream ini;
  ini << "[grid]\nusers = 64\nevaluator = least-cost\nseed = " << s.grid << "\n\n";
  for (int i = 0; i < 16; ++i) {
    ini << "[cluster]\nname = r" << i << "\nprocs = 512\ncost = "
        << 0.0005 + (i % 4) * 0.0002 << "\nstrategy = " << kStrategies[i % 4]
        << "\nbidgen = " << (i % 2 == 0 ? "utilization" : "baseline") << "\n\n";
  }
  // 416 CRN-paired clones of the 240-record fixture make ~100k jobs; the
  // arrivals are stretched 20x so the cloned load stays finite, and max_jobs
  // cuts the replay to this workload's size.
  ini << "[trace]\nfile = " << BENCH_E2E_DATA_DIR << "/replay_fixture.swf\n"
      << "time_compression = 0.05\nuser_multiplier = 416\njitter = 3600\n"
      << "max_jobs = " << jobs << "\nmalleability = 0.5\ndeadline_fraction = 0.5\n"
      << "seed = " << s.trace << "\n";
  return ini.str();
}

std::string chaos_barter_ini(const Seeds& s, std::size_t jobs, const std::string& dir) {
  static constexpr const char* kStrategies[] = {"fcfs", "backfill", "equipartition",
                                                "payoff", "priority"};
  static constexpr const char* kBidgens[] = {"baseline", "utilization", "market",
                                             "futures"};
  static constexpr int kProcs[] = {64, 128, 256};
  // Fault instants scale with the job count: arrivals are calibrated to
  // the load, so simulated time grows in proportion to the jobs.
  const double t = static_cast<double>(jobs) / 5000.0;
  std::ostringstream ini;
  ini << "[grid]\nbilling = barter\nusers = 32\nbrokered = true\nwatchdog = 600\n"
         "evaluator = least-cost\nseed = "
      << s.grid << "\n\n"
      << "[faults]\nloss = 0.05\njitter = 0.5\nseed = " << s.fault
      << "\ncrash_cluster = 3\ncrash_at = " << 10000 * t
      << "\ncrash_restart = " << 30000 * t << "\npartition_cluster = 5"
      << "\npartition_from = " << 35000 * t << "\npartition_until = " << 50000 * t
      << "\n\n";
  for (int i = 0; i < 32; ++i) {
    const int procs = kProcs[i % 3];
    ini << "[cluster]\nname = x" << i << "\nprocs = " << procs << "\ncost = "
        << 0.0005 + (i % 5) * 0.0001 << "\ncredits = " << procs
        << "\nstrategy = " << kStrategies[i % 5] << "\nbidgen = " << kBidgens[i % 4]
        << "\n\n";
  }
  ini << "[workload]\njobs = " << jobs << "\nload = 0.8\n\n"
      << "[store]\ndir = " << dir << "\nsync = batch\n";
  return ini.str();
}

struct Workload {
  std::string_view name;
  std::size_t jobs;        // jobs per simulation
  std::size_t smoke_jobs;  // jobs per simulation under --smoke
  /// Simulated seconds to run; 0 runs until every job is completed or
  /// unplaced. On the E13 grid the Central Server polls 1000 daemons until
  /// the last job ends, so without a horizon one input's work is set by its
  /// longest job and varies by 20-30% from input to input; with one, the
  /// work varies by less than 0.1%. Every job arrives well before it.
  double horizon;
  bool store;  // needs a store directory
  std::string (*ini)(const Seeds&, std::size_t jobs, const std::string& store_dir);
};

// Why each workload exists is recorded in BENCHMARK.json and README.md. The
// sizes keep one simulation near a second, so a window holds many inputs.
// Every workload runs on one thread: on the 4-vCPU host the benchmark was
// written for, a sharded run (4 pool workers plus the coordinator) passed
// ~17,000 barriers of ~11 events per simulation, so its wall time followed
// how fast the host woke idle vCPUs rather than the simulator's work.
constexpr Workload kWorkloads[] = {
    {"market_fanout", 300, 20, 20000.0, false, market_fanout_ini},
    {"e13", 2000, 200, 20000.0, false, e13_ini},
    {"replay_deep", 5000, 300, 0.0, false, replay_deep_ini},
    {"chaos_barter", 3000, 150, 0.0, true, chaos_barter_ini},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// --- timing decorators (traced children only) ----------------------------------
//
// Each decorated object gets its own stats slot, so the worker threads of a
// sharded run never write to a shared one. Slots live in deques: growing a
// deque at the back never moves the elements already handed out.

struct CallStats {
  obs::ProfStats ticks;
  std::uint64_t hits = 0;   // accepted admissions, declined bids, empty selections
  std::uint64_t items = 0;  // bids offered to select()
};

struct SchedStats {
  CallStats admit;
  CallStats schedule;
  std::uint64_t queued_sum = 0;
  std::uint64_t queued_max = 0;
  std::uint64_t running_sum = 0;
};

struct SourceStats {
  std::uint64_t pulls = 0;
  std::uint64_t ticks = 0;  // in peek, next and exhausted
};

class Probes {
 public:
  SchedStats& new_sched() { return add(sched); }
  CallStats& new_bidgen() { return add(bidgen); }
  CallStats& new_select() { return add(select); }

  std::deque<SchedStats> sched;
  std::deque<CallStats> bidgen;
  std::deque<CallStats> select;
  SourceStats source;  // one shared source, pulled only by the coordinating thread

 private:
  template <typename T>
  T& add(std::deque<T>& slots) {
    const std::lock_guard<std::mutex> lock(mu_);
    return slots.emplace_back();
  }
  std::mutex mu_;
};

class TimedStrategy final : public sched::Strategy {
 public:
  TimedStrategy(std::unique_ptr<sched::Strategy> inner, SchedStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] bool adaptive() const noexcept override { return inner_->adaptive(); }

  [[nodiscard]] sched::AdmissionDecision admit(const sched::SchedulerContext& ctx,
                                               const qos::QosContract& contract) override {
    const std::uint64_t t0 = obs::HostClock::ticks();
    sched::AdmissionDecision d = inner_->admit(ctx, contract);
    stats_.admit.ticks.record(obs::HostClock::ticks() - t0);
    if (d.accept) ++stats_.admit.hits;
    return d;
  }

  [[nodiscard]] std::vector<sched::Allocation> schedule(
      const sched::SchedulerContext& ctx) override {
    const std::uint64_t t0 = obs::HostClock::ticks();
    std::vector<sched::Allocation> out = inner_->schedule(ctx);
    stats_.schedule.ticks.record(obs::HostClock::ticks() - t0);
    stats_.queued_sum += ctx.queued.size();
    stats_.queued_max = std::max<std::uint64_t>(stats_.queued_max, ctx.queued.size());
    stats_.running_sum += ctx.running.size();
    return out;
  }

 private:
  std::unique_ptr<sched::Strategy> inner_;
  SchedStats& stats_;
};

class TimedBidGenerator final : public market::BidGenerator {
 public:
  TimedBidGenerator(std::unique_ptr<market::BidGenerator> inner, CallStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }

  [[nodiscard]] std::optional<double> multiplier(const market::BidContext& ctx) override {
    const std::uint64_t t0 = obs::HostClock::ticks();
    std::optional<double> m = inner_->multiplier(ctx);
    stats_.ticks.record(obs::HostClock::ticks() - t0);
    if (!m) ++stats_.hits;
    return m;
  }

 private:
  std::unique_ptr<market::BidGenerator> inner_;
  CallStats& stats_;
};

class TimedEvaluator final : public market::BidEvaluator {
 public:
  TimedEvaluator(std::unique_ptr<market::BidEvaluator> inner, CallStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }

  [[nodiscard]] std::optional<std::size_t> select(const std::vector<market::Bid>& bids,
                                                  const qos::QosContract& contract,
                                                  double now) const override {
    const std::uint64_t t0 = obs::HostClock::ticks();
    std::optional<std::size_t> pick = inner_->select(bids, contract, now);
    stats_.ticks.record(obs::HostClock::ticks() - t0);
    stats_.items += bids.size();
    if (!pick) ++stats_.hits;
    return pick;
  }

 private:
  std::unique_ptr<market::BidEvaluator> inner_;
  CallStats& stats_;
};

class TimedSource final : public job::WorkloadSource {
 public:
  TimedSource(std::unique_ptr<job::WorkloadSource> inner, SourceStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] double peek_next_submit_time() override {
    const std::uint64_t t0 = obs::HostClock::ticks();
    const double t = inner_->peek_next_submit_time();
    stats_.ticks += obs::HostClock::ticks() - t0;
    return t;
  }
  [[nodiscard]] job::JobRequest next() override {
    const std::uint64_t t0 = obs::HostClock::ticks();
    job::JobRequest r = inner_->next();
    stats_.ticks += obs::HostClock::ticks() - t0;
    ++stats_.pulls;
    return r;
  }
  [[nodiscard]] bool exhausted() override {
    const std::uint64_t t0 = obs::HostClock::ticks();
    const bool done = inner_->exhausted();
    stats_.ticks += obs::HostClock::ticks() - t0;
    return done;
  }

 private:
  std::unique_ptr<job::WorkloadSource> inner_;
  SourceStats& stats_;
};

/// Wrap every factory of `scenario` so the objects it makes record into
/// `probes`, which must outlive the grid built from it.
void instrument(core::Scenario& scenario, Probes* probes) {
  for (core::ClusterSetup& c : scenario.clusters) {
    c.strategy = [inner = c.strategy, probes] {
      return std::make_unique<TimedStrategy>(inner(), probes->new_sched());
    };
    c.bid_generator = [inner = c.bid_generator, probes] {
      return std::make_unique<TimedBidGenerator>(inner(), probes->new_bidgen());
    };
  }
  core::EvaluatorFactory evaluator =
      scenario.grid.evaluator ? scenario.grid.evaluator
                              : core::evaluator_factory("least-cost");
  scenario.grid.evaluator = [inner = std::move(evaluator), probes] {
    return std::make_unique<TimedEvaluator>(inner(), probes->new_select());
  };
  scenario.grid.profile.enabled = true;
}

// --- child: one simulation in its own process -----------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// A stream that discards what it is given: the export timing measures
/// serialization, not the disk.
class NullBuffer final : public std::streambuf {
 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The child's result lines: "key value" for the run itself, and
/// "layer key unit value" for each per-layer metric, in report order.
struct Emitter {
  std::ostringstream os;
  void value(std::string_view key, double v) {
    os << key << ' ' << sweep::format_double(v) << '\n';
  }
  void layer(std::string_view key, std::string_view unit, double v) {
    os << "layer " << key << ' ' << unit << ' ' << sweep::format_double(v) << '\n';
  }
  void layer(std::string_view key, std::string_view unit, std::uint64_t v) {
    layer(key, unit, static_cast<double>(v));
  }
};

// Message kinds grouped by the protocol exchange they belong to (slot 0 of
// the profiler is timer events, reported as sim.timer_s).
struct KindGroup {
  std::string_view name;
  std::vector<sim::MessageKind> kinds;
};

const std::vector<KindGroup>& kind_groups() {
  using K = sim::MessageKind;
  static const std::vector<KindGroup> groups = {
      {"rfb_bid",
       {K::kRequestForBids, K::kBid, K::kAuthRequest, K::kAuthReply, K::kSubmit,
        K::kSubmitAck}},
      {"award",
       {K::kAward, K::kAwardAck, K::kReserve, K::kReserveAck, K::kCommit, K::kUpload}},
      {"directory",
       {K::kLogin, K::kLoginAck, K::kDirectoryRequest, K::kDirectoryReply,
        K::kPeerDirectoryRequest, K::kPeerDirectoryReply, K::kRegisterDaemon,
        K::kRegisterAck}},
      {"poll", {K::kPoll, K::kPollReply}},
      {"completion", {K::kJobDone, K::kEvicted, K::kSettled}},
      {"monitor", {K::kMonitorRegister, K::kMonitorUpdate, K::kWatch, K::kWatchReply}},
      {"peer_rfb", {K::kPeerRfb, K::kPeerRfbReply}},
  };
  return groups;
}

void emit_layers(Emitter& out, core::GridSystem& grid, const core::GridReport& report,
                 const Probes& probes, double run_s) {
  const double ns = obs::HostClock::ns_per_tick();
  const auto secs = [ns](std::uint64_t ticks) {
    return static_cast<double>(ticks) * ns * 1e-9;
  };
  const auto us = [ns](const obs::ProfStats& s, double q) {
    return s.quantile_ticks(q) * ns * 1e-3;
  };

  // sched: every cluster's strategy.
  SchedStats sched;
  for (const SchedStats& s : probes.sched) {
    sched.admit.ticks.merge_from(s.admit.ticks);
    sched.admit.hits += s.admit.hits;
    sched.schedule.ticks.merge_from(s.schedule.ticks);
    sched.queued_sum += s.queued_sum;
    sched.queued_max = std::max(sched.queued_max, s.queued_max);
    sched.running_sum += s.running_sum;
  }
  const auto admits = static_cast<double>(sched.admit.ticks.count);
  const auto schedules = static_cast<double>(sched.schedule.ticks.count);
  out.layer("sched.admit_calls", "count", sched.admit.ticks.count);
  out.layer("sched.admit_s", "s", secs(sched.admit.ticks.total));
  out.layer("sched.admit_p50_us", "us", us(sched.admit.ticks, 0.5));
  out.layer("sched.admit_p99_us", "us", us(sched.admit.ticks, 0.99));
  out.layer("sched.admit_accept_ratio", "ratio",
            ratio(static_cast<double>(sched.admit.hits), admits));
  out.layer("sched.schedule_calls", "count", sched.schedule.ticks.count);
  out.layer("sched.schedule_s", "s", secs(sched.schedule.ticks.total));
  out.layer("sched.schedule_p99_us", "us", us(sched.schedule.ticks, 0.99));
  out.layer("sched.queue_depth_mean", "jobs",
            ratio(static_cast<double>(sched.queued_sum), schedules));
  out.layer("sched.queue_depth_max", "jobs", sched.queued_max);
  out.layer("sched.running_mean", "jobs",
            ratio(static_cast<double>(sched.running_sum), schedules));

  // market: bid generation at the servers, bid selection at the clients.
  CallStats bidgen;
  for (const CallStats& s : probes.bidgen) {
    bidgen.ticks.merge_from(s.ticks);
    bidgen.hits += s.hits;
  }
  CallStats select;
  for (const CallStats& s : probes.select) {
    select.ticks.merge_from(s.ticks);
    select.hits += s.hits;
    select.items += s.items;
  }
  const auto selects = static_cast<double>(select.ticks.count);
  out.layer("market.bidgen_calls", "count", bidgen.ticks.count);
  out.layer("market.bidgen_s", "s", secs(bidgen.ticks.total));
  out.layer("market.bidgen_p99_us", "us", us(bidgen.ticks, 0.99));
  out.layer("market.bid_decline_ratio", "ratio",
            ratio(static_cast<double>(bidgen.hits), static_cast<double>(bidgen.ticks.count)));
  out.layer("market.select_calls", "count", select.ticks.count);
  out.layer("market.select_s", "s", secs(select.ticks.total));
  out.layer("market.select_p99_us", "us", us(select.ticks, 0.99));
  out.layer("market.bids_per_select", "bids", ratio(static_cast<double>(select.items), selects));
  out.layer("market.select_none_ratio", "ratio",
            ratio(static_cast<double>(select.hits), selects));
  std::uint64_t issued = 0;
  std::uint64_t declined = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t refused = 0;
  for (const core::ClusterReport& c : report.clusters) {
    issued += c.bids_issued;
    declined += c.bids_declined;
    confirmed += c.awards_confirmed;
    refused += c.awards_refused;
  }
  out.layer("market.bids_issued", "count", issued);
  out.layer("market.bids_declined", "count", declined);
  out.layer("market.awards_confirmed", "count", confirmed);
  out.layer("market.awards_refused", "count", refused);

  // faucets + sim: the host-time profiler's per-entity-class and
  // per-message-kind self time. Every workload runs unsharded, so the
  // profiler has one lane and the run's wall clock is that lane's.
  std::array<std::uint64_t, obs::kProfClassCount> by_class{};
  std::array<obs::ProfStats, obs::ProfilerLane::kKindSlots> by_kind{};
  std::uint64_t events = 0;
  if (const obs::Profiler* prof = grid.profiler()) {
    for (std::size_t l = 0; l < prof->lane_count(); ++l) {
      const obs::ProfilerLane& lane = prof->lane(l);
      for (std::size_t c = 0; c < obs::kProfClassCount; ++c) {
        by_class[c] += lane.by_class(c).total;
      }
      for (std::size_t k = 0; k < by_kind.size(); ++k) by_kind[k].merge_from(lane.by_kind(k));
      events += lane.events();
    }
  }
  for (const obs::ProfClass c : {obs::ProfClass::kCentral, obs::ProfClass::kDaemon,
                                 obs::ProfClass::kClient, obs::ProfClass::kBroker,
                                 obs::ProfClass::kAppSpector, obs::ProfClass::kOther}) {
    out.layer("faucets." + std::string(obs::to_string(c)) + "_s", "s",
              secs(by_class[static_cast<std::size_t>(c)]));
  }
  for (const KindGroup& g : kind_groups()) {
    std::uint64_t ticks = 0;
    std::uint64_t count = 0;
    for (const sim::MessageKind k : g.kinds) {
      const obs::ProfStats& s = by_kind[1 + static_cast<std::size_t>(k)];
      ticks += s.total;
      count += s.count;
    }
    out.layer("faucets.msg." + std::string(g.name) + "_s", "s", secs(ticks));
    out.layer("faucets.msg." + std::string(g.name) + "_count", "count", count);
  }
  std::uint64_t dispatch = 0;
  for (const obs::ProfStats& s : by_kind) dispatch += s.total;
  const double handler_s = secs(dispatch - by_kind[0].total);
  const double timer_s = secs(by_kind[0].total);
  const double decorated_s = secs(sched.admit.ticks.total + sched.schedule.ticks.total +
                                  bidgen.ticks.total + select.ticks.total);
  out.layer("faucets.handler_self_s", "s", handler_s + timer_s - decorated_s);
  const obs::MetricsRegistry& metrics = grid.merged_metrics();
  out.layer("faucets.retry_attempts", "count",
            metrics.counter_value("faucets_retry_attempts_total"));
  out.layer("faucets.retry_exhausted", "count",
            metrics.counter_value("faucets_retry_exhausted_total"));
  out.layer("faucets.watchdog_restarts", "count", report.watchdog_restarts);

  out.layer("sim.events", "count", events);
  out.layer("sim.events_per_s", "1/s", ratio(static_cast<double>(events), run_s));
  out.layer("sim.handler_s", "s", handler_s);
  out.layer("sim.timer_s", "s", timer_s);
  out.layer("sim.unattributed_s", "s", run_s - handler_s - timer_s);
  out.layer("sim.unattributed_frac", "ratio", ratio(run_s - handler_s - timer_s, run_s));

  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t bytes = 0;
  for (std::size_t s = 0; s < grid.shard_count(); ++s) {
    const sim::Network& net = grid.shard_context(s).network();
    sent += net.messages_sent();
    delivered += net.messages_delivered();
    dropped += net.messages_dropped();
    bytes += net.bytes_sent();
  }
  out.layer("sim.net.messages_sent", "count", sent);
  out.layer("sim.net.messages_delivered", "count", delivered);
  out.layer("sim.net.messages_dropped", "count", dropped);
  out.layer("sim.net.bytes", "bytes", bytes);
  out.layer("sim.net.drop_ratio", "ratio",
            ratio(static_cast<double>(dropped), static_cast<double>(sent)));

  out.layer("job.source_pulls", "count", probes.source.pulls);
  out.layer("job.source_s", "s", secs(probes.source.ticks));
  out.layer("job.demux_high_water", "jobs",
            static_cast<std::uint64_t>(grid.workload_high_water()));

  // store: retired WAL generations (read back by the remove() wrapper) plus
  // the live one, then a timed recovery of the final durable state.
  store_probe::armed = false;
  std::uint64_t appends = store_probe::retired_records;
  std::uint64_t wal_bytes = store_probe::retired_bytes;
  std::uint64_t snapshot_bytes = 0;
  double recover_s = 0.0;
  if (auto* durable = dynamic_cast<store::DurableStore*>(grid.store())) {
    appends += durable->appends_since_snapshot();
    wal_bytes += durable->wal_bytes();
    durable->flush();
    snapshot_bytes = std::filesystem::file_size(durable->snapshot_path(durable->generation()));
    const auto t0 = std::chrono::steady_clock::now();
    const store::StateStore::Recovered rec = durable->recover();
    recover_s = seconds_since(t0);
    if (rec.generation != durable->generation()) {
      throw std::runtime_error("store recovery found generation " +
                               std::to_string(rec.generation) + ", expected " +
                               std::to_string(durable->generation()));
    }
  }
  out.layer("store.appends", "count", appends);
  out.layer("store.wal_bytes", "bytes", wal_bytes);
  out.layer("store.fsyncs", "count", store_probe::fsyncs.load());
  out.layer("store.snapshot_bytes", "bytes", snapshot_bytes);
  out.layer("store.recover_s", "s", recover_s);

  // obs: the artifacts a user would export, serialized into a null stream.
  const obs::TraceView trace = grid.merged_trace();
  out.layer("obs.spans", "count", static_cast<std::uint64_t>(grid.merged_spans().size()));
  out.layer("obs.trace_recorded", "count", trace.total_recorded());
  out.layer("obs.trace_dropped", "count", trace.dropped());
  out.layer("obs.metric_series", "count", static_cast<std::uint64_t>(metrics.size()));
  NullBuffer sink_buf;
  std::ostream sink(&sink_buf);
  auto t0 = std::chrono::steady_clock::now();
  core::write_report_json(sink, report);
  obs::write_trace_jsonl(sink, trace);
  obs::write_prometheus(sink, metrics, &trace);
  out.layer("obs.export_s", "s", seconds_since(t0));
  t0 = std::chrono::steady_clock::now();
  const core::GridTelemetry telemetry = grid.telemetry();
  out.layer("obs.telemetry_s", "s", seconds_since(t0));
  if (telemetry.users.size() != grid.client_count()) {
    throw std::runtime_error("telemetry has " + std::to_string(telemetry.users.size()) +
                             " user rows for " + std::to_string(grid.client_count()) +
                             " users");
  }
}

struct ChildOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  std::uint64_t input = 0;
  bool smoke = false;
  bool traced = false;
  int result_fd = -1;
};

/// Build, run and check one simulation; the result goes to `result_fd` as
/// Emitter lines. Returns the process exit status.
int run_child(const ChildOptions& opt) {
  alarm(kChildTimeout);
  const Workload& w = *opt.workload;
  const Seeds seeds = derive_seeds(opt.seed, opt.input);
  const std::size_t jobs = opt.smoke ? w.smoke_jobs : w.jobs;
  const std::filesystem::path work =
      std::filesystem::path(BENCH_E2E_WORK_DIR) / ("child-" + std::to_string(getpid()));
  Emitter out;
  int status = 0;
  try {
    // Declared before the grid so the decorators' stats outlive it.
    Probes probes;
    if (w.store) std::filesystem::create_directories(work);
    const std::string ini = w.ini(seeds, jobs, w.store ? (work / "store").string() : "");
    auto t0 = std::chrono::steady_clock::now();
    core::Scenario scenario = core::Scenario::parse_string(ini);
    if (opt.traced) instrument(scenario, &probes);
    const std::unique_ptr<core::GridSystem> grid = scenario.make_grid();
    std::unique_ptr<job::WorkloadSource> source = scenario.make_source();
    if (opt.traced) source = std::make_unique<TimedSource>(std::move(source), probes.source);
    const double setup_s = seconds_since(t0);

    store_probe::armed = opt.traced;
    t0 = std::chrono::steady_clock::now();
    const core::GridReport report =
        grid->run(*source, w.horizon > 0.0 ? w.horizon : sim::Engine::kForever);
    const double run_s = seconds_since(t0);

    std::ostringstream json;
    core::write_report_json(json, report);
    // The clients' in-flight gauge counts jobs neither completed nor
    // unplaced: those still running at the horizon, none after a run to
    // completion.
    const obs::Gauge* gauge =
        grid->merged_metrics().find_gauge("faucets_market_inflight_requests");
    const auto in_flight = static_cast<std::uint64_t>(
        std::llround(gauge != nullptr ? gauge->value() : 0.0));
    const bool accounted =
        report.jobs_submitted == report.jobs_completed + report.jobs_unplaced + in_flight &&
        (w.horizon > 0.0 || in_flight == 0);
    const bool all_submitted = report.jobs_submitted == jobs;
    const double residual = report.ledger.conservation_residual;
    const bool conserved = std::abs(residual) <= 1e-9;
    if (!accounted) {
      std::cerr << w.name << ": " << report.jobs_submitted << " submitted, "
                << report.jobs_completed << " completed, " << report.jobs_unplaced
                << " unplaced, " << in_flight << " in flight\n";
    }
    if (!all_submitted) {
      std::cerr << w.name << ": " << report.jobs_submitted << " jobs submitted, expected "
                << jobs << "\n";
    }
    if (!conserved) std::cerr << w.name << ": ledger residual " << residual << "\n";

    out.os << "digest " << std::hex << std::hash<std::string>{}(json.str()) << std::dec
           << '\n';
    out.value("checks_ok", accounted && all_submitted && conserved ? 1.0 : 0.0);
    out.value("run_s", run_s);
    out.value("setup_s", setup_s);
    out.value("submitted", static_cast<double>(report.jobs_submitted));
    out.value("completed", static_cast<double>(report.jobs_completed));
    if (opt.traced) emit_layers(out, *grid, report, probes, run_s);
  } catch (const std::exception& e) {
    std::cerr << w.name << ": " << e.what() << "\n";
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(work, ignored);

  const std::string text = out.os.str();
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(opt.result_fd, text.data() + done, text.size() - done);
    if (n <= 0) return 1;
    done += static_cast<std::size_t>(n);
  }
  return status;
}

// --- parent: windows of child runs ------------------------------------------------

struct ChildResult {
  std::uint64_t input = 0;
  bool ok = false;
  std::string digest;
  std::map<std::string, double, std::less<>> values;
  std::vector<std::pair<std::string, std::string>> layers;  // (name, unit) in order
  double peak_rss_mb = 0.0;
};

ChildResult spawn_child(const Workload& w, std::uint64_t seed, std::uint64_t input,
                        bool smoke, bool traced) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::vector<std::string> args = {"bench_e2e", "--child", std::string(w.name),
                                   "--seed",    std::to_string(seed),
                                   "--input",   std::to_string(input),
                                   "--result-fd", std::to_string(fds[1])};
  if (smoke) args.emplace_back("--smoke");
  if (traced) args.emplace_back("--traced");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::cout.flush();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    ::execv("/proc/self/exe", argv.data());
    std::_Exit(127);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }

  ChildResult r;
  r.input = input;
  r.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "digest") {
      fields >> r.digest;
    } else if (key == "layer") {
      std::string unit;
      double v = 0.0;
      fields >> key >> unit >> v;
      r.layers.emplace_back(key, unit);
      r.values[key] = v;
    } else {
      fields >> r.values[key];
    }
  }
  r.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 && !r.digest.empty() &&
         r.values["checks_ok"] == 1.0;
  if (!r.ok) {
    std::cerr << w.name << ": child (seed " << seed << ", input " << input
              << (traced ? ", traced" : "") << ") failed, status " << status << "\n";
  }
  return r;
}

/// The q-quantile of `v`, interpolated between the closest ranks at
/// (n - 1) * q, as Python's statistics.quantiles(..., method="inclusive")
/// places its cut points; q = 0.5 is the median.
double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the default "exclusive" method), so the printed spread matches what a
/// reader recomputes from the samples.
std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return {0.0, 0.0, 0.0};
  if (n == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> q{};
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return q;
}

struct Sampled {
  std::string name;
  std::string unit;
  std::vector<double> samples;
  double q = 0.5;  // the quantile of the samples that is reported
  [[nodiscard]] double value() const { return quantile_of(samples, q); }
  [[nodiscard]] std::string stat() const {
    return q == 0.5 ? "median" : "p" + std::to_string(std::lround(q * 100));
  }
};

struct WorkloadResult {
  const Workload* workload = nullptr;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t inputs = 0;  // distinct inputs simulated: 0 .. inputs - 1
  std::string digest;        // report digest of input 0
  std::vector<Sampled> end_to_end;
  std::vector<Sampled> layers;  // empty unless traced children ran
};

struct Options {
  std::vector<const Workload*> workloads;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // > 0: time-boxed window, else `reps` children
  std::size_t reps = 5;
  bool trace = false;
  bool smoke = false;
  std::string out_path;
};

WorkloadResult measure(const Workload& w, const Options& opt) {
  std::vector<ChildResult> timed;
  std::vector<ChildResult> traced;
  const auto start = std::chrono::steady_clock::now();
  const auto more = [&] {
    return opt.seconds > 0.0 ? timed.size() < kMinReps || seconds_since(start) < opt.seconds
                             : timed.size() < opt.reps;
  };
  // Timed child i simulates input max(0, i - 1): the first input runs twice,
  // so every window re-checks that a simulation is deterministic. A traced
  // child follows each timed one on the same input; their digests must
  // agree, and machine drift weighs on both sides of trace_overhead_frac.
  while (more()) {
    const std::uint64_t input = timed.empty() ? 0 : timed.size() - 1;
    timed.push_back(spawn_child(w, opt.seed, input, opt.smoke, false));
    if (opt.trace) traced.push_back(spawn_child(w, opt.seed, input, opt.smoke, true));
  }

  WorkloadResult r;
  r.workload = &w;
  r.attempted = timed.size() + traced.size();
  r.inputs = timed.back().input + 1;
  std::map<std::uint64_t, std::string> digests;  // first digest seen per input
  for (const std::vector<ChildResult>* group : {&timed, &traced}) {
    for (const ChildResult& c : *group) {
      if (!c.ok) {
        ++r.failed;
        continue;
      }
      const auto [first, fresh] = digests.emplace(c.input, c.digest);
      if (!fresh && first->second != c.digest) {
        ++r.failed;
        std::cerr << w.name << ": input " << c.input << " gave report digest " << c.digest
                  << ", earlier " << first->second << "\n";
      }
    }
  }
  if (!digests.empty()) r.digest = digests.begin()->second;

  // Other tenants of a shared host only ever slow a simulation down, much of
  // it in bursts of a few seconds that cover anywhere from a quarter to most
  // of a window. The median follows that share; the fastest tenth of a
  // window's simulations stays nearer the simulator's own speed. Timings
  // therefore report the 90th percentile of throughput and the 10th
  // percentile of set-up time (README.md has the measurements).
  Sampled jobs_per_s{"jobs_per_s", "jobs/s", {}, 0.9};
  Sampled setup_s{"setup_s", "s", {}, 0.1};
  Sampled peak_rss{"peak_rss_mb", "MB", {}};
  Sampled completed{"jobs_completed_frac", "ratio", {}};
  for (const ChildResult& c : timed) {
    if (!c.ok) continue;
    const double submitted = c.values.at("submitted");
    jobs_per_s.samples.push_back(submitted / c.values.at("run_s"));
    setup_s.samples.push_back(c.values.at("setup_s"));
    peak_rss.samples.push_back(c.peak_rss_mb);
    completed.samples.push_back(c.values.at("completed") / submitted);
  }
  r.end_to_end = {jobs_per_s, setup_s, peak_rss, completed};

  const auto first_traced = std::find_if(traced.begin(), traced.end(),
                                         [](const ChildResult& c) { return c.ok; });
  if (first_traced != traced.end()) {
    for (const auto& [name, unit] : first_traced->layers) {
      Sampled s{name, unit, {}};
      for (const ChildResult& c : traced) {
        const auto it = c.values.find(name);
        if (c.ok && it != c.values.end()) s.samples.push_back(it->second);
      }
      r.layers.push_back(std::move(s));
    }
    // Each traced child against the timed child of the same input.
    Sampled overhead{"trace_overhead_frac", "ratio", {}};
    for (std::size_t i = 0; i < traced.size(); ++i) {
      if (!timed[i].ok || !traced[i].ok) continue;
      overhead.samples.push_back(traced[i].values.at("run_s") / timed[i].values.at("run_s") -
                                 1.0);
    }
    r.layers.push_back(std::move(overhead));
  }

  // A non-finite value is a failed measurement, and JSON cannot carry it.
  for (std::vector<Sampled>* rows : {&r.end_to_end, &r.layers}) {
    for (Sampled& s : *rows) {
      const auto bad = std::remove_if(s.samples.begin(), s.samples.end(),
                                      [](double v) { return !std::isfinite(v); });
      if (bad == s.samples.end()) continue;
      s.samples.erase(bad, s.samples.end());
      ++r.failed;
      std::cerr << w.name << ": " << s.name << " was not finite\n";
    }
  }
  return r;
}

// --- reporting -------------------------------------------------------------------

void print_table(std::ostream& os, std::string_view title, const std::vector<Sampled>& rows) {
  if (rows.empty()) return;
  os << "  " << title << "\n";
  for (const Sampled& s : rows) {
    const std::array<double, 3> q = quartiles(s.samples);
    os << "    " << s.name << std::string(34 - std::min<std::size_t>(33, s.name.size()), ' ')
       << sweep::format_double(s.value()) << " " << s.unit << "  [" << s.stat() << "; q1 "
       << sweep::format_double(q[0]) << ", q3 " << sweep::format_double(q[2]) << ", n "
       << s.samples.size() << "]\n";
  }
}

void write_json_metrics(std::ostream& os, const std::vector<Sampled>& rows,
                        std::string_view prefix, bool& first) {
  for (const Sampled& s : rows) {
    os << (first ? "" : ", ") << '"' << prefix << s.name << "\": {\"value\": "
       << sweep::format_double(s.value()) << ", \"unit\": \"" << s.unit << "\"}";
    first = false;
  }
}

/// Every sample of every metric, for compare.py and the smoke check.
void write_out_file(const std::string& path, const Options& opt,
                    const std::vector<WorkloadResult>& results) {
  std::ofstream os(path);
  os << "{\"seed\": " << opt.seed << ", \"smoke\": " << (opt.smoke ? "true" : "false")
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"workloads\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    os << (i == 0 ? "" : ", ") << '"' << r.workload->name << "\": {\"attempted\": "
       << r.attempted << ", \"failed\": " << r.failed << ", \"digest\": \"" << r.digest
       << "\", \"inputs\": [";
    for (std::uint64_t k = 0; k < r.inputs; ++k) {
      const Seeds s = derive_seeds(opt.seed, k);
      os << (k == 0 ? "" : ", ") << "{\"grid\": " << s.grid << ", \"fault\": " << s.fault
         << ", \"trace\": " << s.trace << "}";
    }
    os << "], \"metrics\": {";
    bool first = true;
    for (const std::vector<Sampled>* rows : {&r.end_to_end, &r.layers}) {
      for (const Sampled& s : *rows) {
        const std::array<double, 3> q = quartiles(s.samples);
        os << (first ? "" : ", ") << '"' << s.name << "\": {\"unit\": \"" << s.unit
           << "\", \"stat\": \"" << s.stat()
           << "\", \"value\": " << sweep::format_double(s.value())
           << ", \"q1\": " << sweep::format_double(q[0]) << ", \"q3\": " << sweep::format_double(q[2]) << ", \"samples\": [";
        for (std::size_t k = 0; k < s.samples.size(); ++k) {
          os << (k == 0 ? "" : ", ") << sweep::format_double(s.samples[k]);
        }
        os << "]}";
        first = false;
      }
    }
    os << "}}";
  }
  os << "}}\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "bench_e2e: " << why
            << "\nusage: bench_e2e --workload NAME|all [--seed S] [--seconds T | --reps N]"
               " [--trace 0|1] [--smoke] [--out FILE]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used == text.size()) return v;
  } catch (const std::exception&) {
  }
  usage(flag + " expects a whole number, got '" + text + "'");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  ChildOptions child;
  bool is_child = false;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      opt.seed = parse_u64(arg, value());
    } else if (arg == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(arg, value()));
    } else if (arg == "--reps") {
      opt.reps = parse_u64(arg, value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--out") {
      opt.out_path = value();
    } else if (arg == "--child") {
      is_child = true;
      workload = value();
    } else if (arg == "--input") {
      child.input = parse_u64(arg, value());
    } else if (arg == "--traced") {
      child.traced = true;
    } else if (arg == "--result-fd") {
      child.result_fd = static_cast<int>(parse_u64(arg, value()));
    } else {
      usage("unknown argument " + arg);
    }
  }

  if (is_child) {
    child.workload = find_workload(workload);
    if (child.workload == nullptr || child.result_fd < 0) usage("bad child invocation");
    child.seed = opt.seed;
    child.smoke = opt.smoke;
    return run_child(child);
  }

  if (workload.empty() && opt.smoke) workload = "all";
  if (workload == "all") {
    for (const Workload& w : kWorkloads) opt.workloads.push_back(&w);
  } else if (const Workload* w = find_workload(workload)) {
    opt.workloads.push_back(w);
  } else {
    usage(workload.empty() ? "--workload is required" : "unknown workload " + workload);
  }
  if (opt.reps == 0) usage("--reps must be at least 1");
  if (opt.smoke) {
    // Tiny scale, same checks: input 0 twice, timed and traced.
    opt.seconds = 0.0;
    opt.reps = 2;
    opt.trace = true;
  }

  const Seeds first_input = derive_seeds(opt.seed, 0);
  std::cout << "bench_e2e: seed " << opt.seed << " (input 0: grid " << first_input.grid
            << ", fault " << first_input.fault << ", trace " << first_input.trace << "), "
            << (opt.seconds > 0.0 ? sweep::format_double(opt.seconds) + " s per workload"
                                  : std::to_string(opt.reps) + " reps per workload")
            << (opt.trace ? ", traced" : "") << (opt.smoke ? ", smoke scale" : "") << ", "
            << std::thread::hardware_concurrency() << " hardware threads\n";

  std::vector<WorkloadResult> results;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  try {
    for (const Workload* w : opt.workloads) {
      results.push_back(measure(*w, opt));
      const WorkloadResult& r = results.back();
      std::cout << r.workload->name << " (" << (opt.smoke ? w->smoke_jobs : w->jobs)
                << " jobs per simulation, " << r.attempted << " simulations of " << r.inputs
                << " inputs, " << r.failed << " failed, input 0 report digest " << r.digest
                << ")\n";
      print_table(std::cout, "end to end", r.end_to_end);
      print_table(std::cout, "per layer (traced)", r.layers);
      attempted += r.attempted;
      failed += r.failed;
    }
    if (!opt.out_path.empty()) write_out_file(opt.out_path, opt, results);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }

  // With one workload the metric names are bare, as BENCHMARK.json declares
  // them; with several they are prefixed by the workload.
  std::ostringstream line;
  line << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const WorkloadResult& r : results) {
    const std::string prefix =
        results.size() == 1 ? "" : std::string(r.workload->name) + ".";
    if (!opt.trace || opt.smoke) write_json_metrics(line, r.end_to_end, prefix, first);
    if (opt.trace) write_json_metrics(line, r.layers, prefix, first);
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return failed == 0 ? 0 : 1;
}
