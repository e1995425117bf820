// Top-level public API: assemble a whole Faucets grid — Central Server,
// AppSpector, one Faucets Daemon + Cluster Manager per Compute Server,
// one client per user — run a workload through the market, and collect
// grid-wide metrics. This is the entry point examples and the market
// benchmarks use.
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/server.hpp"
#include "src/faucets/appspector.hpp"
#include "src/obs/analyzer.hpp"
#include "src/faucets/broker.hpp"
#include "src/faucets/central.hpp"
#include "src/faucets/client.hpp"
#include "src/faucets/daemon.hpp"
#include "src/job/source.hpp"
#include "src/job/workload.hpp"
#include "src/market/bidgen.hpp"
#include "src/market/evaluation.hpp"
#include "src/obs/live/plane.hpp"
#include "src/obs/sampler.hpp"
#include "src/sim/context.hpp"
#include "src/sim/network.hpp"
#include "src/store/store.hpp"

namespace faucets::obs {
class Profiler;
}  // namespace faucets::obs

namespace faucets::core {

using StrategyFactory = std::function<std::unique_ptr<sched::Strategy>()>;
using BidGeneratorFactory = std::function<std::unique_ptr<market::BidGenerator>()>;
using EvaluatorFactory = std::function<std::unique_ptr<market::BidEvaluator>()>;

/// One Compute Server to stand up.
struct ClusterSetup {
  cluster::MachineSpec machine;
  StrategyFactory strategy;
  BidGeneratorFactory bid_generator;
  job::AdaptiveCosts costs{};
  double barter_credits = 0.0;  // opening balance in barter mode
};

/// Take one Compute Server down at `at`. A hard crash drops every running
/// job and message silently (clients recover via watchdog + re-bid); a
/// graceful shutdown checkpoints and migrates first (§3). With `restart_at`
/// the daemon comes back under the same network address and re-registers.
struct CrashSchedule {
  std::size_t cluster = 0;
  double at = 0.0;
  std::optional<double> restart_at;
  bool graceful = false;
};

/// Isolate one Compute Server's daemon from the rest of the grid during
/// [from, until): every message to or from it is dropped as kPartitioned.
struct ClusterPartition {
  std::size_t cluster = 0;
  double from = 0.0;
  double until = 0.0;
};

/// Opt-in host-time profiling (DESIGN.md §12): the run's wall clock and
/// per-event self time by message kind and entity class. The run only
/// records; callers export GridSystem::profiler() after run(). Profiling
/// touches no simulation state, so report JSON / trace JSONL stay
/// byte-identical with it on or off.
struct ProfileConfig {
  bool enabled = false;
};

/// Durable persistence of the Central Server's accounting state
/// (DESIGN.md §14). With a directory set, the grid opens a DurableStore
/// there, takes the generation-1 snapshot of the empty image before any
/// state mutates, journals every ledger / account / user / price mutation
/// through the WAL, and snapshots again at the end of a clean run. After a
/// crash, store::recover_central_state() rebuilds the exact state.
struct StoreConfig {
  std::string dir;  // empty = no durability (in-memory only)
  store::SyncPolicy sync = store::SyncPolicy::kBatch;
  std::size_t sync_every = 64;  // group-commit batch (kBatch only)
  /// Roll the WAL into a fresh snapshot after this many settled contracts;
  /// 0 keeps only the initial and end-of-run snapshots.
  std::uint64_t snapshot_every = 0;
};

/// Periodic time-series sampling of grid signals (DESIGN.md §10.1).
struct TelemetryConfig {
  /// Seconds between sampler snapshots; 0 disables sampling entirely: no
  /// series is built and the run loop's check never fires.
  double sample_interval = 0.0;
  /// Point budget per series; buffers downsample past it (see
  /// src/obs/sampler.hpp).
  std::size_t series_capacity = 512;
};

struct GridConfig {
  CentralServerConfig central{};
  sim::NetworkConfig network{};
  DaemonConfig daemon{};
  EvaluatorFactory evaluator;       // defaults to least-cost
  bool clients_prefer_home = false; // §5.5.3 home-cluster-first submission
  double user_initial_funds = 1e6;
  /// Client babysitting watchdog margin (seconds past the promised
  /// completion before a silent job is restarted). Disengaged = no
  /// watchdog. (The old `< 0` sentinel is gone; see DESIGN.md §8.)
  std::optional<double> client_watchdog_margin;
  /// Brokered submission (§5.3): clients hand each job to a broker agent
  /// colocated with the Central Server instead of broadcasting
  /// request-for-bids themselves. `criteria` is the user-specific
  /// selection rule the agent applies.
  bool brokered_submission = false;
  proto::SelectionCriteria broker_criteria = proto::SelectionCriteria::kLeastCost;
  /// Deterministic fault injection (message loss, delay jitter, entity
  /// partitions keyed by EntityId). Cluster-indexed partitions and crashes
  /// go in `partitions` / `crashes` below; they are resolved to daemon
  /// entities once the grid is built.
  sim::FaultConfig faults{};
  std::vector<ClusterPartition> partitions;
  std::vector<CrashSchedule> crashes;
  /// Backoff schedule shared by clients, daemons, and the broker for every
  /// retried exchange (login, directory, registration, reserve/commit).
  RetryPolicy retry{};
  /// Periodic telemetry sampling; off by default.
  TelemetryConfig telemetry{};
  /// Host-time profiling; off by default.
  ProfileConfig profile{};
  /// Durable persistence; off by default (empty dir).
  StoreConfig store{};
  /// Live operations plane (DESIGN.md §15): embedded HTTP monitoring,
  /// online monitors over the audit, stderr progress ticker. Off by
  /// default; artifacts stay byte-identical with it on or off.
  obs::live::LiveConfig live{};
};

/// Per-cluster results after a run.
struct ClusterReport {
  std::string name;
  ClusterId id;
  double utilization = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double revenue = 0.0;
  double payoff_earned = 0.0;
  std::uint64_t bids_issued = 0;
  std::uint64_t bids_declined = 0;
  std::uint64_t awards_confirmed = 0;
  std::uint64_t awards_refused = 0;
  double barter_balance = 0.0;
};

/// Grid-wide accounting summary: the credit-conservation invariant the CI
/// asserts (§5.5.3 — transfers move credits, they never mint them).
struct LedgerReport {
  bool barter = false;            // billing mode was kBarter
  double opening_credits = 0.0;   // ledger total right after construction
  double total_credits = 0.0;     // ledger total now
  /// total - opening; conservation keeps it within float rounding of the
  /// transferred volume (each paired -= / += rounds once per side), which
  /// the audit bounds by obs::live::Audit::kLedgerResidualMax.
  double conservation_residual = 0.0;
  std::uint64_t transfers = 0;    // settled cross-cluster barter moves
  double total_charged = 0.0;     // dollars/SU billed in pay-per-use modes
};

struct GridReport {
  std::vector<ClusterReport> clusters;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_unplaced = 0;
  double total_spent = 0.0;
  double total_client_payoff = 0.0;
  double mean_award_latency = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t network_bytes = 0;
  /// Per-kind traffic, indexed by sim::MessageKind (see sent_of/delivered_of).
  std::array<std::uint64_t, sim::kMessageKindCount> messages_sent_by_kind{};
  std::array<std::uint64_t, sim::kMessageKindCount> messages_delivered_by_kind{};
  std::uint64_t migrations = 0;         // checkpoint moves between servers
  std::uint64_t watchdog_restarts = 0;  // from-scratch restarts after crashes
  double makespan = 0.0;
  /// Mean seconds each submission spent in every exclusive latency phase
  /// (indexed by obs::Phase); all zero when no submission closed.
  std::array<double, obs::kPhaseCount> phase_mean_seconds{};
  /// Per-cluster balances live in `clusters`; this is the grid-wide view.
  LedgerReport ledger{};

  [[nodiscard]] double grid_utilization_weighted() const;
  [[nodiscard]] std::uint64_t sent_of(sim::MessageKind kind) const noexcept {
    return messages_sent_by_kind[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t delivered_of(sim::MessageKind kind) const noexcept {
    return messages_delivered_by_kind[static_cast<std::size_t>(kind)];
  }
};

/// Everything the span analyzer derived from one run: per-job phase
/// decompositions plus deadline-outcome accounting per user and per cluster.
struct GridTelemetry {
  obs::SpanAnalysis analysis;
  std::vector<obs::DeadlineRow> users;     // one row per user, index order
  std::vector<obs::DeadlineRow> clusters;  // one row per cluster, index order
};

/// Owns every entity of one simulated grid.
class GridSystem {
 public:
  /// Validates the grid first: at least one cluster and one user, no
  /// zero-processor machine, non-null strategy and bid generator factories,
  /// crash and partition indices in range. Throws std::invalid_argument
  /// with a precise message instead of failing deep inside construction.
  GridSystem(GridConfig config, std::vector<ClusterSetup> clusters,
             std::size_t user_count);
  ~GridSystem();
  GridSystem(const GridSystem&) = delete;
  GridSystem& operator=(const GridSystem&) = delete;

  /// Stream `source` through the grid (DESIGN.md §13): a WorkloadDemux
  /// routes each request to its user's client lane, every client re-arms a
  /// single submission timer off its lane, and the discrete event
  /// simulation runs until quiescent (or `until`). Memory is bounded by
  /// the demux's read-ahead, not the workload length. This is the one way
  /// jobs enter the system.
  GridReport run(job::WorkloadSource& source,
                 double until = sim::Engine::kForever);

  /// Preload compatibility adapter: wraps the vector in a VectorSource.
  GridReport run(std::vector<job::JobRequest> requests,
                 double until = sim::Engine::kForever);

  /// Streaming buffer high-water mark of the last run's demux (the
  /// read-ahead memory bound BENCH_replay reports).
  [[nodiscard]] std::size_t workload_high_water() const noexcept {
    return workload_high_water_;
  }

  [[nodiscard]] sim::SimContext& context() noexcept { return ctx_; }
  // One-line views kept for callers written against the removed sharded
  // executor: there is one context, and it is shard 0.
  [[nodiscard]] sim::SimContext& shard_context(std::size_t) noexcept { return ctx_; }
  [[nodiscard]] const sim::SimContext& shard_context(std::size_t) const noexcept {
    return ctx_;
  }
  [[nodiscard]] static constexpr std::size_t shard_count() noexcept { return 1; }
  [[nodiscard]] sim::Engine& engine() noexcept { return ctx_.engine(); }
  [[nodiscard]] sim::Network& network() noexcept { return ctx_.network(); }
  [[nodiscard]] sim::TraceSink& trace() noexcept { return ctx_.trace(); }
  [[nodiscard]] obs::Observability& obs() noexcept { return ctx_.obs(); }
  [[nodiscard]] const obs::Observability& obs() const noexcept { return ctx_.obs(); }
  [[nodiscard]] CentralServer& central() noexcept { return *central_; }
  [[nodiscard]] AppSpector& appspector() noexcept { return *appspector_; }
  [[nodiscard]] BrokerAgent* broker() noexcept { return broker_.get(); }
  [[nodiscard]] FaucetsDaemon& daemon(std::size_t i) { return *daemons_.at(i); }
  [[nodiscard]] FaucetsClient& client(std::size_t i) { return *clients_.at(i); }
  [[nodiscard]] std::size_t cluster_count() const noexcept { return daemons_.size(); }
  [[nodiscard]] std::size_t client_count() const noexcept { return clients_.size(); }

  /// Take cluster `i` down gracefully at simulated time `when`: running
  /// jobs checkpoint and migrate (§3). Pass `graceful = false` for a crash
  /// with no eviction notices (clients need the watchdog to recover).
  void schedule_cluster_shutdown(std::size_t i, double when, bool graceful = true);

  /// Bring a crashed cluster `i` back at `when`: the daemon reattaches
  /// under its old network address and re-registers with the Central
  /// Server (with retry, in case the registration races a partition).
  void schedule_cluster_restart(std::size_t i, double when);

  /// Build the report from current state (run() calls this at the end).
  [[nodiscard]] GridReport report() const;

  /// The last run's end-of-run audit (DESIGN.md §16). run() never throws
  /// on a failed one: check ok() and name first_failure().
  [[nodiscard]] const obs::live::Audit& audit() const noexcept { return audit_; }

  /// The durable store backing the Central Server, when GridConfig::store
  /// names a directory; null otherwise.
  [[nodiscard]] store::StateStore* store() noexcept { return store_.get(); }

  /// Fire `hook` once, the first time simulated time reaches `at` during the
  /// next run() — at an event boundary, before the first event at or past
  /// `at` executes. Return true to continue the run; false
  /// abandons it (run() returns promptly with partial state — the path a
  /// restore takes when its replay fails verification).
  ///
  /// While the hook runs, the live plane's stall watchdog is held: a
  /// checkpoint capture longer than stall_timeout is a deliberate pause,
  /// not a wedged run, and a stall kAlert would land in the trace ring and
  /// break artifact parity with an unpaused run. Chaos fixtures that use
  /// the hook to *simulate* a wedged simulation pass
  /// `hold_watchdog = false` to leave the watchdog armed.
  void set_pause_hook(double at, std::function<bool()> hook,
                      bool hold_watchdog = true) {
    pause_at_ = at;
    pause_hook_ = std::move(hook);
    pause_holds_watchdog_ = hold_watchdog;
  }

  // Observability views for exporters: the run's registry and span tracker,
  // and a time-ordered copy of the trace ring's surviving events.
  [[nodiscard]] const obs::MetricsRegistry& merged_metrics() const {
    return ctx_.metrics();
  }
  [[nodiscard]] const obs::SpanTracker& merged_spans() const { return ctx_.spans(); }
  [[nodiscard]] obs::TraceView merged_trace() const {
    return obs::TraceView(ctx_.trace());
  }

  /// Analyze the span trees and join them with the clients' submission
  /// outcomes. Callable any time; run() caches the end-of-run analysis so a
  /// post-run call costs one join, not a re-walk.
  [[nodiscard]] GridTelemetry telemetry() const;

  /// The time-series sampler. It holds the grid's series only when
  /// GridConfig::telemetry.sample_interval > 0; otherwise it is empty.
  [[nodiscard]] const obs::Sampler& sampler() const noexcept { return sampler_; }

  /// The host-time profiler, when GridConfig::profile.enabled; null
  /// otherwise. Its wall clock is valid after run().
  [[nodiscard]] const obs::Profiler* profiler() const noexcept {
    return profiler_.get();
  }

  /// The live operations plane, when GridConfig::live is enabled; null
  /// otherwise. live()->port() is the bound monitoring port.
  [[nodiscard]] obs::live::LivePlane* live() noexcept { return live_.get(); }
  [[nodiscard]] const obs::live::LivePlane* live() const noexcept {
    return live_.get();
  }

 private:
  void maybe_sample();
  /// Fire the pause hook if due; false = the hook abandoned the run.
  bool maybe_pause(double now);
  /// The one definition of the grid's invariants, at `now`: allocation-free
  /// and O(clusters + held leases), so the live plane calls it per publish.
  [[nodiscard]] obs::live::Audit measure_audit(double now, bool drained) const;
  [[nodiscard]] const obs::SpanAnalysis& analysis() const;
  // Each optional observer is bound in its own setup function, and only
  // when it is on.
  void setup_sampler();
  void setup_profiler();
  void setup_live_plane();

  GridConfig config_;
  sim::SimContext ctx_;
  std::unique_ptr<store::StateStore> store_;  // null = no durability
  std::unique_ptr<CentralServer> central_;
  std::unique_ptr<AppSpector> appspector_;
  std::unique_ptr<BrokerAgent> broker_;
  std::vector<std::unique_ptr<FaucetsDaemon>> daemons_;
  std::vector<std::unique_ptr<FaucetsClient>> clients_;
  // Live only inside run(): the demux feeding the clients' lanes.
  job::WorkloadDemux* demux_ = nullptr;
  std::size_t workload_high_water_ = 0;
  double opening_credits_ = 0.0;  // ledger total right after construction
  // The grid-wide job counters the clients register, resolved once.
  const obs::Counter* submitted_ = nullptr;
  const obs::Counter* completed_ = nullptr;
  const obs::Counter* unplaced_ = nullptr;
  obs::live::Audit audit_;  // the last run's end-of-run audit
  // One-shot pause hook (checkpoint and restore); +inf = unarmed.
  double pause_at_ = std::numeric_limits<double>::infinity();
  std::function<bool()> pause_hook_;
  bool pause_holds_watchdog_ = true;  // see set_pause_hook
  bool pause_fired_ = false;
  bool abandoned_ = false;  // the hook told run() to bail out
  // Time-series sampler (empty unless config_.telemetry.sample_interval > 0)
  // and the sim-time of its next snapshot; +inf when sampling is disabled
  // so the run loop's check is one always-false branch. See maybe_sample().
  obs::Sampler sampler_;
  double next_sample_due_ = std::numeric_limits<double>::infinity();
  mutable std::optional<obs::SpanAnalysis> analysis_;  // cached by run()
  // Host-time profiler (null unless config_.profile.enabled): its own
  // accumulators, never the simulation's registry.
  std::unique_ptr<obs::Profiler> profiler_;
  // Live operations plane (null unless config_.live is enabled): HTTP
  // monitoring + online monitors over published snapshots.
  std::unique_ptr<obs::live::LivePlane> live_;
};

/// Fluent construction of a GridSystem. Replaces hand-assembled
/// GridConfig / ClusterSetup aggregates in examples and tests:
///
///   auto grid = GridBuilder()
///                   .central({.poll_interval = 30.0})
///                   .cluster(spec, fifo_factory, bidgen_factory)
///                   .users(8)
///                   .watchdog(60.0)
///                   .loss(0.10)
///                   .crash(0, 120.0, /*restart_at=*/300.0)
///                   .build();
///
/// build() constructs the grid through the positional
/// GridSystem(GridConfig, clusters, users) constructor, which validates
/// every grid, however it is assembled (scenarios and benchmarks call it
/// directly).
class GridBuilder {
 public:
  GridBuilder& central(CentralServerConfig config) {
    config_.central = std::move(config);
    return *this;
  }
  GridBuilder& network(sim::NetworkConfig config) {
    config_.network = config;
    return *this;
  }
  GridBuilder& daemon(DaemonConfig config) {
    config_.daemon = config;
    return *this;
  }
  GridBuilder& evaluator(EvaluatorFactory factory) {
    config_.evaluator = std::move(factory);
    return *this;
  }
  GridBuilder& users(std::size_t count) {
    users_ = count;
    return *this;
  }
  GridBuilder& user_funds(double funds) {
    config_.user_initial_funds = funds;
    return *this;
  }
  /// Engage the babysitting watchdog with the given margin in seconds.
  GridBuilder& watchdog(double margin) {
    config_.client_watchdog_margin = margin;
    return *this;
  }
  GridBuilder& prefer_home(bool on = true) {
    config_.clients_prefer_home = on;
    return *this;
  }
  GridBuilder& brokered(
      proto::SelectionCriteria criteria = proto::SelectionCriteria::kLeastCost) {
    config_.brokered_submission = true;
    config_.broker_criteria = criteria;
    return *this;
  }
  GridBuilder& retry(RetryPolicy policy) {
    config_.retry = policy;
    return *this;
  }
  /// Snapshot registered telemetry signals every `interval` sim-seconds into
  /// fixed-capacity downsampling buffers (the HTML report's time series).
  GridBuilder& sampling(double interval, std::size_t capacity = 512) {
    config_.telemetry.sample_interval = interval;
    config_.telemetry.series_capacity = capacity;
    return *this;
  }
  /// Replace the whole fault configuration at once.
  GridBuilder& faults(sim::FaultConfig faults) {
    config_.faults = std::move(faults);
    return *this;
  }
  /// Drop each message independently with this probability.
  GridBuilder& loss(double rate) {
    config_.faults.loss_rate = rate;
    return *this;
  }
  /// Add up to this many seconds of uniform random extra delay per message.
  GridBuilder& jitter(double seconds) {
    config_.faults.jitter = seconds;
    return *this;
  }
  GridBuilder& fault_seed(std::uint64_t seed) {
    config_.faults.seed = seed;
    return *this;
  }
  /// Hard-crash cluster `index` at `at`; optionally restart it later.
  GridBuilder& crash(std::size_t index, double at,
                     std::optional<double> restart_at = std::nullopt) {
    config_.crashes.push_back({index, at, restart_at, /*graceful=*/false});
    return *this;
  }
  /// Gracefully drain cluster `index` at `at` (checkpoint + migrate, §3).
  GridBuilder& drain(std::size_t index, double at) {
    config_.crashes.push_back({index, at, std::nullopt, /*graceful=*/true});
    return *this;
  }
  /// Isolate cluster `index`'s daemon from the network during [from, until).
  GridBuilder& partition(std::size_t index, double from, double until) {
    config_.partitions.push_back({index, from, until});
    return *this;
  }
  /// Enable host-time profiling (DESIGN.md §12); read it back through
  /// GridSystem::profiler() after run().
  GridBuilder& profile(bool on = true) {
    config_.profile.enabled = on;
    return *this;
  }
  /// Serve the live monitoring endpoints (/metrics /healthz /progress
  /// /traces/recent) on 127.0.0.1:`port` during run(); 0 picks an ephemeral
  /// port (read it back via GridSystem::live()->port()).
  GridBuilder& serve(std::uint16_t port = 0) {
    config_.live.serve = true;
    config_.live.port = port;
    return *this;
  }
  /// Single-line stderr progress/ETA ticker during run().
  GridBuilder& progress(bool on = true) {
    config_.live.progress = on;
    return *this;
  }
  /// Replace the whole live-plane configuration (stall timeout, publish
  /// pacing, recent-trace depth).
  GridBuilder& live(obs::live::LiveConfig config) {
    config_.live = std::move(config);
    return *this;
  }
  GridBuilder& cluster(ClusterSetup setup) {
    clusters_.push_back(std::move(setup));
    return *this;
  }
  GridBuilder& cluster(cluster::MachineSpec machine, StrategyFactory strategy,
                       BidGeneratorFactory bid_generator,
                       job::AdaptiveCosts costs = {},
                       double barter_credits = 0.0) {
    clusters_.push_back({std::move(machine), std::move(strategy),
                         std::move(bid_generator), costs, barter_credits});
    return *this;
  }

  /// Assemble. Throws std::invalid_argument on a bad grid.
  [[nodiscard]] std::unique_ptr<GridSystem> build();

 private:
  GridConfig config_;
  std::vector<ClusterSetup> clusters_;
  std::size_t users_ = 1;
};

}  // namespace faucets::core
