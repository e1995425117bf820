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
  /// request-for-bids themselves. The agent selects with each client's
  /// `evaluator`.
  bool brokered_submission = false;
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
  [[nodiscard]] obs::TraceBuffer& trace() noexcept { return ctx_.trace(); }
  [[nodiscard]] CentralServer& central() noexcept { return *central_; }
  [[nodiscard]] AppSpector& appspector() noexcept { return *appspector_; }
  [[nodiscard]] BrokerAgent* broker() noexcept { return broker_.get(); }
  [[nodiscard]] FaucetsDaemon& daemon(std::size_t i) { return *daemons_.at(i); }
  [[nodiscard]] FaucetsClient& client(std::size_t i) { return *clients_.at(i); }
  [[nodiscard]] std::size_t cluster_count() const noexcept { return daemons_.size(); }
  [[nodiscard]] std::size_t client_count() const noexcept { return clients_.size(); }

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
  /// not a wedged run.
  void set_pause_hook(double at, std::function<bool()> hook) {
    pause_at_ = at;
    pause_hook_ = std::move(hook);
  }

  // Observability views for exporters: the run's registry, span tracker and
  // trace ring, which is time-ordered as recorded.
  [[nodiscard]] const obs::MetricsRegistry& merged_metrics() const {
    return ctx_.metrics();
  }
  [[nodiscard]] const obs::SpanTracker& merged_spans() const { return ctx_.spans(); }
  [[nodiscard]] const obs::TraceBuffer& merged_trace() const { return ctx_.trace(); }

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
  // The sampler and the profiler are each bound in their own setup
  // function, and only when they are on.
  void setup_sampler();
  void setup_profiler();

  GridConfig config_;
  sim::SimContext ctx_;
  std::unique_ptr<store::StateStore> store_;  // null = no durability
  std::unique_ptr<CentralServer> central_;
  std::unique_ptr<AppSpector> appspector_;
  std::unique_ptr<BrokerAgent> broker_;
  std::vector<std::unique_ptr<FaucetsDaemon>> daemons_;
  std::vector<std::unique_ptr<FaucetsClient>> clients_;
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
  // monitoring + online monitors over the snapshots run() publishes.
  std::unique_ptr<obs::live::LivePlane> live_;
};

}  // namespace faucets::core
