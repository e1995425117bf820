#include "src/core/grid_system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/obs/profiler.hpp"

namespace faucets::core {

double GridReport::grid_utilization_weighted() const {
  // Weight by completed work share is unavailable here; weight by cluster
  // count-free utilization is misleading, so weight by nothing: callers get
  // the simple mean across clusters (clusters in one experiment share a
  // size unless stated otherwise).
  if (clusters.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& c : clusters) sum += c.utilization;
  return sum / static_cast<double>(clusters.size());
}

namespace {

/// Every way a grid can be assembled goes through the GridSystem
/// constructor, so it checks here, before any entity exists.
void validate_grid(const GridConfig& config,
                   const std::vector<ClusterSetup>& clusters,
                   std::size_t user_count) {
  if (clusters.empty()) {
    throw std::invalid_argument("grid: at least one cluster is required");
  }
  if (user_count == 0) {
    throw std::invalid_argument("grid: at least one user is required");
  }
  // Per-cluster instruments are keyed by name, so two clusters sharing one
  // would sum into, and overwrite, each other's.
  std::unordered_map<std::string_view, std::size_t> index_of_name;
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const ClusterSetup& setup = clusters[i];
    const auto [first, fresh] = index_of_name.emplace(setup.machine.name, i);
    if (!fresh) {
      throw std::invalid_argument(
          "grid: clusters " + std::to_string(first->second) + " and " +
          std::to_string(i) + " share the name \"" + setup.machine.name + "\"");
    }
    const std::string where = "grid: cluster " + std::to_string(i);
    if (setup.machine.total_procs <= 0) {
      throw std::invalid_argument(where + " (" + setup.machine.name +
                                  ") has no processors");
    }
    if (!setup.strategy) {
      throw std::invalid_argument(where + " is missing a strategy factory");
    }
    if (!setup.bid_generator) {
      throw std::invalid_argument(where + " is missing a bid generator factory");
    }
  }
  // A zero or negative first timeout times every exchange out at once; a
  // NaN one would arm timers at no valid time.
  if (!(std::isfinite(config.retry.base_timeout) && config.retry.base_timeout > 0.0)) {
    throw std::invalid_argument(
        "grid: retry.base_timeout ([faults] retry_base) must be finite and > 0, got " +
        std::to_string(config.retry.base_timeout));
  }
  // The injector's `> 0` checks read a NaN rate as "off", and a loss above 1
  // drops every message.
  const sim::FaultConfig& faults = config.faults;
  if (!(faults.loss_rate >= 0.0 && faults.loss_rate <= 1.0)) {
    throw std::invalid_argument(
        "grid: faults.loss_rate ([faults] loss) must be in [0, 1], got " +
        std::to_string(faults.loss_rate));
  }
  if (!(std::isfinite(faults.jitter) && faults.jitter >= 0.0)) {
    throw std::invalid_argument(
        "grid: faults.jitter ([faults] jitter) must be finite and >= 0, got " +
        std::to_string(faults.jitter));
  }
  for (const auto& c : config.crashes) {
    if (c.cluster >= clusters.size()) {
      throw std::invalid_argument(
          "grid: crash schedule ([faults] crash_cluster) names cluster " +
          std::to_string(c.cluster) + " but only " +
          std::to_string(clusters.size()) + " exist");
    }
    if (!std::isfinite(c.at) || (c.restart_at && !std::isfinite(*c.restart_at))) {
      throw std::invalid_argument(
          "grid: crash of cluster " + std::to_string(c.cluster) +
          " needs finite at/restart_at ([faults] crash_at, crash_restart)");
    }
  }
  for (const auto& p : config.partitions) {
    if (p.cluster >= clusters.size()) {
      throw std::invalid_argument(
          "grid: partition ([faults] partition_cluster) names cluster " +
          std::to_string(p.cluster) + " but only " +
          std::to_string(clusters.size()) + " exist");
    }
    if (!std::isfinite(p.from) || !std::isfinite(p.until)) {
      throw std::invalid_argument(
          "grid: partition of cluster " + std::to_string(p.cluster) +
          " needs finite from/until ([faults] partition_from, partition_until)");
    }
  }
}

}  // namespace

GridSystem::GridSystem(GridConfig config, std::vector<ClusterSetup> clusters,
                       std::size_t user_count)
    : config_(std::move(config)) {
  validate_grid(config_, clusters, user_count);

  central_ = std::make_unique<CentralServer>(ctx_, config_.central);
  if (!config_.store.dir.empty()) {
    store_ = std::make_unique<store::DurableStore>(
        config_.store.dir,
        store::DurableOptions{config_.store.sync, config_.store.sync_every});
    // Generation 1 is the empty image, taken before any state exists: every
    // registration and account opening below lands in the WAL, so recovery
    // is always "empty snapshot + full op history" or a later roll-up of it.
    store_->snapshot("");
    central_->attach_store(store_.get(), config_.store.snapshot_every);
  }
  appspector_ = std::make_unique<AppSpector>(ctx_);
  if (config_.brokered_submission) {
    broker_ = std::make_unique<BrokerAgent>(ctx_, central_->id(), config_.retry);
  }

  // Stand up one daemon + cluster manager per Compute Server.
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    ClusterSetup& setup = clusters[i];
    const ClusterId cluster_id{i};
    auto cm = std::make_unique<cluster::ClusterManager>(
        ctx_, setup.machine, setup.strategy(), setup.costs, cluster_id);
    auto daemon = std::make_unique<FaucetsDaemon>(
        ctx_, cluster_id, std::move(cm), setup.bid_generator(),
        central_->id(), appspector_->id(), config_.daemon, config_.retry);
    daemon->set_grid_history(&central_->price_history());
    daemon->register_with_central();
    if (config_.central.billing == BillingMode::kBarter) {
      central_->open_barter_account(cluster_id, setup.barter_credits);
    }
    daemons_.push_back(std::move(daemon));
  }

  // Fault plan: cluster-indexed partitions resolve to daemon entities now
  // that the daemons exist; crashes (and restarts) become scheduled events.
  sim::FaultConfig faults = config_.faults;
  for (const auto& p : config_.partitions) {
    faults.partitions.push_back(
        {daemons_.at(p.cluster)->id(), p.from, p.until});
  }
  const bool chaos = faults.any() || !config_.crashes.empty();
  ctx_.network().set_faults(faults);
  for (const auto& c : config_.crashes) {
    FaucetsDaemon* daemon = daemons_.at(c.cluster).get();
    ctx_.engine().schedule_at(c.at, [daemon, graceful = c.graceful] {
      if (graceful) {
        daemon->drain_and_shutdown();
      } else {
        daemon->crash();
      }
    });
    if (c.restart_at) {
      ctx_.engine().schedule_at(*c.restart_at, [daemon] { daemon->restart(); });
    }
  }

  // One client per user, each with an account at the Central Server. Users
  // get round-robin home clusters.
  for (std::size_t u = 0; u < user_count; ++u) {
    const std::string username = "user" + std::to_string(u);
    const std::string password = "pw-" + std::to_string(u * 7919 + 13);
    const ClusterId home{u % daemons_.size()};
    const auto uid = central_->register_user(username, password, home);
    if (!uid) throw std::logic_error("duplicate user " + username);
    central_->user_accounts().deposit(*uid, config_.user_initial_funds);

    ClientConfig cc;
    cc.username = username;
    cc.password = password;
    cc.watchdog_margin = config_.client_watchdog_margin;
    cc.retry = config_.retry;
    // Under chaos a lost bid round must not strand the job: give clients a
    // full backoff schedule of fresh RFB rounds. Fault-free grids keep the
    // paper's one-shot market.
    cc.bid_rounds = chaos ? config_.retry.max_attempts : 1;
    if (config_.clients_prefer_home) cc.home_cluster = home;
    if (broker_) cc.broker = broker_->id();
    auto evaluator = config_.evaluator
                         ? config_.evaluator()
                         : std::make_unique<market::LeastCostEvaluator>();
    clients_.push_back(std::make_unique<FaucetsClient>(
        ctx_, central_->id(), std::move(evaluator), std::move(cc)));
  }

  // Conservation baseline: every account is open and no transfer has run
  // yet, so this is the sum of the clusters' opening contributions.
  opening_credits_ = std::as_const(*central_).barter_ledger().total_credits();
  submitted_ = ctx_.metrics().find_counter("faucets_grid_jobs_submitted_total");
  completed_ = ctx_.metrics().find_counter("faucets_grid_jobs_completed_total");
  unplaced_ = ctx_.metrics().find_counter("faucets_grid_jobs_unplaced_total");
  setup_sampler();
  setup_profiler();
  if (config_.live.enabled()) {
    live_ = std::make_unique<obs::live::LivePlane>(config_.live, ctx_.metrics(),
                                                   ctx_.trace());
  }
}

void GridSystem::setup_sampler() {
  const TelemetryConfig& tel = config_.telemetry;
  if (tel.sample_interval <= 0.0) return;
  next_sample_due_ = tel.sample_interval;
  const auto add = [this, capacity = tel.series_capacity](
                       std::string name, obs::Series::Probe probe,
                       const char* unit) {
    sampler_.add_series(std::move(name), std::move(probe), unit, capacity);
  };
  const market::PriceHistory* history = &central_->price_history();
  add("faucets_grid_unit_price", [history] { return history->last_unit_price(); },
      "dollars/proc-second");
  // Clients and daemons register these grid-wide instruments; a valid grid
  // has at least one of each, so none is null.
  const obs::MetricsRegistry& m = ctx_.metrics();
  const obs::Gauge* revenue = m.find_gauge("faucets_market_revenue_total");
  const obs::Gauge* inflight = m.find_gauge("faucets_market_inflight_requests");
  const obs::Counter* retries = m.find_counter("faucets_retry_attempts_total");
  for (std::size_t i = 0; i < daemons_.size(); ++i) {
    const FaucetsDaemon* d = daemons_[i].get();
    const std::string label = "{cluster=\"" + d->cm().machine().name + "\"}";
    add("faucets_cluster_utilization" + label,
        [d] {
          return static_cast<double>(d->cm().metrics().current_busy()) /
                 static_cast<double>(d->cm().machine().total_procs);
        },
        "fraction");
    add("faucets_cluster_queue_depth" + label,
        [d] { return static_cast<double>(d->cm().queued_count()); }, "jobs");
    add("faucets_cluster_reservations" + label,
        [d] { return static_cast<double>(d->cm().active_reservations()); },
        "leases");
    // Grid-wide revenue charts the rate the end-of-run gauge cannot show.
    if (i == 0) {
      add("faucets_market_revenue_total", [revenue] { return revenue->value(); },
          "dollars");
    }
    add("faucets_revenue" + label, [d] { return d->revenue(); }, "dollars");
  }
  add("faucets_market_inflight_requests", [inflight] { return inflight->value(); },
      "requests");
  add("faucets_retry_attempts_total",
      [retries] { return static_cast<double>(retries->value()); }, "retries");
}

void GridSystem::setup_profiler() {
  if (!config_.profile.enabled) return;
  profiler_ = std::make_unique<obs::Profiler>();
  profiler_->set_kind_name(0, "timer");
  for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
    profiler_->set_kind_name(
        1 + k,
        std::string(sim::to_string(static_cast<sim::MessageKind>(k))));
  }
  // Tag every entity with its coarse category so the profiler can attribute
  // per-event self time by entity type.
  const auto tag = [](sim::Entity& e, obs::ProfClass c) {
    e.set_profile_class(static_cast<std::uint8_t>(c));
  };
  tag(*central_, obs::ProfClass::kCentral);
  tag(*appspector_, obs::ProfClass::kAppSpector);
  if (broker_) tag(*broker_, obs::ProfClass::kBroker);
  for (auto& d : daemons_) tag(*d, obs::ProfClass::kDaemon);
  for (auto& c : clients_) tag(*c, obs::ProfClass::kClient);
  ctx_.engine().set_profiler(&profiler_->lane());
  ctx_.network().set_profiler(&profiler_->lane());
}

obs::live::Audit GridSystem::measure_audit(double now, bool drained) const {
  obs::live::Audit a;
  a.submitted = submitted_->value();
  a.completed = completed_->value();
  a.unplaced = unplaced_->value();
  a.ledger_residual =
      std::as_const(*central_).barter_ledger().total_credits() - opening_credits_;
  for (const auto& d : daemons_) {
    a.held_leases += d->cm().active_reservations();
    a.overdue_leases +=
        d->cm().leaked_reservations(now, obs::live::Audit::kLeaseGrace);
  }
  a.open_submissions = ctx_.spans().open_submissions();
  a.open_spans = ctx_.spans().open_spans();
  a.drained = drained;
  return a;
}

void GridSystem::maybe_sample() {
  // Sampling piggybacks on event dispatch instead of arming its own timer:
  // in a discrete-event simulation state only changes at events, so the
  // snapshot taken at the first event past the due tick sees exactly what a
  // timer firing at the tick would have seen — and the sampler adds zero
  // events to the engine (it cannot perturb schedules or pay heap churn).
  if (ctx_.now() < next_sample_due_) return;
  sampler_.sample(ctx_.now());
  next_sample_due_ = ctx_.now() + config_.telemetry.sample_interval;
}

bool GridSystem::maybe_pause(double now) {
  // One-shot: at most one pause per run, at the first event boundary with
  // time >= pause_at_. The run loop passes the next event's timestamp
  // BEFORE stepping it, so nothing at or past the boundary has executed
  // when the hook runs.
  if (!pause_hook_ || pause_fired_ || now < pause_at_) return true;
  pause_fired_ = true;
  // Hold the live plane's stall watchdog: a checkpoint capture can exceed
  // stall_timeout without the run being wedged.
  if (live_ != nullptr) live_->begin_pause();
  const bool resumed = pause_hook_();
  if (live_ != nullptr) live_->end_pause();
  if (resumed) return true;
  abandoned_ = true;
  return false;
}

GridSystem::~GridSystem() = default;

GridReport GridSystem::run(std::vector<job::JobRequest> requests, double until) {
  job::VectorSource source(std::move(requests));
  return run(source, until);
}

GridReport GridSystem::run(job::WorkloadSource& source, double until) {
  pause_fired_ = false;
  abandoned_ = false;
  // Route the shared stream across the per-user clients.
  job::WorkloadDemux demux(source, clients_.size());
  demux.prime();
  for (std::size_t u = 0; u < clients_.size(); ++u) {
    // Each client schedules its first submission timer at now = 0, exactly
    // as the old preload did, so event order is source-independent.
    clients_[u]->run_source(demux.lane(u));
  }

  // Run until every submission has reached a terminal state. The engine's
  // queue never drains on its own: the Central Server's poll timer and the
  // daemons' monitor timers re-arm forever, exactly like the real system's
  // daemons. A drained, idle client stays done: only its submission timer
  // and its pre-login queue feed submit(), and both are empty by then. So
  // the check resumes from the first client not yet done instead of
  // rescanning the finished ones.
  std::size_t first_busy = 0;
  auto all_done = [&] {
    while (first_busy < clients_.size() && clients_[first_busy]->workload_drained() &&
           clients_[first_busy]->idle()) {
      ++first_busy;
    }
    return first_busy == clients_.size();
  };
  // What the live plane shows of the run at this boundary.
  const auto live_sample = [&](const obs::live::Audit& audit) {
    return obs::live::RunSample{ctx_.now(), audit, ctx_.engine().executed(),
                                demux.source_exhausted(), demux.buffered()};
  };
  if (profiler_ != nullptr) profiler_->begin_run();
  if (live_ != nullptr) live_->begin_run();
  while (!all_done()) {
    if (!maybe_pause(ctx_.engine().next_time())) break;
    if (!ctx_.engine().step(until)) break;
    maybe_sample();
    // Between steps the grid is at an event boundary — the live plane's
    // consistent publish point (paced, so most iterations cost one clock
    // read and a compare).
    if (live_ != nullptr && live_->due()) {
      live_->publish(live_sample(measure_audit(ctx_.now(), /*drained=*/false)));
    }
  }
  // Drain in-flight housekeeping for one simulated second: the daemons'
  // ContractSettled reports to the Central Server (price history, billing,
  // barter transfers) trail the completion notices clients wait for.
  if (!abandoned_) ctx_.engine().run(std::min(until, ctx_.now() + 1.0));
  if (profiler_ != nullptr) profiler_->end_run();
  for (auto& d : daemons_) d->cm().finish_metrics();
  if (config_.telemetry.sample_interval > 0.0) {
    // Close the series on the final state so a chart's last point reflects
    // the drained grid.
    sampler_.sample(ctx_.now());
    next_sample_due_ = ctx_.now() + config_.telemetry.sample_interval;
  }
  // The span trees are final now: analyze once, publish the per-phase
  // histograms, and cache the analysis for report()/telemetry().
  analysis_ = obs::analyze_spans(ctx_.spans());
  obs::observe_phase_histograms(ctx_.metrics(), *analysis_);
  // Audit while the demux still exists: all_done() reads the clients'
  // lanes. A drained run is held to exit semantics; a run that stopped at
  // `until` or was abandoned keeps the mid-run ones.
  audit_ = measure_audit(ctx_.now(), !abandoned_ && all_done());
  if (live_ != nullptr) live_->end_run(live_sample(audit_));
  // A clean end of run rolls the WAL into a fresh snapshot: restart from
  // here replays zero operations. Abandoned runs skip it (their state is
  // mid-flight and must not overwrite the store).
  if (store_ != nullptr && !abandoned_) central_->snapshot_to_store();
  workload_high_water_ = demux.high_water();
  return report();
}

const obs::SpanAnalysis& GridSystem::analysis() const {
  if (!analysis_) analysis_ = obs::analyze_spans(ctx_.spans());
  return *analysis_;
}

GridReport GridSystem::report() const {
  GridReport out;
  out.makespan = ctx_.now();
  const sim::Network& net = ctx_.network();
  out.messages = net.messages_sent();
  out.network_bytes = net.bytes_sent();
  out.messages_sent_by_kind = net.sent_by_kind();
  out.messages_delivered_by_kind = net.delivered_by_kind();

  // Grid-wide totals come straight from the metrics registry: every client
  // and daemon increments the shared instruments, so the report no longer
  // re-plumbs ad-hoc counters through each layer.
  const obs::MetricsRegistry& metrics = ctx_.metrics();
  out.jobs_submitted = submitted_->value();
  out.jobs_completed = completed_->value();
  out.jobs_unplaced = unplaced_->value();
  out.migrations = metrics.counter_value("faucets_grid_migrations_total");
  out.watchdog_restarts =
      metrics.counter_value("faucets_grid_watchdog_restarts_total");

  for (const auto& d : daemons_) {
    ClusterReport c;
    c.name = d->cm().machine().name;
    c.id = d->cluster_id();
    c.utilization = d->cm().metrics().utilization();
    c.completed = d->cm().metrics().completed();
    c.rejected = d->cm().metrics().rejected();
    c.revenue = d->revenue();
    c.payoff_earned = d->cm().metrics().total_payoff();
    c.bids_issued = d->bids_issued();
    c.bids_declined = d->bids_declined();
    c.awards_confirmed = d->awards_confirmed();
    c.awards_refused = d->awards_refused();
    if (config_.central.billing == BillingMode::kBarter) {
      c.barter_balance =
          std::as_const(*central_).barter_ledger().balance(d->cluster_id());
    }
    out.clusters.push_back(std::move(c));
  }

  // Grid-wide accounting: the conservation invariant (§5.5.3). Transfers
  // are paired += / -= of one double value, but the total re-sums the
  // balances, so rounding can leave a residual of order 1e-12; the audit
  // bounds it by obs::live::Audit::kLedgerResidualMax.
  const BarterLedger& ledger = std::as_const(*central_).barter_ledger();
  out.ledger.barter = config_.central.billing == BillingMode::kBarter;
  out.ledger.opening_credits = opening_credits_;
  out.ledger.total_credits = ledger.total_credits();
  out.ledger.conservation_residual = out.ledger.total_credits - opening_credits_;
  out.ledger.transfers = ledger.log().size();
  out.ledger.total_charged =
      std::as_const(*central_).user_accounts().total_charged();

  Samples latency;
  for (const auto& cl : clients_) {
    out.total_spent += cl->total_spent();
    out.total_client_payoff += cl->total_payoff();
    for (double v : cl->award_latency().values()) latency.add(v);
  }
  out.mean_award_latency = latency.mean();
  out.phase_mean_seconds = analysis().mean_phases();
  return out;
}

GridTelemetry GridSystem::telemetry() const {
  GridTelemetry out;
  out.analysis = analysis();
  out.users.resize(clients_.size());
  out.clusters.resize(daemons_.size());
  for (std::size_t c = 0; c < daemons_.size(); ++c) {
    out.clusters[c].scope = daemons_[c]->cm().machine().name;
  }
  // Join each client's submission outcomes (deadline terms captured at
  // submit) into per-user and per-cluster deadline accounting.
  for (std::size_t u = 0; u < clients_.size(); ++u) {
    out.users[u].scope = "user" + std::to_string(u);
    for (const SubmissionOutcome& o : clients_[u]->outcomes()) {
      const bool finished = o.status == SubmissionOutcome::Status::kCompleted;
      out.users[u].add(finished, o.finish_time, o.has_deadline, o.soft_deadline,
                       o.hard_deadline, o.payoff, o.payoff_max);
      if (o.cluster.valid() &&
          static_cast<std::size_t>(o.cluster.value()) < out.clusters.size()) {
        out.clusters[static_cast<std::size_t>(o.cluster.value())].add(
            finished, o.finish_time, o.has_deadline, o.soft_deadline,
            o.hard_deadline, o.payoff, o.payoff_max);
      }
    }
  }
  return out;
}

}  // namespace faucets::core
