#include "src/obs/live/plane.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

#include "src/obs/exporters.hpp"

namespace faucets::obs::live {

namespace {

double ticks_to_seconds(std::uint64_t ticks) {
  return static_cast<double>(ticks) * HostClock::ns_per_tick() * 1e-9;
}

std::uint64_t seconds_to_ticks(double seconds) {
  const double ns = HostClock::ns_per_tick();
  if (ns <= 0.0 || seconds <= 0.0) return 0;
  return static_cast<std::uint64_t>(seconds * 1e9 / ns);
}

}  // namespace

LivePlane::LivePlane(LiveConfig config, Bindings bindings)
    : config_(config), bindings_(std::move(bindings)) {
  (void)HostClock::ns_per_tick();  // calibrate once, off the publish path
  publish_interval_ticks_ = seconds_to_ticks(config_.publish_interval);
  snapshot_.recent.resize(config_.recent_events);
  if (config_.serve) {
    server_.start(
        config_.port,
        [this](const std::string& path) { return handle(path); },
        [this] { check_stall(); }, config_.poll_interval_ms);
  }
  if (config_.progress) {
    ticker_ = std::thread([this] { ticker_loop(); });
  }
}

LivePlane::~LivePlane() {
  server_.stop();
  if (ticker_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(ticker_mu_);
      ticker_stop_ = true;
    }
    ticker_cv_.notify_all();
    ticker_.join();
  }
}

void LivePlane::begin_run() {
  const std::uint64_t now = HostClock::ticks();
  {
    std::lock_guard<std::mutex> lk(mu_);
    progress_.run_active = true;
    progress_.finished = false;
    progress_.run_start_ticks = now;
  }
  last_advance_ticks_.store(now, std::memory_order_relaxed);
  run_active_.store(true, std::memory_order_relaxed);
  next_publish_ticks_ = 0;  // first boundary publishes immediately
}

void LivePlane::publish(double sim_now) {
  const Audit audit = bindings_.audit ? bindings_.audit(sim_now) : Audit{};
  {
    std::lock_guard<std::mutex> lk(mu_);
    publish_locked(sim_now, audit);
  }
  next_publish_ticks_ = HostClock::ticks() + publish_interval_ticks_;
}

void LivePlane::end_run(double sim_now, const Audit& audit) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    publish_locked(sim_now, audit);
    progress_.run_active = false;
    progress_.finished = true;
  }
  run_active_.store(false, std::memory_order_relaxed);
  if (config_.progress) render_ticker_line(/*last=*/true);
}

void LivePlane::publish_locked(double sim_now, const Audit& audit) {
  capture();

  progress_.sim_time = sim_now;
  progress_.audit = audit;
  progress_.events_executed = bindings_.executed ? bindings_.executed() : 0;
  progress_.workload_exhausted =
      bindings_.workload_exhausted ? bindings_.workload_exhausted() : true;
  progress_.workload_buffered =
      bindings_.workload_buffered ? bindings_.workload_buffered() : 0;
  ++progress_.publish_seq;
  progress_.publish_ticks = HostClock::ticks();

  if (sim_now > last_published_time_) {
    last_published_time_ = sim_now;
    last_advance_ticks_.store(progress_.publish_ticks,
                              std::memory_order_relaxed);
    suite_.clear_stall();
  }
  last_sim_time_bits_.store(std::bit_cast<std::uint64_t>(sim_now),
                            std::memory_order_relaxed);

  suite_.evaluate(sim_now, audit, [this](const TraceEvent& ev) {
    if (bindings_.alert_sink != nullptr) bindings_.alert_sink->record(ev);
  });
}

void LivePlane::capture() {
  const Bindings& b = bindings_;
  Snapshot& snap = snapshot_;
  if (b.metrics != nullptr) snap.metrics.refresh_from(*b.metrics);
  if (b.trace != nullptr) {
    const std::size_t have = b.trace->size();
    const std::size_t n = std::min(have, snap.recent.size());
    for (std::size_t i = 0; i < n; ++i) {
      snap.recent[i] = b.trace->at(have - n + i);
    }
    snap.recent_n = n;
    snap.trace_dropped = b.trace->dropped();
  }
}

void LivePlane::begin_pause() noexcept {
  pause_held_.store(true, std::memory_order_relaxed);
}

void LivePlane::end_pause() noexcept {
  // Refresh the advance tick before releasing the hold so check_stall never
  // pairs a cleared hold with the stale pre-pause tick.
  last_advance_ticks_.store(HostClock::ticks(), std::memory_order_relaxed);
  pause_held_.store(false, std::memory_order_release);
}

void LivePlane::check_stall() {
  if (!run_active_.load(std::memory_order_relaxed)) return;
  if (pause_held_.load(std::memory_order_acquire)) return;
  const std::uint64_t last = last_advance_ticks_.load(std::memory_order_relaxed);
  const std::uint64_t now = HostClock::ticks();
  // The clock read is not ordered after the load, so it can trail a tick
  // the simulation thread stored an instant ago on another core: no stall,
  // and the unsigned difference must not wrap to an enormous one.
  if (now <= last) return;
  const double stalled_for = ticks_to_seconds(now - last);
  if (stalled_for <= config_.stall_timeout) return;
  const double sim_time = std::bit_cast<double>(
      last_sim_time_bits_.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> lk(mu_);
  suite_.report_stall(sim_time, stalled_for, config_.stall_timeout);
}

void LivePlane::ticker_loop() {
  std::unique_lock<std::mutex> lk(ticker_mu_);
  while (!ticker_stop_) {
    ticker_cv_.wait_for(
        lk, std::chrono::duration<double>(config_.progress_interval));
    if (ticker_stop_) break;
    if (!server_.serving()) check_stall();  // no server thread to host it
    render_ticker_line(/*last=*/false);
  }
}

void LivePlane::render_ticker_line(bool last) const {
  Progress p;
  std::uint64_t alerts = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    p = progress_;
    alerts = suite_.total_alerts();
  }
  if (p.publish_seq == 0) return;
  const double elapsed =
      ticks_to_seconds(p.publish_ticks - p.run_start_ticks);
  const double rate =
      elapsed > 0.0 ? static_cast<double>(p.events_executed) / elapsed : 0.0;
  char eta[32] = "?";
  const Audit& jobs = p.audit;
  const std::uint64_t done = jobs.completed + jobs.unplaced;
  if (p.finished) {
    std::snprintf(eta, sizeof(eta), "done");
  } else if (p.workload_exhausted && jobs.completed > 0 &&
             jobs.submitted > done && elapsed > 0.0) {
    const double jobs_rate = static_cast<double>(jobs.completed) / elapsed;
    std::snprintf(eta, sizeof(eta), "%.0fs",
                  static_cast<double>(jobs.submitted - done) / jobs_rate);
  }
  std::fprintf(
      stderr,
      "\r[faucets] t=%.1f ev=%llu (%.2gM ev/s) jobs %llu/%llu done "
      "(%llu unplaced) alerts %llu eta %s        %s",
      p.sim_time, static_cast<unsigned long long>(p.events_executed),
      rate * 1e-6, static_cast<unsigned long long>(done),
      static_cast<unsigned long long>(jobs.submitted),
      static_cast<unsigned long long>(jobs.unplaced),
      static_cast<unsigned long long>(alerts), eta, last ? "\n" : "");
  std::fflush(stderr);
}

// --------------------------------------------------------------- endpoints

HttpResponse LivePlane::handle(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (path == "/metrics") {
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            render_metrics_locked()};
  }
  if (path == "/healthz") {
    const bool ok = suite_.healthy();
    return {ok ? 200 : 503, "application/json; charset=utf-8",
            render_healthz_locked()};
  }
  if (path == "/progress") {
    return {200, "application/json; charset=utf-8", render_progress_locked()};
  }
  if (path == "/traces/recent") {
    return {200, "application/x-ndjson; charset=utf-8",
            render_traces_locked()};
  }
  return {404, "text/plain; charset=utf-8",
          "not found; try /metrics /healthz /progress /traces/recent\n"};
}

std::string LivePlane::render_progress_locked() const {
  const Progress& p = progress_;
  const double elapsed =
      p.publish_seq == 0
          ? 0.0
          : ticks_to_seconds(p.publish_ticks - p.run_start_ticks);
  const double since_publish =
      p.publish_seq == 0
          ? 0.0
          : ticks_to_seconds(HostClock::ticks() - p.publish_ticks);
  const double ev_rate =
      elapsed > 0.0 ? static_cast<double>(p.events_executed) / elapsed : 0.0;
  const Audit& jobs = p.audit;
  const std::uint64_t done = jobs.completed + jobs.unplaced;
  std::string eta = "null";
  if (!p.finished && p.workload_exhausted && jobs.completed > 0 &&
      jobs.submitted > done && elapsed > 0.0) {
    eta = json_number(static_cast<double>(jobs.submitted - done) * elapsed /
                      static_cast<double>(jobs.completed));
  }
  std::ostringstream os;
  os << "{\"schema\":\"faucets.live.progress.v3\""
     << ",\"run_active\":" << (p.run_active ? "true" : "false")
     << ",\"finished\":" << (p.finished ? "true" : "false")
     << ",\"publishes\":" << p.publish_seq
     << ",\"sim_time\":" << json_number(p.sim_time)
     << ",\"events_executed\":" << p.events_executed << ",\"jobs\":{"
     << "\"submitted\":" << jobs.submitted << ",\"completed\":"
     << jobs.completed << ",\"unplaced\":" << jobs.unplaced
     << ",\"in_flight\":" << jobs.in_flight() << "},\"workload\":{\"exhausted\":"
     << (p.workload_exhausted ? "true" : "false")
     << ",\"buffered\":" << p.workload_buffered << "},\"host\":{"
     << "\"elapsed_seconds\":" << json_number(elapsed)
     << ",\"since_publish_seconds\":" << json_number(since_publish)
     << ",\"events_per_second\":" << json_number(ev_rate)
     << ",\"sim_seconds_per_second\":"
     << json_number(elapsed > 0.0 ? p.sim_time / elapsed : 0.0)
     << "},\"eta_seconds\":" << eta << "}\n";
  return os.str();
}

std::string LivePlane::render_healthz_locked() const {
  std::ostringstream os;
  const MonitorState& stall =
      suite_.state(MonitorKind::kBarrierStall);
  os << "{\"schema\":\"faucets.live.healthz.v2\",\"status\":\""
     << (suite_.healthy() ? "ok" : "alert")
     << "\",\"alerts_total\":" << suite_.total_alerts()
     << ",\"stalled\":" << (stall.firing ? "true" : "false")
     << ",\"sim_time\":" << json_number(progress_.sim_time)
     << ",\"publishes\":" << progress_.publish_seq << ",\"monitors\":[";
  for (std::size_t m = 0; m < kMonitorKindCount; ++m) {
    const MonitorState& s = suite_.states()[m];
    if (m > 0) os << ',';
    os << "{\"monitor\":\"" << to_string(static_cast<MonitorKind>(m))
       << "\",\"alerts\":" << s.alerts << ",\"firing\":"
       << (s.firing ? "true" : "false")
       << ",\"observed\":" << json_number(s.last_observed)
       << ",\"threshold\":" << json_number(s.threshold)
       << ",\"first_sim_time\":" << json_number(s.first_sim_time)
       << ",\"last_sim_time\":" << json_number(s.last_sim_time) << '}';
  }
  os << "]}\n";
  return os.str();
}

std::string LivePlane::render_metrics_locked() const {
  const Snapshot& snap = snapshot_;
  std::ostringstream os;
  write_prometheus(os, snap.metrics);

  // Plane-owned series: these exist only on the live endpoint, never in the
  // simulation registries, so enabling the plane cannot perturb artifacts.
  os << "# HELP faucets_live_publishes_total Snapshot publishes from the "
        "simulation thread\n"
     << "# TYPE faucets_live_publishes_total counter\n"
     << "faucets_live_publishes_total " << progress_.publish_seq << '\n';
  os << "# HELP faucets_alerts_total Online invariant monitor alerts "
        "(rising edges into violation)\n"
     << "# TYPE faucets_alerts_total counter\n";
  for (std::size_t m = 0; m < kMonitorKindCount; ++m) {
    os << "faucets_alerts_total{monitor=\""
       << to_string(static_cast<MonitorKind>(m)) << "\"} "
       << suite_.states()[m].alerts << '\n';
  }
  write_prometheus_trace_dropped(os, snap.trace_dropped);
  return os.str();
}

std::string LivePlane::render_traces_locked() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < snapshot_.recent_n; ++i) {
    write_trace_event_jsonl(os, snapshot_.recent[i]);
  }
  return os.str();
}

std::uint64_t LivePlane::publishes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return progress_.publish_seq;
}

std::uint64_t LivePlane::alerts_total() const {
  std::lock_guard<std::mutex> lk(mu_);
  return suite_.total_alerts();
}

std::array<MonitorState, kMonitorKindCount> LivePlane::monitor_states() const {
  std::lock_guard<std::mutex> lk(mu_);
  return suite_.states();
}

}  // namespace faucets::obs::live
