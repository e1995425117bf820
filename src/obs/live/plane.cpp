#include "src/obs/live/plane.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "src/obs/exporters.hpp"

namespace faucets::obs::live {

namespace {

constexpr double kProgressIntervalSeconds = 0.5;  // between ticker repaints

double ticks_to_seconds(std::uint64_t ticks) {
  return static_cast<double>(ticks) * HostClock::ns_per_tick() * 1e-9;
}

std::uint64_t seconds_to_ticks(double seconds) {
  const double ns = HostClock::ns_per_tick();
  if (ns <= 0.0 || seconds <= 0.0) return 0;
  return static_cast<std::uint64_t>(seconds * 1e9 / ns);
}

}  // namespace

LivePlane::LivePlane(LiveConfig config, const MetricsRegistry& metrics,
                     const TraceBuffer& trace)
    : config_(config), metrics_(metrics), trace_(trace) {
  (void)HostClock::ns_per_tick();  // calibrate once, off the publish path
  publish_interval_ticks_ = seconds_to_ticks(config_.publish_interval);
  if (config_.serve) {
    // The server runs the stall check every HttpServer::kPollIntervalMs.
    server_.start(
        config_.port,
        [this](const std::string& path) { return handle(path); },
        [this] { check_stall(); });
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

void LivePlane::publish(const RunSample& sample) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    publish_locked(sample);
  }
  next_publish_ticks_ = HostClock::ticks() + publish_interval_ticks_;
}

void LivePlane::end_run(const RunSample& sample) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    publish_locked(sample);
    progress_.run_active = false;
    progress_.finished = true;
  }
  run_active_.store(false, std::memory_order_relaxed);
  if (config_.progress) render_ticker_line(/*last=*/true);
}

void LivePlane::publish_locked(const RunSample& sample) {
  capture();

  progress_.sample = sample;
  ++progress_.publish_seq;
  progress_.publish_ticks = HostClock::ticks();

  const double sim_now = sample.sim_time;
  if (sim_now > last_published_time_) {
    last_published_time_ = sim_now;
    last_advance_ticks_.store(progress_.publish_ticks,
                              std::memory_order_relaxed);
    suite_.clear_stall();
  }
  last_sim_time_bits_.store(std::bit_cast<std::uint64_t>(sim_now),
                            std::memory_order_relaxed);

  suite_.evaluate(sim_now, sample.audit);
}

void LivePlane::capture() {
  Snapshot& snap = snapshot_;
  snap.metrics.refresh_from(metrics_);
  const std::size_t have = trace_.size();
  const std::size_t n = std::min(have, snap.recent.size());
  for (std::size_t i = 0; i < n; ++i) {
    snap.recent[i] = trace_.at(have - n + i);
  }
  snap.recent_n = n;
  snap.trace_dropped = trace_.dropped();
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
        lk, std::chrono::duration<double>(kProgressIntervalSeconds));
    if (ticker_stop_) break;
    if (!server_.serving()) check_stall();  // no server thread to host it
    render_ticker_line(/*last=*/false);
  }
}

LivePlane::Rates LivePlane::rates(const Progress& p) {
  Rates r;
  if (p.publish_seq == 0) return r;
  r.elapsed = ticks_to_seconds(p.publish_ticks - p.run_start_ticks);
  if (r.elapsed <= 0.0) return r;
  r.events_per_second =
      static_cast<double>(p.sample.events_executed) / r.elapsed;
  const Audit& jobs = p.sample.audit;
  const std::uint64_t done = jobs.completed + jobs.unplaced;
  if (!p.finished && p.sample.workload_exhausted && jobs.completed > 0 &&
      jobs.submitted > done) {
    r.eta = static_cast<double>(jobs.submitted - done) * r.elapsed /
            static_cast<double>(jobs.completed);
  }
  return r;
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
  const Rates r = rates(p);
  char eta[32] = "?";
  if (p.finished) {
    std::snprintf(eta, sizeof(eta), "done");
  } else if (r.eta) {
    std::snprintf(eta, sizeof(eta), "%.0fs", *r.eta);
  }
  const Audit& jobs = p.sample.audit;
  std::fprintf(
      stderr,
      "\r[faucets] t=%.1f ev=%llu (%.2gM ev/s) jobs %llu/%llu done "
      "(%llu unplaced) alerts %llu eta %s        %s",
      p.sample.sim_time,
      static_cast<unsigned long long>(p.sample.events_executed),
      r.events_per_second * 1e-6,
      static_cast<unsigned long long>(jobs.completed + jobs.unplaced),
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
  const Rates r = rates(p);
  const double since_publish =
      p.publish_seq == 0
          ? 0.0
          : ticks_to_seconds(HostClock::ticks() - p.publish_ticks);
  const Audit& jobs = p.sample.audit;
  std::ostringstream os;
  os << "{\"schema\":\"faucets.live.progress.v3\""
     << ",\"run_active\":" << (p.run_active ? "true" : "false")
     << ",\"finished\":" << (p.finished ? "true" : "false")
     << ",\"publishes\":" << p.publish_seq
     << ",\"sim_time\":" << json_number(p.sample.sim_time)
     << ",\"events_executed\":" << p.sample.events_executed << ",\"jobs\":{"
     << "\"submitted\":" << jobs.submitted << ",\"completed\":"
     << jobs.completed << ",\"unplaced\":" << jobs.unplaced
     << ",\"in_flight\":" << jobs.in_flight() << "},\"workload\":{\"exhausted\":"
     << (p.sample.workload_exhausted ? "true" : "false")
     << ",\"buffered\":" << p.sample.workload_buffered << "},\"host\":{"
     << "\"elapsed_seconds\":" << json_number(r.elapsed)
     << ",\"since_publish_seconds\":" << json_number(since_publish)
     << ",\"events_per_second\":" << json_number(r.events_per_second)
     << ",\"sim_seconds_per_second\":"
     << json_number(r.elapsed > 0.0 ? p.sample.sim_time / r.elapsed : 0.0)
     << "},\"eta_seconds\":" << (r.eta ? json_number(*r.eta) : "null")
     << "}\n";
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
     << ",\"sim_time\":" << json_number(progress_.sample.sim_time)
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

MonitorStates LivePlane::monitor_states() const {
  std::lock_guard<std::mutex> lk(mu_);
  return suite_.states();
}

}  // namespace faucets::obs::live
