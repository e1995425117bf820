// The live operations plane (DESIGN.md §15): embedded HTTP monitoring over
// snapshots of a running grid, plus the online invariant monitors and the
// host-time stall watchdog.
//
// Read-only by construction: the simulation thread *publishes* value
// snapshots into preallocated buffers at consistent boundaries (between
// event steps), and the HTTP/ticker threads only ever read those snapshots
// under the plane mutex. Nothing on a background thread touches the engine,
// registry, ring, or RNG state, and the only simulation artifact the plane
// can write is a kAlert trace event — recorded by the simulation thread
// itself, at a publish boundary, and only when a monitor actually fires.
// Clean runs therefore produce byte-identical report JSON / trace JSONL /
// Chrome traces with the plane on or off (tests/core/live_plane_test.cpp
// pins this).
//
// Steady-state publishes are allocation-free on the simulation thread
// (tests/obs/live_alloc_test.cpp pins this with a counting operator new):
// the snapshot registry is refreshed in place by instrument copy-assign;
// only a registry *growth* (new instruments, e.g. the end-of-run phase
// histograms) clones the new entries, which allocates. /metrics renders the
// snapshot with the artifact exporter, write_prometheus.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/live/http.hpp"
#include "src/obs/live/monitor.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/trace.hpp"

namespace faucets::obs::live {

struct LiveConfig {
  /// Serve /metrics /healthz /progress /traces/recent on 127.0.0.1.
  bool serve = false;
  std::uint16_t port = 0;  // 0 picks an ephemeral port (see LivePlane::port)
  /// Single-line host-time progress/ETA ticker on stderr.
  bool progress = false;
  /// Host seconds between snapshot publishes; 0 publishes at every
  /// consistent boundary (tests use 0 for deterministic coverage).
  double publish_interval = 0.1;
  /// Last-N trace-ring events kept for /traces/recent.
  std::size_t recent_events = 256;
  /// Server accept-poll timeout; also the stall watchdog's check cadence.
  int poll_interval_ms = 100;
  /// Host seconds without sim time advancing before the stall watchdog
  /// fires (checked on the server thread).
  double stall_timeout = 10.0;

  [[nodiscard]] bool enabled() const noexcept { return serve || progress; }
};

class LivePlane {
 public:
  /// Read-only taps into the simulation, called only at publish boundaries
  /// on the simulation thread.
  struct Bindings {
    const MetricsRegistry* metrics = nullptr;
    const TraceBuffer* trace = nullptr;
    std::function<std::uint64_t()> executed;
    /// Sink for kAlert records (the simulation's ring). May be null
    /// (alerts then only reach /healthz and /metrics).
    TraceBuffer* alert_sink = nullptr;
    /// The grid's audit at `sim_now`, evaluated once per publish: /progress
    /// job counts and the monitors read it. Must be allocation-free; null
    /// reads as an empty, clean grid.
    std::function<Audit(double sim_now)> audit;
    /// Streaming workload state (null-safe: unknown outside run()).
    std::function<bool()> workload_exhausted;
    std::function<std::uint64_t()> workload_buffered;
  };

  LivePlane(LiveConfig config, Bindings bindings);
  ~LivePlane();
  LivePlane(const LivePlane&) = delete;
  LivePlane& operator=(const LivePlane&) = delete;

  // --- simulation thread ---------------------------------------------------
  void begin_run();
  /// Paced publish: no-op until publish_interval host time elapsed.
  void maybe_publish(double sim_now) {
    if (HostClock::ticks() < next_publish_ticks_) return;
    publish(sim_now);
  }
  /// Unconditional snapshot publish + monitor evaluation.
  void publish(double sim_now);
  /// Final publish of the run's end-of-run audit (its `drained` selects the
  /// exit semantics), then mark the run finished for /progress and the
  /// ticker.
  void end_run(double sim_now, const Audit& audit);
  /// Bracket a deliberate pause (checkpoint capture via
  /// GridSystem::maybe_pause): the stall watchdog is held while the bracket
  /// is open and re-armed from the release instant, so a pause of any
  /// length never fires the barrier-stall monitor — a kAlert there would
  /// break the byte-identical-artifacts guarantee for runs that checkpoint.
  void begin_pause() noexcept;
  void end_pause() noexcept;

  // --- any thread -----------------------------------------------------------
  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
  [[nodiscard]] bool serving() const noexcept { return server_.serving(); }
  [[nodiscard]] std::uint64_t publishes() const;
  [[nodiscard]] std::uint64_t alerts_total() const;
  [[nodiscard]] std::array<MonitorState, kMonitorKindCount> monitor_states() const;
  [[nodiscard]] const LiveConfig& config() const noexcept { return config_; }

  /// The HTTP handler, public so tests can exercise endpoints without a
  /// socket. Paths: /metrics /healthz /progress /traces/recent.
  [[nodiscard]] HttpResponse handle(const std::string& path) const;

 private:
  /// The published values.
  struct Snapshot {
    MetricsRegistry metrics;  // value copy of the simulation's registry
    // Trace-ring tail (newest recent_events records).
    std::vector<TraceEvent> recent;
    std::size_t recent_n = 0;
    std::uint64_t trace_dropped = 0;
  };

  struct Progress {
    double sim_time = 0.0;
    Audit audit;  // the job counts /progress shows come from here
    std::uint64_t events_executed = 0;
    bool workload_exhausted = false;
    std::uint64_t workload_buffered = 0;
    bool run_active = false;
    bool finished = false;
    std::uint64_t publish_seq = 0;
    std::uint64_t publish_ticks = 0;
    std::uint64_t run_start_ticks = 0;
  };

  void publish_locked(double sim_now, const Audit& audit);
  void capture();
  void check_stall();  // server/ticker thread, every poll interval
  void ticker_loop();
  void render_ticker_line(bool last) const;

  [[nodiscard]] std::string render_progress_locked() const;
  [[nodiscard]] std::string render_healthz_locked() const;
  [[nodiscard]] std::string render_metrics_locked() const;
  [[nodiscard]] std::string render_traces_locked() const;

  LiveConfig config_;
  Bindings bindings_;

  mutable std::mutex mu_;  // guards snapshot_, progress_, suite_
  Snapshot snapshot_;
  Progress progress_;
  MonitorSuite suite_;

  // Sim-thread pacing state (untouched by background threads).
  std::uint64_t next_publish_ticks_ = 0;
  std::uint64_t publish_interval_ticks_ = 0;
  double last_published_time_ = -1.0;

  // Watchdog signals (sim thread writes, server/ticker thread reads).
  std::atomic<bool> run_active_{false};
  std::atomic<bool> pause_held_{false};
  std::atomic<std::uint64_t> last_advance_ticks_{0};
  std::atomic<std::uint64_t> last_sim_time_bits_{0};

  HttpServer server_;
  std::thread ticker_;
  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;
};

}  // namespace faucets::obs::live
