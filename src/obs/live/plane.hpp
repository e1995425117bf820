// The live operations plane (DESIGN.md §15): embedded HTTP monitoring over
// snapshots of a running grid, plus the online invariant monitors and the
// host-time stall watchdog.
//
// Read-only by construction: the plane holds the simulation's registry and
// trace ring by const reference and writes into neither. The run loop hands
// it everything else (sim time, audit, events executed, workload state) at
// consistent boundaries between event steps, where the simulation thread
// copies values into preallocated snapshot buffers; the HTTP and ticker
// threads only ever read those snapshots under the plane mutex. Monitor
// alerts stay in the plane's MonitorStates. Every run therefore writes the
// same report JSON / trace JSONL / Chrome trace with the plane on or off,
// alerts or not (tests/core/live_plane_test.cpp pins this).
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
#include <mutex>
#include <optional>
#include <string>
#include <thread>

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
  /// Host seconds without sim time advancing before the stall watchdog
  /// fires (checked on the server thread).
  double stall_timeout = 10.0;

  [[nodiscard]] bool enabled() const noexcept { return serve || progress; }
};

/// The run's values at one publish, which the run loop hands the plane.
struct RunSample {
  double sim_time = 0.0;
  Audit audit;  // the job counts /progress shows come from here
  std::uint64_t events_executed = 0;
  bool workload_exhausted = true;
  std::uint64_t workload_buffered = 0;
};

class LivePlane {
 public:
  /// Newest trace-ring events /traces/recent serves.
  static constexpr std::size_t kRecentEvents = 256;

  /// `metrics` and `trace` are the simulation's; the plane reads them at
  /// each publish and must not outlive them.
  LivePlane(LiveConfig config, const MetricsRegistry& metrics,
            const TraceBuffer& trace);
  ~LivePlane();
  LivePlane(const LivePlane&) = delete;
  LivePlane& operator=(const LivePlane&) = delete;

  // --- simulation thread ---------------------------------------------------
  void begin_run();
  /// publish_interval host seconds have passed since the last publish: the
  /// run loop's one check per step, a clock read and a compare.
  [[nodiscard]] bool due() const noexcept {
    return HostClock::ticks() >= next_publish_ticks_;
  }
  /// Snapshot publish + monitor evaluation.
  void publish(const RunSample& sample);
  /// Final publish of the run's end-of-run audit (its `drained` selects the
  /// exit semantics), then mark the run finished for /progress and the
  /// ticker.
  void end_run(const RunSample& sample);
  /// Bracket a deliberate pause (checkpoint capture via
  /// GridSystem::maybe_pause): the stall watchdog is held while the bracket
  /// is open and re-armed from the release instant, so a pause of any
  /// length never fires the barrier-stall monitor.
  void begin_pause() noexcept;
  void end_pause() noexcept;

  // --- any thread -----------------------------------------------------------
  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
  [[nodiscard]] bool serving() const noexcept { return server_.serving(); }
  [[nodiscard]] std::uint64_t publishes() const;
  [[nodiscard]] std::uint64_t alerts_total() const;
  [[nodiscard]] MonitorStates monitor_states() const;
  [[nodiscard]] const LiveConfig& config() const noexcept { return config_; }

  /// The HTTP handler, public so tests can exercise endpoints without a
  /// socket. Paths: /metrics /healthz /progress /traces/recent.
  [[nodiscard]] HttpResponse handle(const std::string& path) const;

 private:
  /// The published values.
  struct Snapshot {
    MetricsRegistry metrics;  // value copy of the simulation's registry
    std::array<TraceEvent, kRecentEvents> recent{};  // trace-ring tail
    std::size_t recent_n = 0;
    std::uint64_t trace_dropped = 0;
  };

  struct Progress {
    RunSample sample;
    bool run_active = false;
    bool finished = false;
    std::uint64_t publish_seq = 0;
    std::uint64_t publish_ticks = 0;
    std::uint64_t run_start_ticks = 0;
  };

  /// Host-time rates of the run up to the last publish: /progress and the
  /// ticker show the same numbers.
  struct Rates {
    double elapsed = 0.0;  // host seconds from begin_run to the last publish
    double events_per_second = 0.0;
    /// Host seconds left; known once the workload is exhausted and jobs
    /// have completed.
    std::optional<double> eta;
  };
  [[nodiscard]] static Rates rates(const Progress& p);

  void publish_locked(const RunSample& sample);
  void capture();
  void check_stall();  // server thread every HttpServer::kPollIntervalMs, or ticker
  void ticker_loop();
  void render_ticker_line(bool last) const;

  [[nodiscard]] std::string render_progress_locked() const;
  [[nodiscard]] std::string render_healthz_locked() const;
  [[nodiscard]] std::string render_metrics_locked() const;
  [[nodiscard]] std::string render_traces_locked() const;

  LiveConfig config_;
  const MetricsRegistry& metrics_;
  const TraceBuffer& trace_;

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
