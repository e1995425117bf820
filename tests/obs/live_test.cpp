// Live operations plane (DESIGN.md §15): the embedded HTTP server, the
// online monitor suite driven through fabricated audits, and the LivePlane
// endpoint rendering over published snapshots.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/exporters.hpp"
#include "src/obs/live/http.hpp"
#include "src/obs/live/monitor.hpp"
#include "src/obs/live/plane.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace faucets::obs::live {
namespace {

/// Minimal blocking HTTP/1.1 GET against 127.0.0.1:`port`; returns the full
/// response (status line + headers + body), empty on connect failure.
std::string http_get(std::uint16_t port, const std::string& path,
                     const std::string& method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  const std::string req =
      method + " " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::write(fd, req.data() + off, req.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// ------------------------------------------------------------- HttpServer

TEST(HttpServer, ServesHandlerResponsesOnEphemeralPort) {
  HttpServer server;
  ASSERT_TRUE(server.start(0, [](const std::string& path) {
    return HttpResponse{200, "text/plain", "path=" + path + "\n"};
  }));
  ASSERT_TRUE(server.serving());
  ASSERT_NE(server.port(), 0);
  const std::string res = http_get(server.port(), "/hello");
  EXPECT_NE(res.find("HTTP/1.1 200 OK"), std::string::npos) << res;
  EXPECT_NE(res.find("path=/hello"), std::string::npos) << res;
  server.stop();
  EXPECT_FALSE(server.serving());
}

TEST(HttpServer, StripsQueryStringAndRejectsNonGet) {
  HttpServer server;
  ASSERT_TRUE(server.start(0, [](const std::string& path) {
    return HttpResponse{200, "text/plain", path};
  }));
  EXPECT_NE(http_get(server.port(), "/metrics?x=1").find("/metrics"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/metrics", "POST")
                .find("HTTP/1.1 405"),
            std::string::npos);
  server.stop();
}

TEST(HttpServer, RunsIdleHookWhileWaiting) {
  HttpServer server;
  std::atomic<int> idles{0};
  ASSERT_TRUE(server.start(
      0, [](const std::string&) { return HttpResponse{}; },
      [&idles] { idles.fetch_add(1); }));
  for (int i = 0; i < 200 && idles.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(idles.load(), 0);
  server.stop();
}

TEST(HttpServer, SurvivesClientDisconnectingMidResponse) {
  // A scraper that vanishes before reading the body (curl timeout,
  // cancelled Prometheus scrape) must surface as EPIPE on the server's
  // send, not as a SIGPIPE that kills the process under observation.
  HttpServer server;
  const std::string big(4 * 1024 * 1024, 'x');  // >> any socket buffer
  ASSERT_TRUE(server.start(0, [&big](const std::string&) {
    return HttpResponse{200, "text/plain", big};
  }));
  for (int i = 0; i < 3; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
    const std::string req = "GET / HTTP/1.1\r\nHost: localhost\r\n\r\n";
    ASSERT_EQ(::write(fd, req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    // RST the connection immediately: the server's in-flight send must get
    // EPIPE/ECONNRESET, never a fatal signal.
    struct linger lg{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd);
  }
  // Still alive and serving.
  EXPECT_NE(http_get(server.port(), "/").find("HTTP/1.1 200"),
            std::string::npos);
  server.stop();
}

TEST(HttpServer, DropsClientThatStopsReadingTheResponse) {
  // A client that sends a request and then never reads must not pin the
  // server thread forever: the write side is poll-bounded like the read
  // side, so the connection is dropped and the next scrape succeeds.
  HttpServer server;
  const std::string big(8 * 1024 * 1024, 'x');
  ASSERT_TRUE(server.start(0, [&big](const std::string&) {
    return HttpResponse{200, "text/plain", big};
  }));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const std::string req = "GET / HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ASSERT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  // Read nothing: once our receive buffer fills, the server blocks on
  // writability and must give up within its 1s poll bound.
  const std::string res = http_get(server.port(), "/");
  EXPECT_NE(res.find("HTTP/1.1 200"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(HttpServer, StopIsIdempotentAndRestartable) {
  HttpServer server;
  server.stop();  // no-op before start
  ASSERT_TRUE(
      server.start(0, [](const std::string&) { return HttpResponse{}; }));
  const std::uint16_t first = server.port();
  server.stop();
  server.stop();
  ASSERT_TRUE(
      server.start(0, [](const std::string&) { return HttpResponse{}; }));
  EXPECT_NE(server.port(), 0);
  (void)first;
  server.stop();
}

// ----------------------------------------------------------- MonitorSuite

/// A clean grid in flight: every job in flight has its open root.
Audit clean_audit() {
  Audit a;
  a.submitted = 10;
  a.completed = 4;
  a.unplaced = 1;
  a.open_submissions = 5;
  a.open_spans = 12;
  return a;
}

/// Alerts the evaluation raised (rising edges into violation).
std::uint64_t evaluate_count(MonitorSuite& suite, double now, const Audit& audit) {
  const std::uint64_t before = suite.total_alerts();
  suite.evaluate(now, audit);
  return suite.total_alerts() - before;
}

TEST(MonitorSuite, CleanProbesNeverAlert) {
  MonitorSuite suite;
  Audit audit = clean_audit();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(evaluate_count(suite, i, audit), 0u);
  }
  // The drained end: nothing in flight, held or open.
  audit.completed = 9;
  audit.open_submissions = 0;
  audit.open_spans = 0;
  audit.drained = true;
  EXPECT_TRUE(audit.ok());
  EXPECT_EQ(evaluate_count(suite, 100.0, audit), 0u);
  EXPECT_TRUE(suite.healthy());
  EXPECT_EQ(suite.total_alerts(), 0u);
}

TEST(MonitorSuite, LedgerViolationIsEdgeTriggered) {
  MonitorSuite suite;
  Audit audit = clean_audit();
  const MonitorState& ledger = suite.state(MonitorKind::kLedgerConservation);

  EXPECT_EQ(evaluate_count(suite, 1.0, audit), 0u);
  audit.ledger_residual = -1e-3;  // |residual| matters, sign does not
  EXPECT_EQ(evaluate_count(suite, 2.0, audit), 1u);
  EXPECT_TRUE(ledger.firing);
  EXPECT_DOUBLE_EQ(ledger.last_observed, 1e-3);
  EXPECT_DOUBLE_EQ(ledger.threshold, Audit::kLedgerResidualMax);
  // Still violated: counted once.
  EXPECT_EQ(evaluate_count(suite, 3.0, audit), 0u);
  EXPECT_EQ(ledger.alerts, 1u);
  EXPECT_DOUBLE_EQ(ledger.last_sim_time, 3.0);
  // Recovers, then violates again: a second rising edge.
  audit.ledger_residual = 0.0;
  EXPECT_EQ(evaluate_count(suite, 4.0, audit), 0u);
  EXPECT_FALSE(ledger.firing);
  audit.ledger_residual = 2e-3;
  EXPECT_EQ(evaluate_count(suite, 5.0, audit), 1u);
  EXPECT_EQ(ledger.alerts, 2u);
  EXPECT_DOUBLE_EQ(ledger.first_sim_time, 2.0);
  EXPECT_FALSE(suite.healthy());
}

TEST(MonitorSuite, LeaseLeakUsesGraceAndFinalSemantics) {
  MonitorSuite suite;
  Audit audit = clean_audit();
  const MonitorState& leak = suite.state(MonitorKind::kLeaseLeak);
  // Mid-run, held leases within their grace are fine; only overdue ones
  // alert.
  audit.held_leases = 3;
  EXPECT_EQ(evaluate_count(suite, 1.0, audit), 0u);
  audit.overdue_leases = 1;
  EXPECT_EQ(evaluate_count(suite, 2.0, audit), 1u);
  EXPECT_EQ(leak.alerts, 1u);
  EXPECT_DOUBLE_EQ(leak.last_observed, 1.0);
  // At a drained end every held lease counts.
  audit.overdue_leases = 0;
  EXPECT_EQ(evaluate_count(suite, 3.0, audit), 0u);
  audit.completed = 9;
  audit.open_submissions = 0;
  audit.open_spans = 0;
  audit.drained = true;
  EXPECT_EQ(evaluate_count(suite, 4.0, audit), 1u);
  EXPECT_EQ(leak.alerts, 2u);
  EXPECT_DOUBLE_EQ(leak.last_observed, 3.0);
  EXPECT_EQ(audit.first_failure(), MonitorKind::kLeaseLeak);
}

TEST(MonitorSuite, SpanBalanceComparesOpenRootsToInFlight) {
  MonitorSuite suite;
  Audit audit = clean_audit();

  EXPECT_EQ(evaluate_count(suite, 1.0, audit), 0u);
  audit.open_submissions = 6;  // one root left open without a job in flight
  EXPECT_EQ(evaluate_count(suite, 2.0, audit), 1u);
  EXPECT_EQ(suite.state(MonitorKind::kSpanBalance).alerts, 1u);
  EXPECT_DOUBLE_EQ(suite.state(MonitorKind::kSpanBalance).last_observed, 1.0);
  // At a drained end any open span, root or not, breaks the balance, and
  // so does a job still counted in flight.
  Audit end = clean_audit();
  end.completed = 9;
  end.open_submissions = 0;
  end.open_spans = 1;
  end.drained = true;
  EXPECT_EQ(end.first_failure(), MonitorKind::kSpanBalance);
  end.open_spans = 0;
  EXPECT_TRUE(end.ok());
  end.completed = 8;
  EXPECT_EQ(end.first_failure(), MonitorKind::kSpanBalance);
}

TEST(MonitorSuite, StallIsCountedOncePerEpisode) {
  MonitorSuite suite;
  const MonitorState& stall = suite.state(MonitorKind::kBarrierStall);
  // The server thread reports the stall: visible in the states at once.
  suite.report_stall(123.0, 42.0, 10.0);
  EXPECT_EQ(stall.alerts, 1u);
  EXPECT_TRUE(stall.firing);
  EXPECT_DOUBLE_EQ(stall.first_sim_time, 123.0);
  // Re-reports of the same episode do not double-count.
  suite.report_stall(123.0, 43.0, 10.0);
  EXPECT_EQ(stall.alerts, 1u);
  EXPECT_DOUBLE_EQ(stall.last_observed, 43.0);
  EXPECT_DOUBLE_EQ(stall.threshold, 10.0);
  // A publish evaluates the audit terms and leaves the stall alone.
  EXPECT_EQ(evaluate_count(suite, 123.0, clean_audit()), 0u);
  EXPECT_TRUE(stall.firing);
  // After progress resumes, a new stall is a new episode.
  suite.clear_stall();
  suite.report_stall(200.0, 50.0, 10.0);
  EXPECT_EQ(stall.alerts, 2u);
  EXPECT_DOUBLE_EQ(stall.first_sim_time, 123.0);
  EXPECT_DOUBLE_EQ(stall.last_sim_time, 200.0);
}

// -------------------------------------------------------------- LivePlane

/// A plane over a fabricated simulation: its own registry + trace ring, no
/// sockets unless `serve`. publish() hands the plane what a run loop would.
struct PlaneFixture {
  MetricsRegistry metrics;
  TraceBuffer trace{1 << 10};
  std::uint64_t executed = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  double residual = 0.0;

  LiveConfig config;
  std::unique_ptr<LivePlane> plane;

  explicit PlaneFixture(bool serve = false) {
    metrics.counter("faucets_test_events_total", "events").inc(7);
    metrics.gauge("faucets_test_level", "level").set(2.5);
    metrics.histogram("faucets_test_wait_seconds", {1.0, 10.0}, "wait")
        .observe(3.0);
    config.serve = serve;
    config.publish_interval = 0.0;  // every publish() call captures
    plane = std::make_unique<LivePlane>(config, metrics, trace);
  }

  /// A clean grid in flight: one open root per job in flight.
  [[nodiscard]] RunSample sample(double sim_now) const {
    RunSample s;
    s.sim_time = sim_now;
    s.audit.submitted = submitted;
    s.audit.completed = completed;
    s.audit.open_submissions = submitted - completed;
    s.audit.ledger_residual = residual;
    s.events_executed = executed;
    return s;
  }
  void publish(double sim_now) { plane->publish(sample(sim_now)); }
};

TEST(LivePlane, MetricsEndpointRendersPrometheusText) {
  PlaneFixture fx;
  fx.plane->begin_run();
  fx.executed = 123;
  fx.publish(10.0);
  const HttpResponse res = fx.plane->handle("/metrics");
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.body.find("# TYPE faucets_test_events_total counter"),
            std::string::npos)
      << res.body;
  EXPECT_NE(res.body.find("faucets_test_events_total 7"), std::string::npos);
  EXPECT_NE(res.body.find("faucets_test_level 2.5"), std::string::npos);
  EXPECT_NE(res.body.find("faucets_test_wait_seconds_bucket{le=\"10\"} 1"),
            std::string::npos)
      << res.body;
  EXPECT_NE(res.body.find("faucets_test_wait_seconds_sum 3"),
            std::string::npos);
  EXPECT_NE(res.body.find("faucets_live_publishes_total 1"),
            std::string::npos);
  EXPECT_NE(res.body.find("faucets_alerts_total{monitor=\"lease_leak\"} 0"),
            std::string::npos);
}

TEST(LivePlane, MetricsEndpointIsTheArtifactExporterPlusPlaneSeries) {
  PlaneFixture fx;
  // Labelled series sharing a base name with the fixture's plain ones.
  fx.metrics.counter("faucets_test_events_total{cluster=\"b\"}", "events").inc(3);
  fx.metrics.histogram("faucets_test_wait_seconds{cluster=\"b\"}", {1.0, 10.0},
                       "wait")
      .observe(30.0);
  // Overflow the 1024-record ring so the dropped-records counter shows.
  for (int i = 0; i < 1100; ++i) {
    fx.trace.record(job_event(1.0, EntityId{1}, TraceEventKind::kJobStarted,
                              ClusterId{0}, JobId{11}, UserId{2}, 4));
  }
  fx.plane->begin_run();
  fx.publish(1.0);
  // The registry grows and moves between publishes.
  fx.metrics.gauge("faucets_test_late", "registered after a publish").set(0.1);
  fx.metrics.counter("faucets_test_events_total").inc(5);
  fx.publish(2.0);

  std::ostringstream want;
  write_prometheus(want, fx.metrics);
  want << "# HELP faucets_live_publishes_total Snapshot publishes from the "
          "simulation thread\n"
          "# TYPE faucets_live_publishes_total counter\n"
          "faucets_live_publishes_total 2\n"
          "# HELP faucets_alerts_total Online invariant monitor alerts "
          "(rising edges into violation)\n"
          "# TYPE faucets_alerts_total counter\n";
  for (std::size_t m = 0; m < kMonitorKindCount; ++m) {
    want << "faucets_alerts_total{monitor=\""
         << to_string(static_cast<MonitorKind>(m)) << "\"} 0\n";
  }
  want << "# HELP faucets_trace_dropped_total Trace events lost to the "
          "bounded ring; the exported window is truncated\n"
          "# TYPE faucets_trace_dropped_total counter\n"
          "faucets_trace_dropped_total 76\n";
  // Scrapes read the last publish, not the live registry.
  fx.metrics.counter("faucets_test_events_total").inc(100);
  EXPECT_EQ(fx.plane->handle("/metrics").body, want.str());
}

TEST(LivePlane, ProgressEndpointTracksJobs) {
  PlaneFixture fx;
  fx.plane->begin_run();
  fx.executed = 1000;
  fx.submitted = 30;
  fx.completed = 12;
  fx.publish(42.0);
  const HttpResponse res = fx.plane->handle("/progress");
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.body.find("\"schema\":\"faucets.live.progress.v3\""),
            std::string::npos);
  EXPECT_NE(res.body.find("\"sim_time\":42"), std::string::npos) << res.body;
  EXPECT_NE(res.body.find("\"events_executed\":1000"), std::string::npos);
  EXPECT_NE(res.body.find("\"submitted\":30"), std::string::npos);
  EXPECT_NE(res.body.find("\"in_flight\":18"), std::string::npos);
  EXPECT_NE(res.body.find("\"run_active\":true"), std::string::npos);
  fx.plane->end_run(fx.sample(50.0));
  const HttpResponse done = fx.plane->handle("/progress");
  EXPECT_NE(done.body.find("\"finished\":true"), std::string::npos);
}

TEST(LivePlane, HealthzFlipsTo503OnViolationAndCountsItOnce) {
  PlaneFixture fx;
  fx.plane->begin_run();
  EXPECT_EQ(fx.plane->handle("/healthz").status, 200);
  fx.residual = 0.5;  // conservation broken
  fx.publish(5.0);
  const HttpResponse res = fx.plane->handle("/healthz");
  EXPECT_EQ(res.status, 503);
  EXPECT_NE(res.body.find("\"status\":\"alert\""), std::string::npos);
  EXPECT_NE(
      res.body.find(
          "\"monitor\":\"ledger_conservation\",\"alerts\":1,\"firing\":true"),
      std::string::npos)
      << res.body;
  // Edge-triggered: a second violated publish counts no second alert, and
  // the alert stays in the plane: the simulation's ring gets nothing.
  fx.publish(6.0);
  EXPECT_EQ(fx.plane->alerts_total(), 1u);
  EXPECT_EQ(fx.trace.total_recorded(), 0u);
}

TEST(LivePlane, TracesRecentRendersRingTailAsJsonl) {
  PlaneFixture fx;
  fx.plane->begin_run();
  fx.trace.record(job_event(1.0, EntityId{1}, TraceEventKind::kJobStarted,
                            ClusterId{0}, JobId{11}, UserId{2}, 4));
  fx.trace.record(job_event(2.0, EntityId{1}, TraceEventKind::kJobCompleted,
                            ClusterId{0}, JobId{11}, UserId{2}, 4));
  fx.publish(2.0);
  const HttpResponse res = fx.plane->handle("/traces/recent");
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.body.find("\"kind\":\"JOB_STARTED\""), std::string::npos)
      << res.body;
  EXPECT_NE(res.body.find("\"kind\":\"JOB_COMPLETED\""), std::string::npos);
  // Two lines, newline-terminated.
  EXPECT_EQ(std::count(res.body.begin(), res.body.end(), '\n'), 2);
}

TEST(LivePlane, UnknownPathIs404) {
  PlaneFixture fx;
  EXPECT_EQ(fx.plane->handle("/nope").status, 404);
}

TEST(LivePlane, SchemaRecaptureFollowsRegistryGrowth) {
  PlaneFixture fx;
  fx.plane->begin_run();
  fx.publish(1.0);
  fx.metrics.counter("faucets_test_late_total", "registered mid-run").inc(9);
  fx.publish(2.0);
  const HttpResponse res = fx.plane->handle("/metrics");
  EXPECT_NE(res.body.find("faucets_test_late_total 9"), std::string::npos)
      << res.body;
}

// The TSan-guarded concurrency pin: hammer every endpoint from several
// client threads while the "simulation thread" keeps publishing.
TEST(LivePlane, ConcurrentScrapesDuringPublishesAreRaceFree) {
  PlaneFixture fx(/*serve=*/true);
  ASSERT_TRUE(fx.plane->serving());
  const std::uint16_t port = fx.plane->port();
  fx.plane->begin_run();

  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  const char* paths[] = {"/metrics", "/healthz", "/progress",
                         "/traces/recent"};
  scrapers.reserve(4);
  for (const char* path : paths) {
    scrapers.emplace_back([port, path] {
      for (int i = 0; i < 10; ++i) {
        const std::string res = http_get(port, path);
        EXPECT_NE(res.find("HTTP/1.1"), std::string::npos);
      }
    });
  }
  std::thread sim([&] {
    double t = 0.0;
    while (!stop.load(std::memory_order_relaxed)) {
      t += 1.0;
      ++fx.executed;
      fx.trace.record(job_event(t, EntityId{1}, TraceEventKind::kJobStarted,
                                ClusterId{0}, JobId{1}, UserId{1}, 1));
      fx.publish(t);
    }
  });
  for (auto& s : scrapers) s.join();
  stop.store(true, std::memory_order_relaxed);
  sim.join();
  RunSample end = fx.sample(1000.0);
  end.audit.drained = true;
  fx.plane->end_run(end);
  EXPECT_EQ(fx.plane->alerts_total(), 0u);
}

/// A sample at `sim_now`: the stall tests need nothing else from a run.
RunSample at(double sim_now) {
  RunSample s;
  s.sim_time = sim_now;
  return s;
}

TEST(LivePlane, StallWatchdogFiresFromServerThreadWhileSimIsStuck) {
  // A tiny threshold so the watchdog trips within one poll interval.
  MetricsRegistry metrics;
  TraceBuffer trace{64};
  LiveConfig config;
  config.serve = true;
  config.publish_interval = 0.0;
  config.stall_timeout = 0.02;  // 20ms of host time
  LivePlane plane(config, metrics, trace);
  ASSERT_TRUE(plane.serving());

  plane.begin_run();
  plane.publish(at(5.0));
  // The "simulation" now hangs. The server thread must notice on its own.
  for (int i = 0; i < 500; ++i) {
    if (plane.handle("/healthz").status == 503) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const HttpResponse res = plane.handle("/healthz");
  EXPECT_EQ(res.status, 503);
  EXPECT_NE(res.body.find("\"stalled\":true"), std::string::npos) << res.body;
  EXPECT_NE(res.body.find("\"monitor\":\"barrier_stall\",\"alerts\":1"),
            std::string::npos)
      << res.body;
  // The next publish at the same sim time leaves it firing, and the alert
  // stays in the plane's states, never in the simulation's ring.
  plane.publish(at(5.0));
  EXPECT_EQ(plane.monitor_states()[static_cast<std::size_t>(
                                       MonitorKind::kBarrierStall)]
                .alerts,
            1u);
  EXPECT_EQ(trace.total_recorded(), 0u);
  // Progress resumes: healthz keeps the alert count but stops firing.
  plane.publish(at(6.0));
  EXPECT_NE(plane.handle("/healthz").body.find("\"stalled\":false"),
            std::string::npos);
}

TEST(LivePlane, StallWatchdogIsHeldAcrossDeliberatePauses) {
  // A checkpoint capture (GridSystem::maybe_pause) may exceed stall_timeout;
  // the watchdog must stay quiet for the whole bracket and re-arm from the
  // release instant, or a run that checkpoints would report a stall (and
  // gain an Alerts table in its HTML report) that a run without one lacks.
  MetricsRegistry metrics;
  TraceBuffer trace{64};
  LiveConfig config;
  config.serve = true;
  config.publish_interval = 0.0;
  config.stall_timeout = 0.02;  // 20ms of host time
  LivePlane plane(config, metrics, trace);
  ASSERT_TRUE(plane.serving());

  plane.begin_run();
  plane.publish(at(5.0));
  plane.begin_pause();
  // "Checkpoint capture" for 12 poll intervals, 60x the stall timeout: no
  // alert may fire.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(12 * HttpServer::kPollIntervalMs / 10));
  EXPECT_EQ(plane.handle("/healthz").status, 200);
  EXPECT_EQ(plane.alerts_total(), 0u);
  plane.end_pause();
  plane.publish(at(5.0));
  EXPECT_EQ(plane.handle("/healthz").status, 200);
  // Released and re-armed, not disarmed: a real post-pause stall still fires.
  for (int i = 0; i < 500; ++i) {
    if (plane.handle("/healthz").status == 503) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(plane.handle("/healthz").status, 503);
  EXPECT_EQ(plane.alerts_total(), 1u);
}

}  // namespace
}  // namespace faucets::obs::live
