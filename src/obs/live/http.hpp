// Dependency-free embedded HTTP server for the live operations plane
// (DESIGN.md §15): a blocking POSIX socket accept loop on one dedicated
// background thread, bound to 127.0.0.1. No third-party libraries, no
// keep-alive, no TLS — this is a monitoring sidecar for curl / Prometheus
// scrapes, one connection at a time, deliberately boring.
//
// The accept loop polls with a short timeout (kPollIntervalMs) so the owner
// can piggyback periodic host-time work (the stall watchdog) on the same
// thread via the idle hook — the server thread is the one thread that is
// guaranteed alive even when the simulation thread is stuck.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

namespace faucets::obs::live {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpServer {
 public:
  /// Handler runs on the server thread for each GET; `path` excludes the
  /// query string. Non-GET methods are answered 405 before the handler.
  using Handler = std::function<HttpResponse(const std::string& path)>;
  /// Idle hook runs on the server thread every poll timeout (and between
  /// connections) — host-time periodic work that must not depend on the
  /// simulation thread making progress.
  using IdleHook = std::function<void()>;

  /// Accept-poll timeout, and so the idle hook's cadence.
  static constexpr int kPollIntervalMs = 100;

  HttpServer() = default;
  ~HttpServer() { stop(); }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind 127.0.0.1:`port` (0 picks an ephemeral port) and start the accept
  /// thread. Returns false (and serves nothing) if the socket setup fails.
  bool start(std::uint16_t port, Handler handler, IdleHook idle = {});

  /// Stop the accept thread and close the socket. Idempotent.
  void stop();

  /// The actually bound port (after start with port 0), 0 when not serving.
  [[nodiscard]] std::uint16_t port() const noexcept {
    return port_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool serving() const noexcept {
    return listen_fd_.load(std::memory_order_relaxed) >= 0;
  }

 private:
  void loop();
  void serve_one(int fd);

  // Atomic because serving()/port() are read from other threads (the
  // ticker polls serving() while ~LivePlane may be mid-stop()).
  std::atomic<int> listen_fd_{-1};
  // Self-pipe: stop() writes one byte so the accept poll wakes immediately
  // instead of riding out the poll timeout (teardown would otherwise cost up
  // to kPollIntervalMs per run — dominant for short runs, see bench_live).
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::atomic<std::uint16_t> port_{0};
  std::atomic<bool> stop_requested_{false};
  Handler handler_;
  IdleHook idle_;
  std::thread thread_;
};

}  // namespace faucets::obs::live
