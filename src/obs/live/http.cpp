#include "src/obs/live/http.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

// A scraper that disconnects mid-response (curl timeout, cancelled
// Prometheus scrape) must surface as EPIPE from send(), not as a SIGPIPE
// that kills the simulation this plane exists to observe.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // platforms without it use SO_NOSIGPIPE per socket
#endif

namespace faucets::obs::live {

namespace {

const char* reason_of(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Error";
  }
}

}  // namespace

bool HttpServer::start(std::uint16_t port, Handler handler, IdleHook idle) {
  if (listen_fd_.load(std::memory_order_relaxed) >= 0 || !handler) {
    return false;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 8) != 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return false;
  }
  int wake[2];
  if (::pipe(wake) != 0) {
    ::close(fd);
    return false;
  }
  wake_read_ = wake[0];
  wake_write_ = wake[1];
  listen_fd_.store(fd, std::memory_order_relaxed);
  port_.store(ntohs(bound.sin_port), std::memory_order_relaxed);
  handler_ = std::move(handler);
  idle_ = std::move(idle);
  stop_requested_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void HttpServer::stop() {
  const int fd = listen_fd_.load(std::memory_order_relaxed);
  if (fd < 0) return;
  stop_requested_.store(true, std::memory_order_relaxed);
  const char byte = 0;
  (void)!::write(wake_write_, &byte, 1);  // wake the accept poll now
  if (thread_.joinable()) thread_.join();
  ::close(fd);
  ::close(wake_read_);
  ::close(wake_write_);
  listen_fd_.store(-1, std::memory_order_relaxed);
  wake_read_ = -1;
  wake_write_ = -1;
  port_.store(0, std::memory_order_relaxed);
}

void HttpServer::loop() {
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    pollfd pfds[2] = {};
    pfds[0].fd = listen_fd_.load(std::memory_order_relaxed);
    pfds[0].events = POLLIN;
    pfds[1].fd = wake_read_;
    pfds[1].events = POLLIN;
    const int r = ::poll(pfds, 2, kPollIntervalMs);
    if (idle_) idle_();
    if (r <= 0 || (pfds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_.load(std::memory_order_relaxed),
                              nullptr, nullptr);
    if (conn < 0) continue;
    // Non-blocking: serve_one gates every read/send on a bounded poll, and
    // a blocking send() would otherwise sleep until the WHOLE remaining
    // response fits the socket buffer — a client that stops reading could
    // pin this thread (and stop(), which joins it) indefinitely.
    if (const int fl = ::fcntl(conn, F_GETFL, 0); fl >= 0) {
      ::fcntl(conn, F_SETFL, fl | O_NONBLOCK);
    }
#ifdef SO_NOSIGPIPE
    const int one = 1;
    ::setsockopt(conn, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
    serve_one(conn);
    ::close(conn);
  }
}

void HttpServer::serve_one(int fd) {
  // Read until the end of the request headers (or a small cap — the plane
  // only serves parameterless GETs, so anything longer is not ours).
  std::string request;
  char buf[2048];
  while (request.size() < 16 * 1024 &&
         request.find("\r\n\r\n") == std::string::npos) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 1000) <= 0) return;  // slow client: drop it
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;  // spurious wakeup on the non-blocking fd: re-poll
    }
    if (n <= 0) return;
    request.append(buf, static_cast<std::size_t>(n));
  }

  HttpResponse res;
  const std::size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    res = {405, "text/plain; charset=utf-8", "bad request\n"};
  } else if (line.substr(0, sp1) != "GET") {
    res = {405, "text/plain; charset=utf-8", "only GET is supported\n"};
  } else {
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (const std::size_t q = path.find('?'); q != std::string::npos) {
      path.resize(q);
    }
    res = handler_(path);
  }

  std::string head = "HTTP/1.1 " + std::to_string(res.status) + " " +
                     reason_of(res.status) +
                     "\r\nContent-Type: " + res.content_type +
                     "\r\nContent-Length: " + std::to_string(res.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  head += res.body;
  std::size_t off = 0;
  while (off < head.size()) {
    // Bounded like the read side: a client that stops reading must not pin
    // the server thread (stop() joins it, and the stall watchdog rides its
    // idle hook), so drop the connection on a stop request or a reader that
    // stays unwritable for a second.
    if (stop_requested_.load(std::memory_order_relaxed)) return;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    if (::poll(&pfd, 1, 1000) <= 0) return;  // stalled reader: drop it
    const ssize_t n =
        ::send(fd, head.data() + off, head.size() - off, MSG_NOSIGNAL);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;  // buffer refilled between poll and send: re-poll
    }
    if (n <= 0) return;  // EPIPE et al: client went away
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace faucets::obs::live
