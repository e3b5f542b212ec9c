#include "telemetry/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "telemetry/exporters.h"
#include "telemetry/telemetry.h"

namespace greta::telemetry {

namespace {

// How long an accepted connection may take to deliver its request head,
// and how long its peer may take to accept the whole response. One thread
// accepts and serves every connection, so without a deadline a client that
// connects and sends nothing — or requests a large body and never reads
// it — would freeze /metrics and /healthz alike.
constexpr std::chrono::milliseconds kRequestDeadline{1000};

std::string StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

// Sends `data` unless `deadline` passes first: the socket is polled for
// room before every non-blocking send, so a peer that stops reading cannot
// park the caller. Returns false when the deadline passed or the peer went
// away (scrape clients just retry).
bool SendAll(int fd, const std::string& data,
             std::chrono::steady_clock::time_point deadline) {
  size_t off = 0;
  while (off < data.size()) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK)) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

void SendResponse(int fd, const HttpServer::Response& r) {
  const auto deadline = std::chrono::steady_clock::now() + kRequestDeadline;
  std::string head = "HTTP/1.1 " + std::to_string(r.status) + " " +
                     StatusText(r.status) +
                     "\r\nContent-Type: " + r.content_type +
                     "\r\nContent-Length: " + std::to_string(r.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (SendAll(fd, head, deadline)) SendAll(fd, r.body, deadline);
}

}  // namespace

HttpServer::HttpServer(MetricRegistry& registry) : registry_(registry) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::SetHandler(const std::string& prefix, Handler handler) {
  for (auto& entry : handlers_) {
    if (entry.first == prefix) {
      entry.second = std::move(handler);
      return;
    }
  }
  handlers_.emplace_back(prefix, std::move(handler));
}

bool HttpServer::Start(uint16_t port) {
  if (serving_.load(std::memory_order_acquire)) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // observability is local
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    error_ = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 16) < 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  stop_.store(false, std::memory_order_release);
  serving_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void HttpServer::Stop() {
  if (!serving_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  serving_.store(false, std::memory_order_release);
}

void HttpServer::AcceptLoop() {
  // poll with a short timeout so Stop() is observed promptly without
  // needing a self-pipe; scrapes are human/CI-rate, not latency-critical.
  pollfd pfd{listen_fd_, POLLIN, 0};
  while (!stop_.load(std::memory_order_acquire)) {
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready <= 0) continue;  // timeout or EINTR
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    HandleConnection(fd);
    ::close(fd);
  }
}

void HttpServer::HandleConnection(int fd) {
  // Read until the header terminator; GET requests have no body. 8 KiB is
  // generous for "GET /path HTTP/1.1" plus scrape-client headers.
  const auto deadline = std::chrono::steady_clock::now() + kRequestDeadline;
  std::string req;
  char buf[2048];
  while (req.size() < 8192 && req.find("\r\n\r\n") == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    req.append(buf, static_cast<size_t>(n));
  }
  const size_t line_end = req.find("\r\n");
  if (line_end == std::string::npos) return;  // malformed; just drop

  const std::string line = req.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return;
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  if (method != "GET") {
    SendResponse(fd, Response{405, "text/plain", "only GET is served\n"});
    return;
  }
  SendResponse(fd, Route(path));
}

HttpServer::Response HttpServer::Route(const std::string& path) {
  if (path == "/metrics") {
    return Response{200, "text/plain; version=0.0.4",
                    ExportPrometheus(registry_)};
  }
  if (path == "/snapshot") {
    return Response{200, "application/json",
                    ExportJson(registry_, /*include_trace=*/true)};
  }
  if (path == "/trace") {
    // Just the trace array: slice it out of the snapshot document so both
    // views render events identically (when_ns + ISO time included).
    const std::string snap = ExportJson(registry_, /*include_trace=*/true);
    const size_t key = snap.find("\"trace\":");
    std::string body = "[]";
    if (key != std::string::npos) {
      body = snap.substr(key + 8, snap.size() - key - 8 - 1);
    }
    return Response{200, "application/json", body};
  }
  if (path == "/explain") {
    return Response{200, "text/plain", ExplainTelemetry(registry_)};
  }
  // Registered handlers: longest matching prefix wins so "/queries/3"
  // prefers a "/queries" handler over a hypothetical "/" catch-all.
  const std::pair<std::string, Handler>* best = nullptr;
  for (const auto& entry : handlers_) {
    const std::string& prefix = entry.first;
    const bool matches =
        path.size() >= prefix.size() &&
        path.compare(0, prefix.size(), prefix) == 0 &&
        (path.size() == prefix.size() || path[prefix.size()] == '/');
    if (matches && (best == nullptr || prefix.size() > best->first.size())) {
      best = &entry;
    }
  }
  if (best != nullptr) {
    return best->second(path.substr(best->first.size()));
  }
  return Response{404, "text/plain",
                  "not found; try /metrics /snapshot /trace /explain\n"};
}

bool HttpGet(uint16_t port, const std::string& path, int* status,
             std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return false;
  }
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  const auto deadline = std::chrono::steady_clock::now() + kRequestDeadline;
  if (!SendAll(fd, req, deadline)) {
    ::close(fd);
    return false;
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos || raw.compare(0, 5, "HTTP/") != 0) {
    return false;
  }
  const size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > raw.size()) return false;
  if (status != nullptr) *status = std::atoi(raw.c_str() + sp + 1);
  if (body != nullptr) *body = raw.substr(header_end + 4);
  return true;
}

}  // namespace greta::telemetry
