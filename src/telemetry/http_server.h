#ifndef GRETA_TELEMETRY_HTTP_SERVER_H_
#define GRETA_TELEMETRY_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace greta::telemetry {

class MetricRegistry;

/// Minimal embedded HTTP/1.1 server for observability scrapes: raw POSIX
/// sockets, one accept thread, serial request handling (scrapes are rare
/// and cheap; there is nothing to pipeline). GET-only; anything else gets
/// 405. Each connection gets one second to deliver its request head; an
/// idle client is then closed unanswered, so it cannot hold the accept
/// thread. Not a general web server — a /metrics-style exposition surface.
///
/// Built-in routes (all backed by the bound MetricRegistry):
///   /metrics   Prometheus text exposition (ExportPrometheus)
///   /snapshot  one-line JSON snapshot incl. trace (ExportJson)
///   /trace     trace-ring tail as a JSON array
///   /explain   human-readable report (ExplainTelemetry)
///
/// Additional routes (e.g. /healthz, /queries) are registered via
/// SetHandler; the runtime layer binds them in
/// runtime/observability.{h,cc} so telemetry/ stays free of runtime
/// dependencies.
class HttpServer {
 public:
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; version=0.0.4";
    std::string body;
  };
  /// Handler gets the path remainder after its prefix ("" or "/<suffix>").
  using Handler = std::function<Response(const std::string& rest)>;

  explicit HttpServer(MetricRegistry& registry);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers (or replaces) a handler for `prefix` (e.g. "/healthz",
  /// "/queries"). A request matches if the path equals the prefix or
  /// continues with '/'. Longest prefix wins. Must be called before
  /// Start() or between Stop()/Start() — handlers are read by the accept
  /// thread without locking once serving.
  void SetHandler(const std::string& prefix, Handler handler);

  /// Binds 127.0.0.1:port (port 0 = ephemeral) and launches the accept
  /// thread. Returns false (with strerror detail in `error()`) on bind
  /// failure. Idempotent: returns true if already serving.
  bool Start(uint16_t port);

  /// Joins the accept thread and closes the listener. Safe to call twice.
  void Stop();

  bool serving() const { return serving_.load(std::memory_order_acquire); }
  /// The bound port (resolved via getsockname when Start(0) was used).
  uint16_t port() const { return port_; }
  const std::string& error() const { return error_; }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  Response Route(const std::string& path);

  MetricRegistry& registry_;
  std::vector<std::pair<std::string, Handler>> handlers_;
  std::thread thread_;
  std::atomic<bool> serving_{false};
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::string error_;
};

/// Blocking one-shot HTTP GET against 127.0.0.1:port used by tests and
/// the bench self-scraper. Returns false on connect/read failure; on
/// success fills `status` and `body` (headers stripped).
bool HttpGet(uint16_t port, const std::string& path, int* status,
             std::string* body);

}  // namespace greta::telemetry

#endif  // GRETA_TELEMETRY_HTTP_SERVER_H_
