// Embedded observability endpoint (src/telemetry/http_server.h +
// src/runtime/observability.h): route serving on an ephemeral port, the
// stall detector's /healthz verdict flipping to 503 for a deliberately
// wedged shard (and recovering), per-query EXPLAIN ANALYZE reports whose
// observed structural counters must agree with EngineStats, and result
// determinism while a scraper hammers the endpoint mid-stream.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "query/parser.h"
#include "runtime/observability.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/http_server.h"
#include "telemetry/telemetry.h"
#include "workload/stock.h"

namespace greta {
namespace {

using runtime::ShardedOptions;
using runtime::ShardedRuntime;
using telemetry::HttpGet;
using telemetry::HttpServer;
using telemetry::MetricRegistry;

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

std::string TrendQuery(Ts within, const std::string& aggs = "COUNT(*)") {
  return "RETURN sector, " + aggs +
         " PATTERN Stock S+ WHERE [company, sector] AND S.price > "
         "NEXT(S).price GROUP-BY sector WITHIN " +
         std::to_string(within) + " seconds SLIDE 5 seconds";
}

Stream MakeStockStream(Catalog* catalog, int rate = 50, Ts duration = 40) {
  StockConfig config;
  config.seed = 7;
  config.num_companies = 10;
  config.num_sectors = 3;
  config.rate = rate;
  config.duration = duration;
  config.drift = 0.3;
  return GenerateStockStream(catalog, config);
}

// A loopback TCP connection to `port`, or -1.
int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One GET that gives up after `timeout` instead of blocking like HttpGet,
// so a wedged server fails the test rather than hanging it. Fills `status`
// and returns true on a complete response.
bool GetWithTimeout(uint16_t port, const std::string& path,
                    std::chrono::milliseconds timeout, int* status) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return false;
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return false;
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::string raw;
  char buf[4096];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      ::close(fd);
      return false;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t sp = raw.find(' ');
  if (raw.compare(0, 5, "HTTP/") != 0 || sp == std::string::npos) {
    return false;
  }
  *status = std::atoi(raw.c_str() + sp + 1);
  return true;
}

// ------------------------------------------------------------ raw server

TEST(HttpServer, ServesRegistryRoutesOnEphemeralPort) {
  MetricRegistry reg;
  reg.GetCounter("greta_probe_total")->Add(42);
  HttpServer server(reg);
  ASSERT_TRUE(server.Start(0)) << server.error();
  ASSERT_TRUE(server.serving());
  ASSERT_NE(server.port(), 0);

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/metrics", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("greta_probe_total 42"), std::string::npos);

  ASSERT_TRUE(HttpGet(server.port(), "/snapshot", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"counters\""), std::string::npos);
  EXPECT_NE(body.find("\"trace\""), std::string::npos);

  ASSERT_TRUE(HttpGet(server.port(), "/trace", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.front(), '[');  // the trace array alone

  ASSERT_TRUE(HttpGet(server.port(), "/explain", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("== telemetry =="), std::string::npos);

  ASSERT_TRUE(HttpGet(server.port(), "/nope", &status, &body));
  EXPECT_EQ(status, 404);

  // Query strings are stripped before routing.
  ASSERT_TRUE(HttpGet(server.port(), "/metrics?format=text", &status,
                      &body));
  EXPECT_EQ(status, 200);

  server.Stop();
  EXPECT_FALSE(server.serving());
  // Stop is idempotent; Start works again on a fresh port.
  server.Stop();
  ASSERT_TRUE(server.Start(0)) << server.error();
  ASSERT_TRUE(HttpGet(server.port(), "/metrics", &status, &body));
  EXPECT_EQ(status, 200);
  server.Stop();
}

TEST(HttpServer, CustomHandlersLongestPrefixWins) {
  MetricRegistry reg;
  HttpServer server(reg);
  server.SetHandler("/api", [](const std::string& rest) {
    return HttpServer::Response{200, "text/plain", "api:" + rest};
  });
  server.SetHandler("/api/deep", [](const std::string& rest) {
    return HttpServer::Response{200, "text/plain", "deep:" + rest};
  });
  ASSERT_TRUE(server.Start(0)) << server.error();

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/api", &status, &body));
  EXPECT_EQ(body, "api:");
  ASSERT_TRUE(HttpGet(server.port(), "/api/x", &status, &body));
  EXPECT_EQ(body, "api:/x");
  ASSERT_TRUE(HttpGet(server.port(), "/api/deep/y", &status, &body));
  EXPECT_EQ(body, "deep:/y");
  // "/apix" shares the byte prefix but not a path segment: no match.
  ASSERT_TRUE(HttpGet(server.port(), "/apix", &status, &body));
  EXPECT_EQ(status, 404);
  server.Stop();
}

// ------------------------------------------------- runtime-backed routes

TEST(HttpEndpoint, HealthzFlipsTo503ForWedgedShardAndRecovers) {
  Catalog catalog;
  Stream stream = MakeStockStream(&catalog);
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(TrendQuery(10), &catalog));

  ShardedOptions options;
  options.num_shards = 2;
  options.batch_size = 4;    // small batches: the queue fills fast
  options.queue_capacity = 4;
  options.heartbeat_events = 16;
  auto rt = ShardedRuntime::Create(&catalog, workload, options);
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  ShardedRuntime& runtime = *rt.value();

  MetricRegistry reg;
  HttpServer server(reg);
  runtime::AttachRuntimeObservability(&server, rt.value().get());
  ASSERT_TRUE(server.Start(0)) << server.error();

  // Healthy at rest (two observations: the detector needs both).
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status, &body));
  ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"healthy\":true"), std::string::npos);

  // Wedge shard 0: its worker parks after the next pop, the clock freezes
  // and routed batches pile up in its queue.
  runtime.SetShardPausedForTest(0, true);
  size_t fed = 0;
  for (const Event& e : stream.events()) {
    Status s = runtime.Process(e);
    ASSERT_TRUE(s.ok()) << s.ToString();
    // ~12 events per shard = 3 full batches of 4: enough to leave work in
    // the wedged shard's queue, few enough that the producer never blocks
    // on its full (capacity 4) queue.
    if (++fed >= 24) break;
  }

  // Two consecutive detector observations with a frozen clock over a
  // non-empty queue: unhealthy.
  bool wedged = false;
  for (int i = 0; i < 50 && !wedged; ++i) {
    ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status, &body));
    wedged = status == 503;
    if (!wedged) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(wedged) << body;
  EXPECT_NE(body.find("\"healthy\":false"), std::string::npos);
  EXPECT_NE(body.find("\"stalled\":true"), std::string::npos);

  // Unpark: the worker drains its backlog and the verdict recovers.
  runtime.SetShardPausedForTest(0, false);
  bool recovered = false;
  for (int i = 0; i < 100 && !recovered; ++i) {
    ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status, &body));
    recovered = status == 200;
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(recovered) << body;

  ASSERT_TRUE(runtime.Flush().ok());
  server.Stop();
}

// One thread accepts and serves every connection: a client that connects
// and never sends its request must be dropped at the request deadline, so
// a health check queued behind it is still answered.
TEST(HttpEndpoint, IdleConnectionDoesNotWedgeHealthz) {
  Catalog catalog;
  RegisterStockTypes(&catalog);
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(TrendQuery(10), &catalog));
  auto rt = ShardedRuntime::Create(&catalog, workload, ShardedOptions{});
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();

  MetricRegistry reg;
  HttpServer server(reg);
  runtime::AttachRuntimeObservability(&server, rt.value().get());
  ASSERT_TRUE(server.Start(0)) << server.error();
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status, &body));

  const int idle = ConnectLoopback(server.port());
  ASSERT_GE(idle, 0);
  status = 0;
  const bool answered = GetWithTimeout(server.port(), "/healthz",
                                       std::chrono::seconds(10), &status);
  // Close the idle client before asserting: a server still blocked on it
  // would otherwise never let Stop() join.
  ::close(idle);
  EXPECT_TRUE(answered) << "health check starved behind an idle client";
  EXPECT_EQ(status, 200);

  ASSERT_TRUE(rt.value()->Flush().ok());
  server.Stop();
}

// The send side is bounded too: a client that requests a large body and
// never reads it fills its receive window, and the server must abandon the
// response at the deadline instead of blocking the only accept thread.
TEST(HttpEndpoint, NonReadingClientDoesNotWedgeHealthz) {
  Catalog catalog;
  RegisterStockTypes(&catalog);
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(TrendQuery(10), &catalog));
  auto rt = ShardedRuntime::Create(&catalog, workload, ShardedOptions{});
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();

  MetricRegistry reg;
  HttpServer server(reg);
  runtime::AttachRuntimeObservability(&server, rt.value().get());
  server.SetHandler("/big", [](const std::string&) {
    return HttpServer::Response{200, "text/plain",
                                std::string(size_t{64} << 20, 'x')};
  });
  ASSERT_TRUE(server.Start(0)) << server.error();

  // A small receive buffer, set before connect so the advertised window
  // stays small: the 64 MiB body cannot fit in flight.
  const int stuck = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stuck, 0);
  const int rcvbuf = 4096;
  ::setsockopt(stuck, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(stuck, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string req =
      "GET /big HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(stuck, req.data(), req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(req.size()));

  int status = 0;
  const bool answered = GetWithTimeout(server.port(), "/healthz",
                                       std::chrono::seconds(10), &status);
  // Close the stuck client before asserting: a server still blocked
  // sending to it would otherwise never let Stop() join.
  ::close(stuck);
  EXPECT_TRUE(answered) << "health check starved behind a non-reading client";
  EXPECT_EQ(status, 200);

  ASSERT_TRUE(rt.value()->Flush().ok());
  server.Stop();
}

TEST(HttpEndpoint, QueryReportsMatchEngineStatsWithinTenPercent) {
  Catalog catalog;
  Stream stream = MakeStockStream(&catalog);
  // Single-query workload: per-query attribution is exact (dedicated
  // engine), so the observed counters must agree with EngineStats.
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(TrendQuery(10), &catalog));

  ShardedOptions options;
  options.num_shards = 2;
  options.batch_size = 16;
  options.heartbeat_events = 32;
  auto rt = ShardedRuntime::Create(&catalog, workload, options);
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  ShardedRuntime& runtime = *rt.value();

  for (const Event& e : stream.events()) {
    ASSERT_TRUE(runtime.Process(e).ok());
  }
  ASSERT_TRUE(runtime.Flush().ok());
  const size_t rows = runtime.TakeResults(0).size();
  ASSERT_GT(rows, 0u);

  std::vector<QueryExecStats> per_query = runtime.WorkloadQueryExecStats();
  ASSERT_EQ(per_query.size(), 1u);
  const QueryExecStats& q = per_query[0];
  const EngineStats& total = runtime.stats();

  EXPECT_GT(q.windows_closed, 0u);
  EXPECT_GT(q.events_routed, 0u);
  // Per-shard engines emit rows for their partition slice; the merger then
  // combines same-window same-group rows, so the per-query tally (summed
  // over shards, pre-merge) is an upper bound on the merged output.
  EXPECT_GE(q.rows_emitted, rows);
  // Windowed deltas partition the cumulative graph counters, and Flush
  // closes every window — the sums must land within 10% of the engine
  // totals (the acceptance bound; in practice they are equal).
  EXPECT_NEAR(static_cast<double>(q.vertices_created),
              static_cast<double>(total.vertices_stored),
              0.10 * static_cast<double>(total.vertices_stored));
  EXPECT_NEAR(static_cast<double>(q.edges_traversed),
              static_cast<double>(total.edges_traversed),
              0.10 * static_cast<double>(total.edges_traversed));

  // The JSON and human reports render the same tallies.
  std::string json = runtime::QueryReportJson(runtime, 0);
  EXPECT_NE(json.find("\"query_id\":0"), std::string::npos);
  EXPECT_NE(json.find("\"windows_closed\":" +
                      std::to_string(q.windows_closed)),
            std::string::npos);
  EXPECT_EQ(runtime::QueryReportJson(runtime, 99), "");
  std::string human = runtime::ExplainAnalyze(runtime, 0);
  EXPECT_NE(human.find("EXPLAIN ANALYZE query 0"), std::string::npos);
  EXPECT_EQ(runtime::ExplainAnalyze(runtime, 99), "unknown query\n");
}

TEST(HttpEndpoint, QueriesRouteJoinsPlanEstimates) {
  Catalog catalog;
  Stream stream = MakeStockStream(&catalog, /*rate=*/20, /*duration=*/30);
  // Shareable cluster: same Kleene core, different aggregates.
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(TrendQuery(10), &catalog));
  workload.push_back(Parse(TrendQuery(10, "SUM(S.price)"), &catalog));
  workload.push_back(Parse(TrendQuery(10, "MIN(S.price)"), &catalog));

  ShardedOptions options;
  options.num_shards = 2;
  options.batch_size = 16;
  options.heartbeat_events = 32;
  options.workload.sharing.enable_sharing = true;
  auto rt = ShardedRuntime::Create(&catalog, workload, options);
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  ShardedRuntime& runtime = *rt.value();

  MetricRegistry reg;
  HttpServer server(reg);
  runtime::AttachRuntimeObservability(&server, rt.value().get());
  ASSERT_TRUE(server.Start(0)) << server.error();

  for (const Event& e : stream.events()) {
    ASSERT_TRUE(runtime.Process(e).ok());
  }
  ASSERT_TRUE(runtime.Flush().ok());

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/queries", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.front(), '[');
  // Every query is reported, each joined against its cluster's estimates.
  for (size_t qid = 0; qid < workload.size(); ++qid) {
    EXPECT_NE(body.find("\"query_id\":" + std::to_string(qid)),
              std::string::npos);
  }
  EXPECT_NE(body.find("\"cluster\""), std::string::npos);
  EXPECT_NE(body.find("\"estimated_shared_cost_per_event\""),
            std::string::npos);

  ASSERT_TRUE(HttpGet(server.port(), "/queries/1", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"query_id\":1"), std::string::npos);

  ASSERT_TRUE(HttpGet(server.port(), "/queries/42", &status, &body));
  EXPECT_EQ(status, 404);
  ASSERT_TRUE(HttpGet(server.port(), "/queries/abc", &status, &body));
  EXPECT_EQ(status, 404);
  server.Stop();
}

TEST(HttpEndpoint, QueryReportNamesItsEmissionGrid) {
  Catalog catalog;
  Stream stream = MakeStockStream(&catalog, /*rate=*/20, /*duration=*/30);
  // One partial cluster: same Kleene core, WITHIN 10 and 20, slide 5.
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(TrendQuery(10), &catalog));
  workload.push_back(Parse(TrendQuery(20), &catalog));

  for (bool adaptive : {false, true}) {
    ShardedOptions options;
    options.num_shards = 2;
    options.workload.adaptive.enabled = adaptive;
    auto rt = ShardedRuntime::Create(&catalog, workload, options);
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    ShardedRuntime& runtime = *rt.value();
    ASSERT_TRUE(runtime.sharing_plan()->clusters[0].partial);

    MetricRegistry reg;
    HttpServer server(reg);
    runtime::AttachRuntimeObservability(&server, rt.value().get());
    ASSERT_TRUE(server.Start(0)) << server.error();
    for (const Event& e : stream.events()) {
      ASSERT_TRUE(runtime.Process(e).ok());
    }
    ASSERT_TRUE(runtime.Flush().ok());

    // The shorter query is released on its own window, static or adaptive.
    int status = 0;
    std::string body;
    ASSERT_TRUE(HttpGet(server.port(), "/queries/0", &status, &body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(
        body.find("\"emission\":{\"within\":10,\"slide\":5,\"grid\":\"own\"}"),
        std::string::npos)
        << "adaptive " << adaptive << ": " << body;
    // The union query itself is on its own grid either way.
    ASSERT_TRUE(HttpGet(server.port(), "/queries/1", &status, &body));
    EXPECT_NE(body.find("\"grid\":\"own\""), std::string::npos) << body;
    EXPECT_NE(runtime::ExplainAnalyze(runtime, 0).find(
                  "emission:  grid=own within=10 slide=5"),
              std::string::npos)
        << "adaptive " << adaptive;
    server.Stop();
  }
}

TEST(HttpEndpoint, ConcurrentScrapesDoNotPerturbResults) {
  Catalog catalog;
  Stream stream = MakeStockStream(&catalog, /*rate=*/40, /*duration=*/30);
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(TrendQuery(10), &catalog));
  workload.push_back(Parse(TrendQuery(10, "SUM(S.price)"), &catalog));
  ShardedOptions options;
  options.num_shards = 2;
  options.batch_size = 16;
  options.heartbeat_events = 32;

  // Reference run, no endpoint.
  auto ref = ShardedRuntime::Create(&catalog, workload, options);
  ASSERT_TRUE(ref.ok());
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(ref.value()->Process(e).ok());
  }
  ASSERT_TRUE(ref.value()->Flush().ok());

  // Observed run: a scraper thread hits every route during the stream.
  auto rt = ShardedRuntime::Create(&catalog, workload, options);
  ASSERT_TRUE(rt.ok());
  MetricRegistry reg;
  HttpServer server(reg);
  runtime::AttachRuntimeObservability(&server, rt.value().get());
  ASSERT_TRUE(server.Start(0)) << server.error();
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    const char* paths[] = {"/metrics", "/healthz", "/queries", "/snapshot"};
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      int status = 0;
      std::string body;
      HttpGet(server.port(), paths[i++ % 4], &status, &body);
    }
  });
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(rt.value()->Process(e).ok());
  }
  ASSERT_TRUE(rt.value()->Flush().ok());
  stop.store(true, std::memory_order_release);
  scraper.join();
  server.Stop();

  // Bit-identical rows per query, scraped or not.
  for (size_t q = 0; q < workload.size(); ++q) {
    std::vector<ResultRow> expect = ref.value()->TakeResults(q);
    std::vector<ResultRow> got = rt.value()->TakeResults(q);
    std::string diff;
    EXPECT_TRUE(RowsEquivalent(expect, got,
                               ref.value()->agg_plan_for(q), &diff))
        << "query " << q << ": " << diff;
  }
}

}  // namespace
}  // namespace greta
