// End-to-end telemetry over the sharded runtime: a bursty stock workload
// of one partial sharing cluster on 2 shards must leave the default
// registry holding the core counters, per-shard queue series and the
// watermark-lag gauge — and the trace ring must carry the window-close and
// watermark lifecycle. Also covers the ShardQueueStats accessor (satellite
// of the SPSC depth/stall instrumentation) and the registry-disabled path
// (no series registered, identical rows).

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "query/parser.h"
#include "runtime/sharded_runtime.h"
#include "storage/window.h"
#include "telemetry/exporters.h"
#include "telemetry/telemetry.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using runtime::ShardedOptions;
using runtime::ShardedRuntime;

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

// Window-diverse partial-sharing cluster, run under a bursty stream.
std::vector<QuerySpec> PartialWorkload(Catalog* catalog) {
  const char* texts[] = {
      "RETURN sector, COUNT(*), SUM(S.price) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 2 seconds SLIDE 2 seconds",
      "RETURN sector, COUNT(*), MIN(S.price) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 4 seconds SLIDE 2 seconds",
      "RETURN sector, COUNT(*), AVG(S.price) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 8 seconds SLIDE 2 seconds",
  };
  std::vector<QuerySpec> workload;
  for (const char* text : texts) workload.push_back(Parse(text, catalog));
  return workload;
}

Stream BurstyStream(Catalog* catalog) {
  StockConfig config;
  config.seed = 97;
  config.num_companies = 5;
  config.num_sectors = 2;
  config.rate = 8;
  config.duration = 60;
  config.drift = 0.0;
  config.bursts.push_back({20, 40, 40.0, 1.0});
  return GenerateStockStream(catalog, config);
}

std::unique_ptr<ShardedRuntime> MakeRuntime(
    const Catalog* catalog, const std::vector<QuerySpec>& workload,
    size_t num_shards) {
  ShardedOptions options;
  options.num_shards = num_shards;
  options.batch_size = 32;
  options.heartbeat_events = 64;
  auto rt = ShardedRuntime::Create(catalog, workload, options);
  EXPECT_TRUE(rt.ok()) << rt.status().ToString();
  return std::move(rt).value();
}

std::vector<std::vector<ResultRow>> RunAll(ShardedRuntime* rt,
                                           const Stream& stream) {
  for (const Event& e : stream.events()) {
    Status s = rt->Process(e);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_TRUE(rt->Flush().ok());
  std::vector<std::vector<ResultRow>> out(rt->num_queries());
  for (size_t q = 0; q < out.size(); ++q) out[q] = rt->TakeResults(q);
  return out;
}

uint64_t ScrapedCounter(telemetry::MetricRegistry& reg,
                        const std::string& name) {
  for (const auto& c : reg.ScrapeCounters()) {
    if (c.name == name) return c.value;
  }
  return 0;
}

bool HasGauge(telemetry::MetricRegistry& reg, const std::string& name) {
  for (const auto& g : reg.ScrapeGauges()) {
    if (g.name == name) return true;
  }
  return false;
}

#if GRETA_TELEMETRY

TEST(TelemetryRuntime, ShardedRunPopulatesAllLayers) {
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  reg.Reset();
  reg.set_enabled(true);

  Catalog catalog;
  RegisterStockTypes(&catalog);
  std::vector<QuerySpec> workload = PartialWorkload(&catalog);
  Stream stream = BurstyStream(&catalog);

  constexpr size_t kShards = 2;
  auto rt = MakeRuntime(&catalog, workload, kShards);
  std::vector<std::vector<ResultRow>> rows = RunAll(rt.get(), stream);
  for (size_t q = 0; q < rows.size(); ++q) {
    EXPECT_FALSE(rows[q].empty()) << "query " << q;
  }

  // --- core layer: routing counters cover the delivered stream (every
  // event lands on exactly one shard).
  EXPECT_GE(ScrapedCounter(reg, "greta_core_events_routed_total"),
            stream.size());
  EXPECT_GT(ScrapedCounter(reg, "greta_core_windows_closed_total"), 0u);
  EXPECT_GT(ScrapedCounter(reg, "greta_core_vertices_created_total"), 0u);
  bool saw_emit_hist = false;
  for (const auto& h : reg.ScrapeHistograms()) {
    if (h.name == "greta_core_window_emit_ns") {
      saw_emit_hist = h.snap.count > 0;
    }
  }
  EXPECT_TRUE(saw_emit_hist);

  // --- runtime layer: per-shard queue series and the lag/hold-back gauges.
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_TRUE(HasGauge(reg, telemetry::Labeled(
                                  "greta_runtime_queue_depth_hwm", "shard",
                                  s)))
        << "shard " << s;
    bool saw_batch_hist = false;
    for (const auto& h : reg.ScrapeHistograms()) {
      if (h.name ==
          telemetry::Labeled("greta_runtime_batch_events", "shard", s)) {
        saw_batch_hist = h.snap.count > 0;
      }
    }
    EXPECT_TRUE(saw_batch_hist) << "shard " << s;
  }
  EXPECT_TRUE(HasGauge(reg, "greta_runtime_watermark_lag"));
  EXPECT_TRUE(HasGauge(reg, "greta_runtime_merger_pending_windows"));

  // --- ShardQueueStats accessor mirrors the SPSC-internal counters.
  for (size_t s = 0; s < kShards; ++s) {
    ShardedRuntime::ShardQueueStats qs = rt->shard_queue_stats(s);
    EXPECT_GT(qs.capacity, 0u) << "shard " << s;
    EXPECT_GE(qs.depth_high_watermark, 1u) << "shard " << s;
    EXPECT_LE(qs.depth_high_watermark, qs.capacity) << "shard " << s;
  }

  // --- lifecycle trace: window closes and watermark advances.
  size_t closes = 0, watermarks = 0;
  for (const telemetry::TraceEvent& e : reg.trace().Snapshot()) {
    switch (e.kind) {
      case telemetry::TraceKind::kWindowClose: ++closes; break;
      case telemetry::TraceKind::kWatermarkAdvance: ++watermarks; break;
      default: break;
    }
  }
  EXPECT_GT(closes, 0u);
  EXPECT_GT(watermarks, 0u);

  // --- exporters over the live registry.
  std::string prom = telemetry::ExportPrometheus(reg);
  EXPECT_NE(prom.find("greta_core_events_routed_total"), std::string::npos);
  EXPECT_NE(prom.find("greta_runtime_queue_depth_hwm{shard=\"1\"}"),
            std::string::npos);
  std::string json = telemetry::ExportJson(reg, /*include_trace=*/true);
  EXPECT_NE(json.find("greta_runtime_watermark_lag"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"window_close\""), std::string::npos);

  reg.Reset();
}

TEST(TelemetryRuntime, WindowCloseFlushesRefreshWatermarkTelemetry) {
  // No heartbeats, no Flush: the router's flush at each window close is
  // the only point where the watermark telemetry can refresh.
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  reg.Reset();
  reg.set_enabled(true);

  Catalog catalog;
  RegisterStockTypes(&catalog);
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      "RETURN sector, COUNT(*) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 4 seconds SLIDE 2 seconds",
      &catalog));
  const WindowSpec window = workload[0].window;
  StockConfig config;
  config.seed = 71;
  config.num_companies = 6;
  config.num_sectors = 2;
  config.rate = 8;
  config.duration = 20;  // closes at 4, 6, ..., 18: eight of them
  Stream stream = GenerateStockStream(&catalog, config);

  ShardedOptions options;
  options.num_shards = 2;
  options.batch_size = 4096;
  options.heartbeat_events = 0;
  auto created = ShardedRuntime::Create(&catalog, workload, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ShardedRuntime> rt = std::move(created).value();
  // Sentinel: a lag gauge still at -1 afterwards was never set.
  telemetry::Gauge* lag = reg.GaugeIf("greta_runtime_watermark_lag");
  ASSERT_NE(lag, nullptr);
  lag->Set(-1.0);

  // After each close crossing, wait (bounded overall, so a runtime that
  // never publishes fails instead of hanging) for the shards to publish
  // the crossing clock; the next crossing's flush then observes the
  // advanced low watermark.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  Ts next_close = NextCloseTime(kMinTs, window);
  size_t crossings = 0;
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(rt->Process(e).ok());
    if (e.time < next_close) continue;
    ++crossings;
    next_close = NextCloseTime(e.time, window);
    while (rt->low_watermark() < e.time &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_GE(crossings, 5u);

  size_t watermarks = 0;
  for (const telemetry::TraceEvent& e : reg.trace().Snapshot()) {
    if (e.kind == telemetry::TraceKind::kWatermarkAdvance) ++watermarks;
  }
  EXPECT_GE(watermarks, 4u);
  EXPECT_GE(lag->Value(), 0.0) << "watermark-lag gauge never set";

  rt.reset();
  reg.Reset();
}

TEST(TelemetryRuntime, DisabledRegistryRegistersNothingAndRowsMatch) {
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();

  Catalog catalog;
  RegisterStockTypes(&catalog);
  std::vector<QuerySpec> workload = PartialWorkload(&catalog);
  Stream stream = BurstyStream(&catalog);

  reg.Reset();
  reg.set_enabled(true);
  auto on_rt = MakeRuntime(&catalog, workload, 2);
  std::vector<std::vector<ResultRow>> on_rows = RunAll(on_rt.get(), stream);

  reg.Reset();
  reg.set_enabled(false);
  auto off_rt = MakeRuntime(&catalog, workload, 2);
  std::vector<std::vector<ResultRow>> off_rows = RunAll(off_rt.get(), stream);

  // Disarmed: engines cached null pointers, so nothing moved. (Names
  // registered by the armed run survive Reset by design — their VALUES
  // must all be zero.)
  for (const auto& c : reg.ScrapeCounters()) {
    EXPECT_EQ(c.value, 0u) << c.name;
  }
  EXPECT_TRUE(reg.trace().Snapshot().empty());

  // Telemetry must never change results: identical row streams per query.
  ASSERT_EQ(on_rows.size(), off_rows.size());
  for (size_t q = 0; q < on_rows.size(); ++q) {
    ASSERT_EQ(on_rows[q].size(), off_rows[q].size()) << "query " << q;
    for (size_t i = 0; i < on_rows[q].size(); ++i) {
      EXPECT_EQ(on_rows[q][i].wid, off_rows[q][i].wid);
      EXPECT_EQ(on_rows[q][i].aggs.count.ToDecimal(),
                off_rows[q][i].aggs.count.ToDecimal());
    }
  }

  reg.set_enabled(true);
  reg.Reset();
}

#endif  // GRETA_TELEMETRY

}  // namespace
}  // namespace greta
