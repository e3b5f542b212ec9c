// Telemetry overhead benchmark: the same hot-path workload executed with
// the metric registry runtime-DISABLED (instruments never armed, every
// update site sees null pointers) and runtime-ENABLED, reporting both
// throughputs and the relative overhead — the subsystem's contract is that
// armed telemetry costs < 2% on the per-event hot path. A third phase runs
// a sharded adaptive workload so the exported snapshot carries per-shard
// queue, watermark-lag and migration series, then writes the full JSON
// snapshot (with the lifecycle trace) to --snapshot=PATH and prints the
// explain-style report.
//
// JSON rows: config "telemetry_off" / "telemetry_on" carry events_per_sec
// (diffed by scripts/perf_smoke.py against BENCH_telemetry_baseline.json);
// the "overhead" row carries the on/off ratio only, and the snapshot goes
// to a separate file so BENCH_telemetry.json stays a clean row stream.
//
// A fourth phase ("telemetry_serving") reruns the sharded workload with
// the embedded HTTP endpoint up and a scraper thread hammering /metrics,
// /healthz and /queries throughout — the observability service's contract
// is that concurrent scrapes ride on snapshots and atomics, never the hot
// path, so this row should match "sharded_adaptive" within noise.
//
// Flags: --rate/--duration size the stream, --reps best-of repetitions,
// --snapshot=PATH writes the JSON snapshot, --sharded=false skips phase 3,
// --serve=false skips phase 4.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/harness.h"
#include "bench_util/metrics.h"
#include "query/parser.h"
#include "runtime/observability.h"
#include "runtime/sharded_runtime.h"
#include "telemetry/exporters.h"
#include "telemetry/http_server.h"
#include "telemetry/telemetry.h"
#include "workload/stock.h"

namespace greta::bench {
namespace {

QuerySpec HotpathQuery(Catalog* catalog) {
  auto spec = ParseQuery(
      "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] AND "
      "S.price * 1.0 > NEXT(S).price GROUP-BY sector WITHIN 10 seconds "
      "SLIDE 10 seconds",
      catalog);
  GRETA_CHECK(spec.ok());
  return std::move(spec).value();
}

// Shareable window-diverse cluster (same Kleene core, different WITHINs)
// that the adaptive planner arbitrates under a bursty load — the phase-3
// workload that populates the sharing/runtime telemetry series.
std::vector<QuerySpec> AdaptiveWorkload(Catalog* catalog) {
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
  for (const char* text : texts) {
    auto spec = ParseQuery(text, catalog);
    GRETA_CHECK(spec.ok());
    workload.push_back(std::move(spec).value());
  }
  return workload;
}

RunResult MeasureHotpath(const Catalog* catalog, const QuerySpec& spec,
                         const Stream& stream, bool enabled, int64_t reps) {
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  RunResult best;
  for (int64_t rep = 0; rep < reps; ++rep) {
    reg.Reset();
    reg.set_enabled(enabled);  // before Create: instruments cache here
    auto built = GretaEngine::Create(catalog, spec, EngineOptions{});
    GRETA_CHECK(built.ok());
    RunResult r = RunStream(built.value().get(), stream, 1);
    if (rep == 0 || r.throughput_eps > best.throughput_eps) best = r;
  }
  reg.set_enabled(true);
  return best;
}

int Run(const Flags& flags) {
  int64_t rate = flags.GetInt("rate", 800);
  Ts duration = flags.GetInt("duration", 60);
  int64_t reps = flags.GetInt("reps", 5);
  bool sharded = flags.GetBool("sharded", true);
  bool serve = flags.GetBool("serve", true);
  std::string snapshot_path = flags.GetString("snapshot", "");

  PrintHeader(
      "Telemetry overhead: armed instruments vs runtime-disabled",
      "One hot-path Kleene query on the stock stream, best-of-" +
          std::to_string(reps) +
          " per mode; then a sharded adaptive workload to populate the "
          "runtime/sharing series.",
      "telemetry_on within 2% of telemetry_off (sharded relaxed counters, "
      "null-checked call sites).");

#if !GRETA_TELEMETRY
  std::printf("telemetry is compiled out (GRETA_TELEMETRY=0); the on/off "
              "comparison is meaningless in this build\n");
#endif

  Catalog catalog;
  StockConfig stock;
  stock.rate = static_cast<int>(rate);
  stock.duration = duration;
  Stream stream = GenerateStockStream(&catalog, stock);
  QuerySpec spec = HotpathQuery(&catalog);

  RunResult off = MeasureHotpath(&catalog, spec, stream, false, reps);
  RunResult on = MeasureHotpath(&catalog, spec, stream, true, reps);
  const double overhead_pct =
      off.throughput_eps > 0.0
          ? (off.throughput_eps - on.throughput_eps) / off.throughput_eps *
                100.0
          : 0.0;

  Table table({"config", "events/s", "peak memory", "rows"});
  table.AddRow({"telemetry_off", off.ThroughputCell(), off.MemoryCell(),
                FormatCount(static_cast<double>(off.rows_emitted))});
  table.AddRow({"telemetry_on", on.ThroughputCell(), on.MemoryCell(),
                FormatCount(static_cast<double>(on.rows_emitted))});
  std::printf(
      "{\"bench\":\"telemetry\",\"config\":\"telemetry_off\",\"events\":%zu,"
      "\"events_per_sec\":%.1f,\"peak_bytes\":%zu,\"rows\":%zu}\n",
      stream.size(), off.throughput_eps, off.peak_memory_bytes,
      off.rows_emitted);
  std::printf(
      "{\"bench\":\"telemetry\",\"config\":\"telemetry_on\",\"events\":%zu,"
      "\"events_per_sec\":%.1f,\"peak_bytes\":%zu,\"rows\":%zu}\n",
      stream.size(), on.throughput_eps, on.peak_memory_bytes,
      on.rows_emitted);
  // No events_per_sec on purpose: perf_smoke ignores this summary row.
  std::printf(
      "{\"bench\":\"telemetry\",\"config\":\"overhead\",\"overhead_pct\":"
      "%.2f}\n",
      overhead_pct);

  if (sharded || serve) {
    telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();

    Catalog shared_catalog;
    RegisterStockTypes(&shared_catalog);
    StockConfig bursty;
    bursty.seed = 97;
    bursty.num_companies = 5;
    bursty.num_sectors = 2;
    bursty.rate = 8;
    bursty.duration = 60;
    bursty.drift = 0.0;
    bursty.bursts.push_back({20, 40, 40.0, 1.0});
    Stream bursty_stream = GenerateStockStream(&shared_catalog, bursty);

    runtime::ShardedOptions options;
    options.num_shards = 2;
    options.batch_size = 32;
    options.heartbeat_events = 64;
    options.workload.adaptive.enabled = true;
    options.workload.adaptive.observation_windows = 3;
    options.workload.adaptive.min_windows_between_migrations = 4;
    options.workload.adaptive.hysteresis = 1.2;
    std::vector<QuerySpec> workload = AdaptiveWorkload(&shared_catalog);

    if (sharded) {
      reg.Reset();
      reg.set_enabled(true);
      auto rt = runtime::ShardedRuntime::Create(&shared_catalog, workload,
                                                options);
      GRETA_CHECK(rt.ok());
      RunResult r = RunStream(rt.value().get(), bursty_stream, 1);
      table.AddRow({"sharded_adaptive", r.ThroughputCell(), r.MemoryCell(),
                    FormatCount(static_cast<double>(r.rows_emitted))});
      std::printf(
          "{\"bench\":\"telemetry\",\"config\":\"sharded_adaptive\","
          "\"events\":%zu,\"events_per_sec\":%.1f,\"peak_bytes\":%zu,"
          "\"rows\":%zu,\"migrations\":%zu}\n",
          bursty_stream.size(), r.throughput_eps, r.peak_memory_bytes,
          r.rows_emitted, rt.value()->TotalMigrations());

      if (!snapshot_path.empty()) {
        std::string json =
            telemetry::ExportJson(reg, /*include_trace=*/true);
        std::FILE* f = std::fopen(snapshot_path.c_str(), "wb");
        if (f != nullptr) {
          std::fwrite(json.data(), 1, json.size(), f);
          std::fwrite("\n", 1, 1, f);
          std::fclose(f);
          std::printf("snapshot written to %s (%zu bytes)\n",
                      snapshot_path.c_str(), json.size());
        } else {
          std::printf("cannot open snapshot path %s\n",
                      snapshot_path.c_str());
        }
      }
      std::printf("\n%s", telemetry::ExplainTelemetry(reg).c_str());
    }

    if (serve) {
      // Same workload, endpoint up, scraper thread hammering the routes
      // for the whole replay — scrapes must ride on snapshots/atomics
      // only, so throughput should match "sharded_adaptive" within noise.
      reg.Reset();
      reg.set_enabled(true);
      auto rt = runtime::ShardedRuntime::Create(&shared_catalog, workload,
                                                options);
      GRETA_CHECK(rt.ok());
      telemetry::HttpServer server(reg);
      runtime::AttachRuntimeObservability(&server, rt.value().get());
      GRETA_CHECK(server.Start(0));
      std::atomic<bool> stop{false};
      std::atomic<size_t> scrapes{0};
      std::thread scraper([&] {
        const char* paths[] = {"/metrics", "/healthz", "/queries"};
        size_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
          int status = 0;
          std::string body;
          if (telemetry::HttpGet(server.port(), paths[i % 3], &status,
                                 &body)) {
            scrapes.fetch_add(1, std::memory_order_relaxed);
          }
          ++i;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });
      RunResult r = RunStream(rt.value().get(), bursty_stream, 1);
      stop.store(true, std::memory_order_release);
      scraper.join();
      server.Stop();
      table.AddRow({"telemetry_serving", r.ThroughputCell(), r.MemoryCell(),
                    FormatCount(static_cast<double>(r.rows_emitted))});
      std::printf(
          "{\"bench\":\"telemetry\",\"config\":\"telemetry_serving\","
          "\"events\":%zu,\"events_per_sec\":%.1f,\"peak_bytes\":%zu,"
          "\"rows\":%zu,\"scrapes\":%zu}\n",
          bursty_stream.size(), r.throughput_eps, r.peak_memory_bytes,
          r.rows_emitted, scrapes.load());
    }
  }

  std::printf("\n");
  table.Print();
  std::printf("telemetry overhead: %.2f%% (target < 2%%)\n", overhead_pct);
  return 0;
}

}  // namespace
}  // namespace greta::bench

int main(int argc, char** argv) {
  return greta::bench::Run(greta::bench::Flags(argc, argv));
}
