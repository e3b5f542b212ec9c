// Sharded parallel runtime benchmark: throughput vs shard count on the
// grouped stock workload (Q1-style COUNT(*) down-trends per sector,
// partitioned by [company, sector]), verified bit-identical to
// single-threaded execution on every sweep point.
//
// The sweep runs the SAME workload through the single-threaded reference
// engine and through the sharded runtime at 1/2/4/8 shards; each sharded
// run's merged rows are compared row-for-row (window, group, exact count)
// against the reference before the timing is reported. Speedup scales with
// available cores: on a single-core host the sharded runtime only measures
// its queueing overhead (~1x or slightly below); with >= num_shards cores
// the shards run truly in parallel.
//
// Prints the fixed-width table plus one JSON row per shard count:
//   {"bench":"shard","config":"shards=4","events_per_sec":...,
//    "speedup_vs_single":...,"rows_match":true,...}
// (the `bench/config/events_per_sec` triple is what scripts/perf_smoke.py
// diffs against bench/baselines/BENCH_shard_baseline.json).
//
// Flags: --rate/--duration size the stream, --companies/--sectors the key
// space, --within/--slide the window, --max-shards the sweep end,
// --batch/--heartbeat the runtime knobs, --workload=FILE loads a workload
// spec JSON (src/workload/spec.h) instead of the built-in workload; with a
// spec only --heartbeat still applies.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "bench_util/metrics.h"
#include "query/parser.h"
#include "runtime/sharded_runtime.h"
#include "workload/spec.h"
#include "workload/stock.h"

namespace greta::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct RunOutput {
  double seconds = 0.0;
  double events_per_sec = 0.0;
  size_t peak_memory_bytes = 0;
  std::vector<std::vector<ResultRow>> rows;  // per query
};

RunOutput RunShardedOnce(runtime::ShardedRuntime* rt, const Stream& stream) {
  RunOutput out;
  out.rows.resize(rt->num_queries());
  Clock::time_point start = Clock::now();
  for (const Event& e : stream.events()) {
    Status s = rt->Process(e);
    GRETA_CHECK(s.ok());
  }
  GRETA_CHECK(rt->Flush().ok());
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (size_t q = 0; q < rt->num_queries(); ++q) {
    out.rows[q] = rt->TakeResults(q);
  }
  out.events_per_sec =
      out.seconds > 0.0 ? static_cast<double>(stream.size()) / out.seconds
                        : 0.0;
  out.peak_memory_bytes = rt->memory().peak_bytes();
  return out;
}

RunOutput RunBaselineOnce(sharing::SharedWorkloadEngine* engine,
                          const Stream& stream) {
  RunOutput out;
  out.rows.resize(engine->num_queries());
  Clock::time_point start = Clock::now();
  for (const Event& e : stream.events()) {
    Status s = engine->Process(e);
    GRETA_CHECK(s.ok());
  }
  GRETA_CHECK(engine->Flush().ok());
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (size_t q = 0; q < engine->num_queries(); ++q) {
    out.rows[q] = engine->TakeResults(q);
  }
  out.events_per_sec =
      out.seconds > 0.0 ? static_cast<double>(stream.size()) / out.seconds
                        : 0.0;
  out.peak_memory_bytes = engine->stats().peak_bytes;
  return out;
}

/// Row-for-row identity: window, group values, exact counter decimals.
bool RowsIdentical(const std::vector<std::vector<ResultRow>>& a,
                   const std::vector<std::vector<ResultRow>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      const ResultRow& x = a[q][i];
      const ResultRow& y = b[q][i];
      if (x.wid != y.wid || x.group.size() != y.group.size()) return false;
      for (size_t g = 0; g < x.group.size(); ++g) {
        if (!(x.group[g] == y.group[g])) return false;
      }
      if (x.aggs.count.ToDecimal() != y.aggs.count.ToDecimal()) return false;
    }
  }
  return true;
}

int Run(const Flags& flags) {
  int64_t rate = flags.GetInt("rate", 400);
  Ts duration = flags.GetInt("duration", 60);
  Ts within = flags.GetInt("within", 10);
  Ts slide = flags.GetInt("slide", 5);
  int64_t companies = flags.GetInt("companies", 32);
  int64_t sectors = flags.GetInt("sectors", 8);
  double drift = flags.GetDouble("drift", 0.8);
  int64_t max_shards = flags.GetInt("max-shards", 8);
  int64_t batch = flags.GetInt("batch", 256);
  int64_t heartbeat = flags.GetInt("heartbeat", 1024);

  Catalog catalog;
  std::vector<QuerySpec> workload;
  runtime::ShardedOptions options;
  Stream stream;

  // --workload=FILE: queries, options and dataset from one spec artifact
  // (src/workload/spec.h); otherwise the built-in grouped stock workload.
  std::string workload_path = flags.GetString("workload", "");
  if (!workload_path.empty()) {
    auto spec = workload::LoadWorkloadSpecFile(workload_path, &catalog);
    GRETA_CHECK(spec.ok());
    workload::WorkloadSpec& w = spec.value();
    GRETA_CHECK(w.stock.has_value());  // the bench needs a dataset to replay
    stream = GenerateStockStream(&catalog, *w.stock);
    workload = std::move(w.queries);
    options = std::move(w.runtime);
    // An explicit --heartbeat still overrides the spec's runtime block, so
    // any spec workload can run on window-close flushes alone.
    options.heartbeat_events = static_cast<size_t>(flags.GetInt(
        "heartbeat", static_cast<int64_t>(options.heartbeat_events)));
  } else {
    StockConfig config;
    config.rate = static_cast<int>(rate);
    config.duration = duration;
    config.num_companies = static_cast<int>(companies);
    config.num_sectors = static_cast<int>(sectors);
    config.drift = drift;
    stream = GenerateStockStream(&catalog, config);

    std::string q1 =
        "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] "
        "AND S.price > NEXT(S).price GROUP-BY sector WITHIN " +
        std::to_string(within) + " seconds SLIDE " + std::to_string(slide) +
        " seconds";
    auto spec = ParseQuery(q1, &catalog);
    GRETA_CHECK(spec.ok());
    workload.push_back(std::move(spec).value());
    options.workload.engine.counter_mode = CounterMode::kModular;
    // The other runtime knobs come from flags only for the built-in
    // workload; a spec file is the source of truth for its own.
    options.batch_size = static_cast<size_t>(batch);
    options.heartbeat_events = static_cast<size_t>(heartbeat);
  }

  PrintHeader(
      "Sharding: partition-parallel runtime, grouped stock workload",
      "Q1 down-trend counting per sector over " +
          std::to_string(companies) +
          " companies, executed single-threaded vs the sharded runtime at "
          "1/2/4/8 shards; merged rows verified identical on every point.",
      "Throughput scales with shard count while the machine has cores to "
      "give (single-core hosts only measure queueing overhead); results "
      "stay bit-identical to single-threaded execution.");

  sharing::SharedEngineOptions baseline_options = options.workload;
  auto baseline_engine =
      sharing::SharedWorkloadEngine::Create(&catalog, workload,
                                            baseline_options);
  GRETA_CHECK(baseline_engine.ok());
  RunOutput baseline = RunBaselineOnce(baseline_engine.value().get(), stream);

  std::printf(
      "{\"bench\":\"shard\",\"config\":\"single\",\"shards\":0,"
      "\"events_per_sec\":%.1f,\"peak_memory_bytes\":%zu,\"rows\":%zu}\n",
      baseline.events_per_sec, baseline.peak_memory_bytes,
      baseline.rows[0].size());

  Table table({"shards", "events/s", "speedup vs single", "rows identical",
               "peak mem"});
  table.AddRow({"single", FormatCount(baseline.events_per_sec), "1.000x",
                "-", FormatBytes(
                    static_cast<double>(baseline.peak_memory_bytes))});

  for (int64_t shards = 1; shards <= max_shards; shards *= 2) {
    options.num_shards = static_cast<size_t>(shards);
    auto rt = runtime::ShardedRuntime::Create(&catalog, workload, options);
    GRETA_CHECK(rt.ok());
    RunOutput sharded = RunShardedOnce(rt.value().get(), stream);
    bool match = RowsIdentical(sharded.rows, baseline.rows);
    double speedup = baseline.seconds > 0.0 && sharded.seconds > 0.0
                         ? baseline.seconds / sharded.seconds
                         : 0.0;
    char speedup_cell[32];
    std::snprintf(speedup_cell, sizeof(speedup_cell), "%.3fx", speedup);
    table.AddRow({std::to_string(shards),
                  FormatCount(sharded.events_per_sec), speedup_cell,
                  match ? "yes" : "NO (BUG)",
                  FormatBytes(
                      static_cast<double>(sharded.peak_memory_bytes))});
    std::printf(
        "{\"bench\":\"shard\",\"config\":\"shards=%lld\",\"shards\":%lld,"
        "\"events_per_sec\":%.1f,\"speedup_vs_single\":%.3f,"
        "\"rows_match\":%s,\"peak_memory_bytes\":%zu}\n",
        static_cast<long long>(shards), static_cast<long long>(shards),
        sharded.events_per_sec, speedup, match ? "true" : "false",
        sharded.peak_memory_bytes);
    if (!match) {
      std::printf("ERROR: sharded rows diverge from single-threaded rows\n");
      return 1;
    }
  }
  std::printf("\nThroughput vs shard count (rows verified every point)\n");
  table.Print();
  return 0;
}

}  // namespace
}  // namespace greta::bench

int main(int argc, char** argv) {
  greta::bench::Flags flags(argc, argv);
  return greta::bench::Run(flags);
}
