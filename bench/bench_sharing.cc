// Multi-query sharing benchmark: throughput of the shared workload runtime
// vs. independent per-query engines as the number of overlapping queries
// grows (1/2/4/8/16). All queries of a workload match the same down-trend
// Kleene pattern over the stock stream and differ in their aggregates — the
// regime Hamlet targets, where graph construction dominates and is paid once
// under sharing but n times independently.
//
// Prints the usual fixed-width table plus one JSON row per (n, mode) for
// the bench trajectory files.
//
// Flags: --rate/--duration size the stream, --within/--slide the window,
// --drift the down-pair selectivity, --max-queries the sweep end.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "bench_util/metrics.h"
#include "query/parser.h"
#include "sharing/shared_engine.h"
#include "workload/stock.h"

namespace greta::bench {
namespace {

// Aggregate variants cycled to build an n-query overlapping workload. Real
// multi-tenant workloads repeat shapes, so wrapping past the list (n > 8)
// simply duplicates aggregates — still n distinct query slots.
const char* kAggVariants[] = {
    "COUNT(*)",
    "SUM(S.price)",
    "MIN(S.price), MAX(S.price)",
    "COUNT(S)",
    "AVG(S.price)",
    "SUM(S.volume)",
    "MIN(S.volume)",
    "AVG(S.volume)",
};

std::vector<QuerySpec> MakeWorkload(Catalog* catalog, int n, Ts within,
                                    Ts slide, double factor) {
  std::vector<QuerySpec> workload;
  for (int i = 0; i < n; ++i) {
    std::string text =
        "RETURN sector, " +
        std::string(kAggVariants[i % (sizeof(kAggVariants) /
                                      sizeof(kAggVariants[0]))]) +
        " PATTERN Stock S+ WHERE [company, sector] AND S.price * " +
        std::to_string(factor) +
        " > NEXT(S).price GROUP-BY sector WITHIN " +
        std::to_string(within) + " seconds SLIDE " + std::to_string(slide) +
        " seconds";
    auto spec = ParseQuery(text, catalog);
    GRETA_CHECK(spec.ok());
    workload.push_back(std::move(spec).value());
  }
  return workload;
}

void PrintJsonRow(const char* mode, int n, const RunResult& r,
                  double speedup) {
  std::printf(
      "{\"bench\":\"sharing\",\"mode\":\"%s\",\"queries\":%d,"
      "\"throughput_eps\":%.1f,\"latency_p50_ms\":%.3f,"
      "\"latency_p95_ms\":%.3f,\"latency_p99_ms\":%.3f,"
      "\"peak_memory_bytes\":%zu,\"vertices\":%zu,\"edges\":%zu,"
      "\"rows\":%zu,\"speedup_vs_independent\":%.3f}\n",
      mode, n, r.throughput_eps, r.latency_p50_ms, r.latency_p95_ms,
      r.latency_p99_ms, r.peak_memory_bytes,
      r.stats.vertices_stored, r.stats.edges_traversed, r.rows_emitted,
      speedup);
}

int Run(const Flags& flags) {
  int64_t rate = flags.GetInt("rate", 200);
  Ts duration = flags.GetInt("duration", 60);
  Ts within = flags.GetInt("within", 10);
  Ts slide = flags.GetInt("slide", 5);
  double drift = flags.GetDouble("drift", 1.0);
  double factor = flags.GetDouble("factor", 1.0);
  int64_t max_queries = flags.GetInt("max-queries", 16);

  PrintHeader(
      "Sharing: multi-query workloads, stock data",
      "n overlapping down-trend aggregation queries (same pattern, WHERE, "
      "grouping and window; different aggregates) executed by the shared "
      "workload runtime vs. n independent GRETA engines.",
      "Independent cost grows ~linearly in n (graph construction per "
      "query); shared cost pays construction once plus cheap per-query "
      "aggregate propagation, so the gap widens with n.");

  Table table({"queries", "shared eps", "independent eps", "speedup",
               "shared mem", "independent mem"});
  for (int64_t n = 1; n <= max_queries; n *= 2) {
    Catalog catalog;
    StockConfig config;
    config.rate = static_cast<int>(rate);
    config.duration = duration;
    config.drift = drift;
    Stream stream = GenerateStockStream(&catalog, config);

    sharing::SharedEngineOptions shared_opts;
    shared_opts.engine.counter_mode = CounterMode::kModular;
    auto shared_engine = sharing::SharedWorkloadEngine::Create(
        &catalog,
        MakeWorkload(&catalog, static_cast<int>(n), within, slide, factor),
        shared_opts);
    GRETA_CHECK(shared_engine.ok());
    RunResult shared = RunStream(shared_engine.value().get(), stream, 1);

    sharing::SharedEngineOptions indep_opts = shared_opts;
    indep_opts.sharing.enable_sharing = false;
    auto indep_engine = sharing::SharedWorkloadEngine::Create(
        &catalog,
        MakeWorkload(&catalog, static_cast<int>(n), within, slide, factor),
        indep_opts);
    GRETA_CHECK(indep_engine.ok());
    RunResult independent = RunStream(indep_engine.value().get(), stream, 1);

    double speedup = independent.total_seconds > 0.0
                         ? independent.total_seconds / shared.total_seconds
                         : 0.0;
    table.AddRow({std::to_string(n), shared.ThroughputCell(),
                  independent.ThroughputCell(),
                  std::to_string(speedup).substr(0, 5) + "x",
                  shared.MemoryCell(), independent.MemoryCell()});
    PrintJsonRow("shared", static_cast<int>(n), shared, speedup);
    PrintJsonRow("independent", static_cast<int>(n), independent, 1.0);
  }
  std::printf("\nThroughput and memory, shared vs independent execution\n");
  table.Print();
  return 0;
}

}  // namespace
}  // namespace greta::bench

int main(int argc, char** argv) {
  greta::bench::Flags flags(argc, argv);
  return greta::bench::Run(flags);
}
