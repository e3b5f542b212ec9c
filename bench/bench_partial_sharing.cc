// Partial sharing benchmark (Hamlet snapshot propagation): throughput of
// the shared workload runtime vs. independent per-query engines on a
// workload whose queries share one Kleene sub-pattern (the down-trend core
// `Stock S+` with its predicates and keys) but DIFFER in pattern suffix or
// window length — the regime exact fingerprint sharing cannot touch. The
// shared runtime builds the core graph once, propagates one structural
// snapshot per (vertex, window), and each query folds the snapshot through
// its own continuation states and window range.
//
// Acceptance criterion (ISSUE 2): >= 2x throughput over independent
// execution at 8 queries.
//
// Prints the usual fixed-width table plus one JSON row per (n, mode) for
// the bench trajectory files.
//
// Flags: --rate/--duration size the stream, --within/--slide the base
// window, --halt-prob the suffix-event rate, --factor the down-pair
// selectivity, --max-queries the sweep end.

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

// Aggregates cycled across the workload: half read the snapshot count
// alone, half fold attribute components through dedicated fold slots.
const char* kAggVariants[] = {
    "COUNT(*)", "SUM(S.price)",  "COUNT(*)", "MIN(S.price)",
    "COUNT(*)", "AVG(S.price)",  "COUNT(*)", "MAX(S.price)",
};

// Query i shares the Kleene core but differs from every other query:
// alternating suffix shape (bare core vs. Halt continuation) and stretching
// window length (equal slide).
std::vector<QuerySpec> MakeWorkload(Catalog* catalog, int n, Ts within,
                                    Ts slide, double factor) {
  std::vector<QuerySpec> workload;
  for (int i = 0; i < n; ++i) {
    std::string pattern = (i % 2 == 0)
                              ? "Stock S+"
                              : "SEQ(Stock S+, Halt H)";
    Ts w = within + slide * static_cast<Ts>(i / 2);
    std::string text =
        "RETURN sector, " +
        std::string(kAggVariants[i % (sizeof(kAggVariants) /
                                      sizeof(kAggVariants[0]))]) +
        " PATTERN " + pattern + " WHERE [company, sector] AND S.price * " +
        std::to_string(factor) + " > NEXT(S).price GROUP-BY sector WITHIN " +
        std::to_string(w) + " seconds SLIDE " + std::to_string(slide) +
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
      "{\"bench\":\"partial_sharing\",\"mode\":\"%s\",\"queries\":%d,"
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
  double halt_prob = flags.GetDouble("halt-prob", 0.05);
  double drift = flags.GetDouble("drift", 1.0);
  double factor = flags.GetDouble("factor", 1.0);
  int64_t max_queries = flags.GetInt("max-queries", 16);

  PrintHeader(
      "Partial sharing: common Kleene sub-pattern, differing suffix/window",
      "n down-trend aggregation queries sharing the Kleene core `Stock S+` "
      "(same WHERE and keys) but differing in pattern suffix (bare core "
      "vs. Halt continuation) and window length (equal slide), executed by "
      "the shared workload runtime vs. n independent GRETA engines.",
      "Exact fingerprint sharing merges none of these queries. Snapshot "
      "propagation pays the quadratic Kleene-closure work once and only "
      "per-query continuation/fold work n times, so throughput should "
      "exceed 2x independent execution by 8 queries.");

  Table table({"queries", "partial eps", "independent eps", "speedup",
               "partial mem", "independent mem"});
  for (int64_t n = 2; n <= max_queries; n *= 2) {
    Catalog catalog;
    StockConfig config;
    config.rate = static_cast<int>(rate);
    config.duration = duration;
    config.drift = drift;
    config.halt_probability = halt_prob;
    Stream stream = GenerateStockStream(&catalog, config);

    sharing::SharedEngineOptions shared_opts;
    shared_opts.engine.counter_mode = CounterMode::kModular;
    auto shared_engine = sharing::SharedWorkloadEngine::Create(
        &catalog,
        MakeWorkload(&catalog, static_cast<int>(n), within, slide, factor),
        shared_opts);
    GRETA_CHECK(shared_engine.ok());
    size_t partial_clusters = 0;
    for (const auto& cluster :
         shared_engine.value()->sharing_plan().clusters) {
      partial_clusters += (cluster.shared && cluster.partial) ? 1 : 0;
    }
    GRETA_CHECK(partial_clusters == 1);  // The whole workload is one core.
    RunResult shared = RunStream(shared_engine.value().get(), stream, 1);

    sharing::SharedEngineOptions indep_opts = shared_opts;
    indep_opts.sharing.enable_sharing = false;
    auto indep_engine = sharing::SharedWorkloadEngine::Create(
        &catalog,
        MakeWorkload(&catalog, static_cast<int>(n), within, slide, factor),
        indep_opts);
    GRETA_CHECK(indep_engine.ok());
    RunResult independent = RunStream(indep_engine.value().get(), stream, 1);

    double speedup = shared.total_seconds > 0.0
                         ? independent.total_seconds / shared.total_seconds
                         : 0.0;
    table.AddRow({std::to_string(n), shared.ThroughputCell(),
                  independent.ThroughputCell(),
                  std::to_string(speedup).substr(0, 5) + "x",
                  shared.MemoryCell(), independent.MemoryCell()});
    PrintJsonRow("partial", static_cast<int>(n), shared, speedup);
    PrintJsonRow("independent", static_cast<int>(n), independent, 1.0);
  }
  std::printf(
      "\nThroughput and memory, partial sharing vs independent execution\n");
  table.Print();
  return 0;
}

}  // namespace
}  // namespace greta::bench

int main(int argc, char** argv) {
  greta::bench::Flags flags(argc, argv);
  return greta::bench::Run(flags);
}
