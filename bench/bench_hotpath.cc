// Hot-path benchmark: per-event insert cost of the GRETA engine across the
// propagation-kernel grid (COUNT(*)-modular fast kernel, COUNT(*)-exact,
// generic attribute aggregates, multi-query shared cells) on the stock
// stream. Reports events/sec and peak tracked bytes per configuration, and
// emits one JSON row per configuration for the BENCH_core.json trajectory
// artifact (CI uploads it next to BENCH_sharing.json; the perf-smoke step
// diffs it against bench/baselines/BENCH_core_baseline.json).
//
// count_modular, count_exact and count_generic run one COUNT(*) query
// through the three stored cell layouts (u64, Counter, AggCell), so their
// peak_bytes are a same-run memory comparison. Their rows must agree —
// exact counts compared modulo 2^64, the modular width — or the bench
// exits 1 after printing its table.
//
// Flags: --rate/--duration size the stream, --within/--slide the window,
// --factor the Q1 predicate selectivity, --reps best-of repetitions,
// --batch the columnar ingest batch size (0 or 1 = per-event Process
// calls).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "bench_util/metrics.h"
#include "query/parser.h"
#include "workload/stock.h"

namespace greta::bench {
namespace {

struct Config {
  const char* name;       // JSON config id
  const char* aggs;       // RETURN list
  CounterMode mode = CounterMode::kModular;
  int num_queries = 1;    // >1: CreateMulti with this many query slots
  bool specialized = true;
  bool count_twin = false;  // one of the three COUNT(*) layouts
};

// Whether two runs of one COUNT(*) query emitted the same rows, counts
// compared modulo 2^64.
bool SameCountRows(const std::vector<ResultRow>& a,
                   const std::vector<ResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].wid != b[i].wid || !(a[i].group == b[i].group) ||
        a[i].aggs.any != b[i].aggs.any ||
        a[i].aggs.count.Low64() != b[i].aggs.count.Low64()) {
      return false;
    }
  }
  return true;
}

QuerySpec MakeQuery(Catalog* catalog, const Config& config, Ts within,
                    Ts slide, double factor, int variant) {
  const char* agg_variants[] = {"COUNT(*)", "SUM(S.price)",
                                "MIN(S.price), MAX(S.price)",
                                "AVG(S.volume)"};
  std::string text = "RETURN sector, " +
                     std::string(config.num_queries > 1
                                     ? agg_variants[variant % 4]
                                     : config.aggs) +
                     " PATTERN Stock S+ WHERE [company, sector] AND "
                     "S.price * " +
                     std::to_string(factor) +
                     " > NEXT(S).price GROUP-BY sector WITHIN " +
                     std::to_string(within) + " seconds SLIDE " +
                     std::to_string(slide) + " seconds";
  auto spec = ParseQuery(text, catalog);
  GRETA_CHECK(spec.ok());
  return std::move(spec).value();
}

int Run(const Flags& flags) {
  int64_t rate = flags.GetInt("rate", 800);
  Ts duration = flags.GetInt("duration", 60);
  Ts within = flags.GetInt("within", 10);
  Ts slide = flags.GetInt("slide", 10);
  double factor = flags.GetDouble("factor", 1.0);
  int64_t reps = flags.GetInt("reps", 3);
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 256));

  PrintHeader(
      "Hot path: per-event insert cost across propagation kernels",
      "Q1-shaped Kleene queries on the stock stream; one row per kernel "
      "configuration (see src/core/README.md for the dispatch table).",
      "count_modular (the specialized fast kernel) leads; count_generic "
      "(same query, kernels disabled) trails it; attribute aggregates pay "
      "for their extra cell state; multi4 amortizes one graph pass over "
      "four query slots.");

  Catalog catalog;
  StockConfig stock;
  stock.rate = static_cast<int>(rate);
  stock.duration = duration;
  Stream stream = GenerateStockStream(&catalog, stock);

  const Config configs[] = {
      {"count_modular", "COUNT(*)", CounterMode::kModular, 1, true, true},
      {"count_exact", "COUNT(*)", CounterMode::kExact, 1, true, true},
      {"count_generic", "COUNT(*)", CounterMode::kModular, 1, false, true},
      {"sum", "SUM(S.price)", CounterMode::kModular, 1, true},
      {"minmax", "MIN(S.price), MAX(S.price)", CounterMode::kModular, 1,
       true},
      {"avg", "AVG(S.price)", CounterMode::kModular, 1, true},
      {"multi4", "COUNT(*)", CounterMode::kModular, 4, true},
  };

  Table table({"config", "events/s", "peak memory", "vertices", "edges",
               "batch fb%"});
  std::vector<std::vector<ResultRow>> twin_rows;
  for (const Config& config : configs) {
    EngineOptions options;
    options.counter_mode = config.mode;
    options.enable_specialized_kernels = config.specialized;

    RunResult best;
    for (int64_t rep = 0; rep < reps; ++rep) {
      std::unique_ptr<GretaEngine> engine;
      if (config.num_queries > 1) {
        std::vector<QuerySpec> specs;
        std::vector<const QuerySpec*> spec_ptrs;
        for (int q = 0; q < config.num_queries; ++q) {
          specs.push_back(MakeQuery(&catalog, config, within, slide, factor,
                                    q));
        }
        for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);
        auto built = GretaEngine::CreateMulti(&catalog, spec_ptrs, options);
        GRETA_CHECK(built.ok());
        engine = std::move(built).value();
      } else {
        QuerySpec spec =
            MakeQuery(&catalog, config, within, slide, factor, 0);
        auto built = GretaEngine::Create(&catalog, spec, options);
        GRETA_CHECK(built.ok());
        engine = std::move(built).value();
      }
      std::vector<ResultRow>* rows = nullptr;
      if (config.count_twin && rep == 0) rows = &twin_rows.emplace_back();
      RunResult r = RunStream(engine.get(), stream, batch, rows);
      if (rep == 0 || r.throughput_eps > best.throughput_eps) best = r;
    }

    // Fraction of batch-ingested rows that fell back to the row-wise path
    // (0 when everything ran amortized, or when ingest was scalar).
    const size_t batch_total =
        best.stats.batch_rows_fast + best.stats.batch_rows_fallback;
    const double fallback_frac =
        batch_total > 0
            ? static_cast<double>(best.stats.batch_rows_fallback) /
                  static_cast<double>(batch_total)
            : 0.0;
    char fallback_cell[32];
    std::snprintf(fallback_cell, sizeof(fallback_cell), "%.1f%%",
                  fallback_frac * 100.0);
    table.AddRow({config.name, best.ThroughputCell(), best.MemoryCell(),
                  FormatCount(static_cast<double>(best.stats.vertices_stored)),
                  FormatCount(
                      static_cast<double>(best.stats.edges_traversed)),
                  fallback_cell});
    std::printf(
        "{\"bench\":\"hotpath\",\"config\":\"%s\",\"events\":%zu,"
        "\"events_per_sec\":%.1f,\"peak_bytes\":%zu,\"vertices\":%zu,"
        "\"edges\":%zu,\"rows\":%zu,\"batch_fallback_frac\":%.4f}\n",
        config.name, stream.size(), best.throughput_eps,
        best.peak_memory_bytes, best.stats.vertices_stored,
        best.stats.edges_traversed, best.rows_emitted, fallback_frac);
  }
  std::printf("\n");
  table.Print();
  for (size_t i = 1; i < twin_rows.size(); ++i) {
    if (!SameCountRows(twin_rows[0], twin_rows[i])) {
      std::fprintf(stderr,
                   "hotpath: the COUNT(*) cell layouts emitted different "
                   "rows\n");
      return 1;
    }
  }
  std::printf("verified: count_modular, count_exact and count_generic rows "
              "identical (%zu rows)\n",
              twin_rows.empty() ? size_t{0} : twin_rows[0].size());
  return 0;
}

}  // namespace
}  // namespace greta::bench

int main(int argc, char** argv) {
  return greta::bench::Run(greta::bench::Flags(argc, argv));
}
