// Columnar ingest benchmark: throughput of the batch path (ProcessBatch +
// amortized run kernels) across ingest batch sizes and kernel strategies,
// against the scalar per-event Process path. Four workloads:
//  - the Q1-shaped tumbling COUNT(*) query across batch sizes (the original
//    sweep: scalar / batch64 / batch256 / batch1024 / rowwise; a batch of
//    one row is the scalar path, since RunStream feeds sizes <= 1 through
//    Process);
//  - a sliding-window COUNT(*) (5 panes per event, NEXT predicate) that the
//    pre-generalized kernel used to reject — now suffix-merge;
//  - a tumbling SUM (no NEXT predicate) — now the shared-fold strategy;
//  - a partial-sharing cluster (two COUNT queries, same Kleene core,
//    different window lengths) through the batched snapshot kernel.
// Before timing anything each workload replays a smaller stream through
// both paths and checks the result rows are bit-identical — a bench that
// got faster by computing something else is worthless. Emits one JSON row
// per configuration for the BENCH_batch.json trajectory artifact (CI
// uploads it; the perf-smoke step diffs it against
// bench/baselines/BENCH_batch_baseline.json).
//
// Flags: --rate/--duration size the stream, --within/--slide the window,
// --reps best-of repetitions.

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

enum Workload { kQ1, kSliding, kSum, kPartial, kFilter, kResidual };

QuerySpec MakeQuery(Catalog* catalog, const std::string& agg, Ts within,
                    Ts slide, bool next_pred,
                    const std::string& extra_where = "") {
  std::string text = "RETURN sector, " + agg +
                     " PATTERN Stock S+ WHERE [company, sector]" +
                     (next_pred ? " AND S.price > NEXT(S).price" : "") +
                     extra_where + " GROUP-BY sector WITHIN " +
                     std::to_string(within) + " seconds SLIDE " +
                     std::to_string(slide) + " seconds";
  auto spec = ParseQuery(text, catalog);
  GRETA_CHECK(spec.ok());
  return std::move(spec).value();
}

// Filter-heavy: three const vertex predicates (the column filter kernel's
// fast shape) on top of the equivalence keys, selective enough (~10% of
// rows survive) that throughput tracks the filter loop, not propagation.
// Timed on the one-company stream: a single partition makes each row group
// batch-sized, so the filter kernels sweep long consecutive lanes — the
// dense-scan regime this workload exists to measure.
QuerySpec MakeFilterQuery(Catalog* catalog, Ts within, Ts slide) {
  return MakeQuery(catalog, "COUNT(*)", within, slide, /*next_pred=*/false,
                   " AND S.volume > 100 AND S.volume <= 200"
                   " AND S.price > 50.0");
}

// Residual-predicate: two NEXT comparisons; the tree key range enforces one,
// the other stays residual and runs per (entry, event) pair through the
// compiled edge filter — the typed-lane re-filter hot loop.
QuerySpec MakeResidualQuery(Catalog* catalog, Ts within, Ts slide) {
  return MakeQuery(catalog, "COUNT(*)", within, slide, /*next_pred=*/true,
                   " AND S.volume >= NEXT(S).volume");
}

// The partial cluster: same Kleene core (type, predicates, keys), window
// lengths `within` and `2 * within` on an equal slide — the regime where
// only snapshot sharing merges the graphs.
std::vector<QuerySpec> MakePartialSpecs(Catalog* catalog, Ts within) {
  std::vector<QuerySpec> specs;
  specs.push_back(MakeQuery(catalog, "COUNT(*)", within, within, false));
  specs.push_back(MakeQuery(catalog, "COUNT(*)", 2 * within, within, false));
  return specs;
}

std::unique_ptr<GretaEngine> MakeEngine(Catalog* catalog,
                                        const QuerySpec& spec,
                                        bool batch_kernels) {
  EngineOptions options;
  options.enable_batch_kernels = batch_kernels;
  auto built = GretaEngine::Create(catalog, spec, options);
  GRETA_CHECK(built.ok());
  return std::move(built).value();
}

std::unique_ptr<GretaEngine> MakePartialEngine(
    Catalog* catalog, const std::vector<QuerySpec>& specs,
    bool batch_kernels) {
  EngineOptions options;
  options.enable_batch_kernels = batch_kernels;
  std::vector<const QuerySpec*> spec_ptrs;
  for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);
  auto built = GretaEngine::CreatePartial(catalog, spec_ptrs, options);
  GRETA_CHECK(built.ok());
  return std::move(built).value();
}

// Feeds the stream without draining (per-slot drains happen afterwards);
// batch_size 0 is the scalar Process loop.
void Feed(GretaEngine* engine, const Stream& stream, size_t batch_size) {
  if (batch_size == 0) {
    for (const Event& e : stream.events()) {
      GRETA_CHECK(engine->Process(e).ok());
    }
  } else {
    EventBatch batch;
    batch.reserve(batch_size);
    const std::vector<Event>& events = stream.events();
    size_t i = 0;
    while (i < events.size()) {
      batch.clear();
      for (; i < events.size() && batch.size() < batch_size; ++i) {
        batch.Append(events[i]);
      }
      GRETA_CHECK(engine->ProcessBatch(batch).ok());
    }
  }
  GRETA_CHECK(engine->Flush().ok());
}

// Replays the stream collecting every emitted row (scalar path when
// batch_size is 0) — the correctness half, not the timed half.
std::vector<ResultRow> CollectRows(GretaEngine* engine, const Stream& stream,
                                   size_t batch_size) {
  std::vector<ResultRow> rows;
  auto drain = [&] {
    for (ResultRow& row : engine->TakeResults()) rows.push_back(std::move(row));
  };
  if (batch_size == 0) {
    for (const Event& e : stream.events()) {
      GRETA_CHECK(engine->Process(e).ok());
      drain();
    }
  } else {
    EventBatch batch;
    batch.reserve(batch_size);
    const std::vector<Event>& events = stream.events();
    size_t i = 0;
    while (i < events.size()) {
      batch.clear();
      for (; i < events.size() && batch.size() < batch_size; ++i) {
        batch.Append(events[i]);
      }
      GRETA_CHECK(engine->ProcessBatch(batch).ok());
      drain();
    }
  }
  GRETA_CHECK(engine->Flush().ok());
  drain();
  return rows;
}

void CheckIdenticalRows(const std::vector<ResultRow>& scalar,
                        const std::vector<ResultRow>& batched,
                        const char* label) {
  GRETA_CHECK(scalar.size() == batched.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    const ResultRow& a = scalar[i];
    const ResultRow& b = batched[i];
    GRETA_CHECK(a.wid == b.wid);
    GRETA_CHECK(a.group.size() == b.group.size());
    for (size_t g = 0; g < a.group.size(); ++g) {
      GRETA_CHECK(a.group[g] == b.group[g]);
    }
    GRETA_CHECK(a.aggs.count.ToDecimal() == b.aggs.count.ToDecimal());
    // Bit-exact, no tolerance: the batch kernels must fold attribute
    // aggregates in the scalar path's order.
    GRETA_CHECK(a.aggs.sum == b.aggs.sum);
    GRETA_CHECK(a.aggs.min == b.aggs.min);
    GRETA_CHECK(a.aggs.max == b.aggs.max);
  }
  std::printf("verified: %s rows identical to scalar (%zu rows)\n", label,
              scalar.size());
}

int Run(const Flags& flags) {
  int64_t rate = flags.GetInt("rate", 800);
  Ts duration = flags.GetInt("duration", 60);
  Ts within = flags.GetInt("within", 10);
  Ts slide = flags.GetInt("slide", 10);
  int64_t reps = flags.GetInt("reps", 3);

  PrintHeader(
      "Columnar ingest: batch path vs scalar path across batch sizes",
      "Stock-stream Kleene queries; scalar is the per-event Process loop, "
      "batchN packs N events per ProcessBatch call (same-timestamp runs "
      "share one window division and one predecessor scan), "
      "batch256_rowwise forces the row-at-a-time fallback through the batch "
      "entry point. sliding_* is a 5-panes-per-event COUNT (suffix-merge "
      "strategy), sum_* a tumbling SUM (shared-fold), partial_* a two-query "
      "partial-sharing cluster (batched snapshot kernel). filter_* stacks "
      "three const vertex predicates (column filter kernel) on a "
      "one-company stream (single partition, batch-sized row groups), "
      "residual_* two NEXT comparisons (typed-lane edge re-filter).",
      "Throughput should rise with the batch size until every "
      "same-timestamp run fits in one batch; each *_batch256 row should "
      "clearly beat its *_scalar twin now that sliding windows, attribute "
      "aggregates and partial sharing run amortized kernels.");

  Catalog catalog;
  StockConfig stock;
  stock.rate = static_cast<int>(rate);
  stock.duration = duration;
  Stream stream = GenerateStockStream(&catalog, stock);
  // One-company twin for the filter workload: a single partition makes row
  // groups batch-sized (256 consecutive filter lanes instead of ~26
  // company-strided ones), which is the dense-scan shape the column filter
  // kernels are built for.
  StockConfig hot = stock;
  hot.num_companies = 1;
  hot.num_sectors = 1;
  Stream hot_stream = GenerateStockStream(&catalog, hot);
  QuerySpec q1 = MakeQuery(&catalog, "COUNT(*)", within, slide, true);
  QuerySpec sliding =
      MakeQuery(&catalog, "COUNT(*)", within, /*slide=*/2, true);
  QuerySpec sum = MakeQuery(&catalog, "SUM(S.price)", within, within, false);
  std::vector<QuerySpec> partial = MakePartialSpecs(&catalog, within);
  QuerySpec filter_q = MakeFilterQuery(&catalog, within, slide);
  QuerySpec residual_q = MakeResidualQuery(&catalog, within, slide);

  // Correctness first, on a smaller stream so the check stays cheap.
  {
    StockConfig small = stock;
    small.duration = duration / 4 > 0 ? duration / 4 : 1;
    Catalog check_catalog;
    Stream check_stream = GenerateStockStream(&check_catalog, small);
    struct Check {
      const char* name;
      QuerySpec spec;
    };
    Check checks[] = {
        {"q1", MakeQuery(&check_catalog, "COUNT(*)", within, slide, true)},
        {"sliding", MakeQuery(&check_catalog, "COUNT(*)", within, 2, true)},
        {"sum", MakeQuery(&check_catalog, "SUM(S.price)", within, within,
                          false)},
        {"filter", MakeFilterQuery(&check_catalog, within, slide)},
        {"residual", MakeResidualQuery(&check_catalog, within, slide)},
    };
    for (const Check& check : checks) {
      auto scalar_engine = MakeEngine(&check_catalog, check.spec, true);
      std::vector<ResultRow> scalar_rows =
          CollectRows(scalar_engine.get(), check_stream, 0);
      for (size_t batch_size : {size_t{1}, size_t{64}, size_t{256}}) {
        auto batched_engine = MakeEngine(&check_catalog, check.spec, true);
        CheckIdenticalRows(
            scalar_rows,
            CollectRows(batched_engine.get(), check_stream, batch_size),
            (std::string(check.name) + " batch" + std::to_string(batch_size))
                .c_str());
      }
      auto rowwise_engine = MakeEngine(&check_catalog, check.spec, false);
      CheckIdenticalRows(
          scalar_rows,
          CollectRows(rowwise_engine.get(), check_stream, 256),
          (std::string(check.name) + " batch256_rowwise").c_str());
    }
    // The filter workload is timed on the one-company stream (single
    // partition, batch-sized row groups); verify that path too.
    StockConfig small_hot = small;
    small_hot.num_companies = 1;
    small_hot.num_sectors = 1;
    Stream check_hot = GenerateStockStream(&check_catalog, small_hot);
    QuerySpec filter_hot = MakeFilterQuery(&check_catalog, within, slide);
    auto fh_scalar = MakeEngine(&check_catalog, filter_hot, true);
    std::vector<ResultRow> fh_rows =
        CollectRows(fh_scalar.get(), check_hot, 0);
    auto fh_batched = MakeEngine(&check_catalog, filter_hot, true);
    CheckIdenticalRows(fh_rows,
                       CollectRows(fh_batched.get(), check_hot, 256),
                       "filter_hot batch256");
    // Partial cluster: per-slot drains (TakeResults would mix the slots).
    std::vector<QuerySpec> check_partial =
        MakePartialSpecs(&check_catalog, within);
    auto scalar_partial = MakePartialEngine(&check_catalog, check_partial,
                                            true);
    Feed(scalar_partial.get(), check_stream, 0);
    auto batched_partial = MakePartialEngine(&check_catalog, check_partial,
                                             true);
    Feed(batched_partial.get(), check_stream, 256);
    for (size_t q = 0; q < check_partial.size(); ++q) {
      CheckIdenticalRows(
          scalar_partial->TakeResultsFor(q),
          batched_partial->TakeResultsFor(q),
          ("partial batch256 slot " + std::to_string(q)).c_str());
    }
  }

  struct Config {
    const char* name;
    size_t batch_size;
    bool batch_kernels;
    Workload workload;
  };
  const Config configs[] = {
      {"scalar", 1, true, kQ1},
      {"batch64", 64, true, kQ1},
      {"batch256", 256, true, kQ1},
      {"batch1024", 1024, true, kQ1},
      {"batch256_rowwise", 256, false, kQ1},
      {"sliding_scalar", 1, true, kSliding},
      {"sliding_batch256", 256, true, kSliding},
      {"sum_scalar", 1, true, kSum},
      {"sum_batch256", 256, true, kSum},
      {"partial_scalar", 1, true, kPartial},
      {"partial_batch256", 256, true, kPartial},
      {"filter_scalar", 1, true, kFilter},
      {"filter_batch256", 256, true, kFilter},
      {"residual_scalar", 1, true, kResidual},
      {"residual_batch256", 256, true, kResidual},
  };

  Table table({"config", "events/s", "peak memory", "edges"});
  for (const Config& config : configs) {
    RunResult best;
    for (int64_t rep = 0; rep < reps; ++rep) {
      std::unique_ptr<GretaEngine> engine;
      switch (config.workload) {
        case kQ1:
          engine = MakeEngine(&catalog, q1, config.batch_kernels);
          break;
        case kSliding:
          engine = MakeEngine(&catalog, sliding, config.batch_kernels);
          break;
        case kSum:
          engine = MakeEngine(&catalog, sum, config.batch_kernels);
          break;
        case kPartial:
          engine = MakePartialEngine(&catalog, partial, config.batch_kernels);
          break;
        case kFilter:
          engine = MakeEngine(&catalog, filter_q, config.batch_kernels);
          break;
        case kResidual:
          engine = MakeEngine(&catalog, residual_q, config.batch_kernels);
          break;
      }
      const Stream& timed =
          config.workload == kFilter ? hot_stream : stream;
      RunResult r = RunStream(engine.get(), timed, config.batch_size);
      if (rep == 0 || r.throughput_eps > best.throughput_eps) best = r;
    }
    const size_t timed_events =
        config.workload == kFilter ? hot_stream.size() : stream.size();
    table.AddRow({config.name, best.ThroughputCell(), best.MemoryCell(),
                  FormatCount(
                      static_cast<double>(best.stats.edges_traversed))});
    std::printf(
        "{\"bench\":\"batch\",\"config\":\"%s\",\"events\":%zu,"
        "\"events_per_sec\":%.1f,\"peak_bytes\":%zu,\"edges\":%zu,"
        "\"rows\":%zu}\n",
        config.name, timed_events, best.throughput_eps,
        best.peak_memory_bytes, best.stats.edges_traversed,
        best.rows_emitted);
  }
  std::printf("\n");
  table.Print();
  return 0;
}

}  // namespace
}  // namespace greta::bench

int main(int argc, char** argv) {
  return greta::bench::Run(greta::bench::Flags(argc, argv));
}
