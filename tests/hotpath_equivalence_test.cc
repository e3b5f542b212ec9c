// Kernel equivalence suite: every propagation-kernel variant (COUNT-only
// modular / COUNT-only exact / generic; single-query, multi-query shared
// cells, partial sharing) must produce rows identical to the generic
// flag-tested path on randomized streams — the kernels change only how
// aggregate state moves, never what it computes. Plus Counter
// promotion-boundary tests at the u64 overflow edge, including an
// engine-level run whose trend count crosses 2^64.

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/event_batch.h"
#include "common/kslack.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "query/parser.h"
#include "telemetry/telemetry.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using testing::FeedStream;
using testing::MakeGreta;
using testing::RunEngine;

std::unique_ptr<Catalog> FuzzCatalog() {
  auto catalog = std::make_unique<Catalog>();
  for (const char* name : {"A", "B", "C"}) {
    catalog->DefineType(name, {{"x", Value::Kind::kDouble},
                               {"g", Value::Kind::kInt}});
  }
  return catalog;
}

Stream FuzzStream(Catalog* catalog, uint64_t seed, int n) {
  Random rng(seed);
  const char* types[] = {"A", "B", "C"};
  Stream stream;
  Ts time = 0;
  for (int i = 0; i < n; ++i) {
    time += rng.UniformInt(0, 2);
    stream.Append(EventBuilder(catalog, types[rng.UniformInt(0, 2)], time)
                      .Set("x", rng.UniformDouble(0, 10))
                      .Set("g", rng.UniformInt(0, 2))
                      .Build());
  }
  return stream;
}

// Bit-exact row comparison: the kernels must not change results at all, so
// unlike RowsEquivalent there is no floating-point tolerance.
void ExpectIdenticalRows(const std::vector<ResultRow>& a,
                         const std::vector<ResultRow>& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].wid, b[i].wid) << label << " row " << i;
    ASSERT_EQ(a[i].group.size(), b[i].group.size()) << label << " row " << i;
    for (size_t g = 0; g < a[i].group.size(); ++g) {
      EXPECT_TRUE(a[i].group[g] == b[i].group[g]) << label << " row " << i;
    }
    EXPECT_EQ(a[i].aggs.count.ToDecimal(), b[i].aggs.count.ToDecimal())
        << label << " row " << i;
    EXPECT_EQ(a[i].aggs.type_count.ToDecimal(),
              b[i].aggs.type_count.ToDecimal())
        << label << " row " << i;
    EXPECT_EQ(a[i].aggs.min, b[i].aggs.min) << label << " row " << i;
    EXPECT_EQ(a[i].aggs.max, b[i].aggs.max) << label << " row " << i;
    EXPECT_EQ(a[i].aggs.sum, b[i].aggs.sum) << label << " row " << i;
  }
}

// The row-kernel reference: with the batch kernels disabled every row goes
// through the scalar insert kernel, whichever ingest entry point feeds it.
EngineOptions RowKernel(EngineOptions options = {}) {
  options.enable_batch_kernels = false;
  return options;
}

// Runs `spec` with specialized kernels enabled and disabled, in both the
// batch and the row kernel family, and asserts identical rows.
void ExpectKernelMatchesGeneric(const Catalog* catalog, const QuerySpec& spec,
                                const Stream& stream, EngineOptions options,
                                const std::string& label) {
  for (bool batch_kernels : {true, false}) {
    options.enable_batch_kernels = batch_kernels;
    options.enable_specialized_kernels = true;
    auto fast = MakeGreta(catalog, spec.Clone(), options);
    options.enable_specialized_kernels = false;
    auto generic = MakeGreta(catalog, spec.Clone(), options);
    std::vector<ResultRow> fast_rows = RunEngine(fast.get(), stream);
    std::vector<ResultRow> generic_rows = RunEngine(generic.get(), stream);
    ExpectIdenticalRows(fast_rows, generic_rows,
                        label + (batch_kernels ? "" : " [row kernels]"));
  }
}

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

TEST(HotpathEquivalence, SingleQueryKernelGrid) {
  auto catalog = FuzzCatalog();
  const char* aggs[] = {"COUNT(*)", "COUNT(S)", "SUM(S.x)",
                        "MIN(S.x), MAX(S.x)", "AVG(S.x)"};
  const char* patterns[] = {"A S+", "SEQ(A S+, B E)",
                            "SEQ(C H, A S+, B E)"};
  const char* windows[] = {"", " WITHIN 8 seconds SLIDE 4 seconds",
                           " WITHIN 10 seconds SLIDE 10 seconds"};
  for (CounterMode mode : {CounterMode::kModular, CounterMode::kExact}) {
    for (const char* agg : aggs) {
      for (const char* pattern : patterns) {
        for (const char* window : windows) {
          // COUNT(A)/attribute aggregates need the Kleene type in scope for
          // every pattern above (it is: S binds A).
          std::string text = "RETURN " + std::string(agg) + " PATTERN " +
                             pattern + " GROUP-BY g" + window;
          QuerySpec spec = Parse(text, catalog.get());
          Stream stream = FuzzStream(catalog.get(), 7, 120);
          EngineOptions options;
          options.counter_mode = mode;
          ExpectKernelMatchesGeneric(
              catalog.get(), spec, stream, options,
              text + (mode == CounterMode::kExact ? " [exact]"
                                                  : " [modular]"));
        }
      }
    }
  }
}

TEST(HotpathEquivalence, SemanticsAndPredicates) {
  auto catalog = FuzzCatalog();
  std::string text =
      "RETURN COUNT(*) PATTERN A S+ WHERE S.x < NEXT(S).x "
      "WITHIN 6 seconds SLIDE 3 seconds";
  QuerySpec spec = Parse(text, catalog.get());
  for (Semantics semantics :
       {Semantics::kSkipTillAnyMatch, Semantics::kSkipTillNextMatch,
        Semantics::kContiguous}) {
    Stream stream = FuzzStream(catalog.get(), 13, 150);
    EngineOptions options;
    options.semantics = semantics;
    ExpectKernelMatchesGeneric(catalog.get(), spec, stream, options,
                               text + " semantics=" +
                                   std::to_string(static_cast<int>(semantics)));
  }
}

TEST(HotpathEquivalence, NegationStaysGenericAndIdentical) {
  auto catalog = FuzzCatalog();
  for (const char* pattern :
       {"SEQ(A S+, NOT C N, B E)", "SEQ(A S+, NOT C N)",
        "SEQ(NOT C N, A S+)"}) {
    std::string text = "RETURN COUNT(*) PATTERN " + std::string(pattern) +
                       " WITHIN 8 seconds SLIDE 4 seconds";
    QuerySpec spec = Parse(text, catalog.get());
    Stream stream = FuzzStream(catalog.get(), 29, 150);
    ExpectKernelMatchesGeneric(catalog.get(), spec, stream, {}, text);
  }
}

TEST(HotpathEquivalence, MultiQuerySharedCells) {
  auto catalog = FuzzCatalog();
  // All-COUNT cluster exercises the multi-slot count kernel; the mixed
  // cluster must demote to the generic kernel and still match.
  const std::vector<std::vector<std::string>> workloads = {
      {"RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
       "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
       "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds"},
      {"RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
       "RETURN SUM(S.x) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
       "RETURN MIN(S.x), MAX(S.x) PATTERN A S+ WITHIN 8 seconds SLIDE 4 "
       "seconds"}};
  for (const std::vector<std::string>& workload : workloads) {
    std::vector<QuerySpec> specs;
    for (const std::string& text : workload) {
      specs.push_back(Parse(text, catalog.get()));
    }
    std::vector<const QuerySpec*> spec_ptrs;
    for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);

    Stream stream = FuzzStream(catalog.get(), 41, 150);
    EngineOptions options;
    options.enable_specialized_kernels = true;
    auto fast = GretaEngine::CreateMulti(catalog.get(), spec_ptrs, options);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    options.enable_specialized_kernels = false;
    auto generic =
        GretaEngine::CreateMulti(catalog.get(), spec_ptrs, options);
    ASSERT_TRUE(generic.ok()) << generic.status().ToString();

    FeedStream(fast.value().get(), stream);
    FeedStream(generic.value().get(), stream);
    for (size_t q = 0; q < specs.size(); ++q) {
      ExpectIdenticalRows(fast.value()->TakeResultsFor(q),
                          generic.value()->TakeResultsFor(q),
                          "multi-query slot " + std::to_string(q));
    }
  }
}

TEST(HotpathEquivalence, PartialSharingMatchesDedicatedKernels) {
  auto catalog = FuzzCatalog();
  // Shared Kleene core, differing suffixes and windows: the partial runtime
  // (its own snapshot path, arena-backed vertices) must match dedicated
  // engines running the specialized kernels.
  std::vector<QuerySpec> specs;
  specs.push_back(Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
      catalog.get()));
  specs.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(A S+, B E) WITHIN 4 seconds SLIDE 4 "
      "seconds",
      catalog.get()));
  std::vector<const QuerySpec*> spec_ptrs;
  for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);

  Stream stream = FuzzStream(catalog.get(), 53, 150);
  auto partial = GretaEngine::CreatePartial(catalog.get(), spec_ptrs, {});
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  FeedStream(partial.value().get(), stream);
  for (size_t q = 0; q < specs.size(); ++q) {
    auto dedicated = MakeGreta(catalog.get(), specs[q].Clone());
    std::vector<ResultRow> expected = RunEngine(dedicated.get(), stream);
    ExpectIdenticalRows(partial.value()->TakeResultsFor(q), expected,
                        "partial slot " + std::to_string(q));
  }
}

// Telemetry is observation only: the SAME engine/kernel grid run with the
// registry armed and disarmed must produce bit-identical rows — the
// instrumented hot paths (routing tallies, window-close flushes) may never
// leak into results.
TEST(HotpathEquivalence, TelemetryOnOffRowsIdentical) {
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  auto catalog = FuzzCatalog();
  const char* queries[] = {
      "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
      "RETURN SUM(S.x) PATTERN SEQ(A S+, B E) WHERE S.x < NEXT(S).x "
      "WITHIN 6 seconds SLIDE 3 seconds",
  };
  for (const char* text : queries) {
    QuerySpec spec = Parse(text, catalog.get());
    Stream stream = FuzzStream(catalog.get(), 61, 150);

    reg.Reset();
    reg.set_enabled(true);  // before Create: instruments cache here
    auto armed = MakeGreta(catalog.get(), spec.Clone());
    std::vector<ResultRow> armed_rows = RunEngine(armed.get(), stream);
#if GRETA_TELEMETRY
    // The armed run actually recorded (otherwise this test is vacuous).
    bool routed = false;
    for (const auto& c : reg.ScrapeCounters()) {
      if (c.name == "greta_core_events_routed_total" && c.value > 0) {
        routed = true;
      }
    }
    EXPECT_TRUE(routed) << text;
#endif

    reg.Reset();
    reg.set_enabled(false);
    auto disarmed = MakeGreta(catalog.get(), spec.Clone());
    std::vector<ResultRow> disarmed_rows = RunEngine(disarmed.get(), stream);
    reg.set_enabled(true);

    ExpectIdenticalRows(armed_rows, disarmed_rows,
                        std::string("telemetry on/off: ") + text);
  }
  reg.Reset();
}

// --- Batch kernels vs the row kernel, at every ingest batch size ---

// Packs the events into columnar batches of `batch_size` rows and feeds
// them through ProcessBatch, draining emitted rows after every batch. Takes
// a raw vector (not a Stream) so locally disordered wires can exercise
// sort_within_batch.
std::vector<ResultRow> RunEngineBatched(EngineInterface* engine,
                                        const std::vector<Event>& events,
                                        size_t batch_size,
                                        bool sort_within_batch = false) {
  std::vector<ResultRow> rows;
  EventBatch batch;
  batch.reserve(batch_size);
  size_t i = 0;
  while (i < events.size()) {
    batch.clear();
    for (; i < events.size() && batch.size() < batch_size; ++i) {
      batch.Append(events[i]);
    }
    if (sort_within_batch) batch.SortByTime();
    Status s = engine->ProcessBatch(batch);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok()) return rows;
    for (ResultRow& row : engine->TakeResults()) rows.push_back(std::move(row));
  }
  Status s = engine->Flush();
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (ResultRow& row : engine->TakeResults()) rows.push_back(std::move(row));
  return rows;
}

// One row-kernel run fed event by event, then batch-kernel runs at ragged
// sizes (1 = degenerate per-event batches, 7 = misaligned with every window
// and same-timestamp run, 256 = whole stream in one batch), plus the row
// kernel fed through the batch entry point. All rows bit-identical.
void ExpectBatchMatchesScalar(const Catalog* catalog, const QuerySpec& spec,
                              const Stream& stream, EngineOptions options,
                              const std::string& label) {
  auto scalar = MakeGreta(catalog, spec.Clone(), RowKernel(options));
  std::vector<ResultRow> scalar_rows = RunEngine(scalar.get(), stream);
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    auto batched = MakeGreta(catalog, spec.Clone(), options);
    ExpectIdenticalRows(scalar_rows,
                        RunEngine(batched.get(), stream, batch_size),
                        label + " batch=" + std::to_string(batch_size));
  }
  auto generic = MakeGreta(catalog, spec.Clone(), RowKernel(options));
  ExpectIdenticalRows(scalar_rows, RunEngine(generic.get(), stream, 64),
                      label + " [batch kernels off]");
}

TEST(BatchEquivalence, SingleQueryKernelGrid) {
  auto catalog = FuzzCatalog();
  const char* aggs[] = {"COUNT(*)", "SUM(S.x)"};
  const char* patterns[] = {"A S+", "SEQ(A S+, B E)"};
  // Unbounded, sliding and tumbling windows: every cell of this grid is now
  // covered by an amortized run kernel (shared-fold or suffix-merge for the
  // predicate-free queries); the rows must stay bit-identical regardless of
  // which strategy the kernel picks.
  const char* windows[] = {"", " WITHIN 8 seconds SLIDE 4 seconds",
                           " WITHIN 10 seconds SLIDE 10 seconds"};
  for (CounterMode mode : {CounterMode::kModular, CounterMode::kExact}) {
    for (const char* agg : aggs) {
      for (const char* pattern : patterns) {
        for (const char* window : windows) {
          std::string text = "RETURN " + std::string(agg) + " PATTERN " +
                             pattern + " GROUP-BY g" + window;
          QuerySpec spec = Parse(text, catalog.get());
          Stream stream = FuzzStream(catalog.get(), 101, 150);
          EngineOptions options;
          options.counter_mode = mode;
          ExpectBatchMatchesScalar(
              catalog.get(), spec, stream, options,
              text + (mode == CounterMode::kExact ? " [exact]"
                                                  : " [modular]"));
        }
      }
    }
  }
}

TEST(BatchEquivalence, SemanticsAndPredicates) {
  auto catalog = FuzzCatalog();
  // The NEXT predicate populates follow_links_, which disqualifies the
  // batch fast path per call; the plain query keeps it.
  for (const char* text :
       {"RETURN COUNT(*) PATTERN A S+ WITHIN 6 seconds SLIDE 6 seconds",
        "RETURN COUNT(*) PATTERN A S+ WHERE S.x < NEXT(S).x "
        "WITHIN 6 seconds SLIDE 3 seconds"}) {
    QuerySpec spec = Parse(text, catalog.get());
    for (Semantics semantics :
         {Semantics::kSkipTillAnyMatch, Semantics::kSkipTillNextMatch,
          Semantics::kContiguous}) {
      Stream stream = FuzzStream(catalog.get(), 103, 150);
      EngineOptions options;
      options.semantics = semantics;
      ExpectBatchMatchesScalar(
          catalog.get(), spec, stream, options,
          std::string(text) + " semantics=" +
              std::to_string(static_cast<int>(semantics)));
    }
  }
}

TEST(BatchEquivalence, NegationFallsBackAndMatches) {
  auto catalog = FuzzCatalog();
  for (const char* pattern :
       {"SEQ(A S+, NOT C N, B E)", "SEQ(NOT C N, A S+)"}) {
    std::string text = "RETURN COUNT(*) PATTERN " + std::string(pattern) +
                       " WITHIN 8 seconds SLIDE 8 seconds";
    QuerySpec spec = Parse(text, catalog.get());
    Stream stream = FuzzStream(catalog.get(), 107, 150);
    ExpectBatchMatchesScalar(catalog.get(), spec, stream, {}, text);
  }
}

// Tumbling boundaries land mid-batch: two events per timestamp so batch
// splits of 3 and 5 cut through same-timestamp runs AND window closes.
TEST(BatchEquivalence, CrossWindowBoundarySplits) {
  auto catalog = FuzzCatalog();
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 4 seconds SLIDE 4 seconds",
      catalog.get());
  Random rng(109);
  const char* types[] = {"A", "B", "C"};
  Stream stream;
  for (Ts t = 0; t < 30; ++t) {
    for (int dup = 0; dup < 2; ++dup) {
      stream.Append(EventBuilder(catalog.get(), types[rng.UniformInt(0, 2)], t)
                        .Set("x", rng.UniformDouble(0, 10))
                        .Set("g", rng.UniformInt(0, 2))
                        .Build());
    }
  }
  auto scalar = MakeGreta(catalog.get(), spec.Clone(), RowKernel());
  std::vector<ResultRow> scalar_rows = RunEngine(scalar.get(), stream);
  for (size_t batch_size : {size_t{3}, size_t{5}}) {
    auto batched = MakeGreta(catalog.get(), spec.Clone());
    ExpectIdenticalRows(scalar_rows,
                        RunEngine(batched.get(), stream, batch_size),
                        "window split batch=" + std::to_string(batch_size));
  }
}

// Batched routing must broadcast exactly like scalar routing when a type
// lacks a key attribute (delivery to every agreeing partition, replay into
// partitions created later in the same run).
TEST(BatchEquivalence, BroadcastRoutingInBatches) {
  Catalog catalog;
  catalog.DefineType("A", {{"x", Value::Kind::kDouble},
                           {"g", Value::Kind::kInt}});
  catalog.DefineType("B", {{"x", Value::Kind::kDouble}});  // no g: broadcasts
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN SEQ(A S+, B E) GROUP-BY g "
      "WITHIN 8 seconds SLIDE 4 seconds",
      &catalog);
  Random rng(113);
  Stream stream;
  Ts time = 0;
  for (int i = 0; i < 150; ++i) {
    time += rng.UniformInt(0, 2);
    if (rng.UniformInt(0, 3) == 0) {
      stream.Append(EventBuilder(&catalog, "B", time)
                        .Set("x", rng.UniformDouble(0, 10))
                        .Build());
    } else {
      stream.Append(EventBuilder(&catalog, "A", time)
                        .Set("x", rng.UniformDouble(0, 10))
                        .Set("g", rng.UniformInt(0, 2))
                        .Build());
    }
  }
  ExpectBatchMatchesScalar(&catalog, spec, stream, {}, "broadcast");
}

TEST(BatchEquivalence, MultiQuerySharedCells) {
  auto catalog = FuzzCatalog();
  const std::vector<std::string> workload = {
      "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
      "RETURN SUM(S.x) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
      "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds"};
  std::vector<QuerySpec> specs;
  for (const std::string& text : workload) {
    specs.push_back(Parse(text, catalog.get()));
  }
  std::vector<const QuerySpec*> spec_ptrs;
  for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);

  Stream stream = FuzzStream(catalog.get(), 127, 150);
  auto scalar =
      GretaEngine::CreateMulti(catalog.get(), spec_ptrs, RowKernel());
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  auto batched = GretaEngine::CreateMulti(catalog.get(), spec_ptrs, {});
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  FeedStream(scalar.value().get(), stream);
  FeedStream(batched.value().get(), stream, 7);
  for (size_t q = 0; q < specs.size(); ++q) {
    ExpectIdenticalRows(scalar.value()->TakeResultsFor(q),
                        batched.value()->TakeResultsFor(q),
                        "multi-query batched slot " + std::to_string(q));
  }
}

TEST(BatchEquivalence, PartialSharingBatchVsScalar) {
  auto catalog = FuzzCatalog();
  std::vector<QuerySpec> specs;
  specs.push_back(Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
      catalog.get()));
  specs.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(A S+, B E) WITHIN 4 seconds SLIDE 4 "
      "seconds",
      catalog.get()));
  std::vector<const QuerySpec*> spec_ptrs;
  for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);

  Stream stream = FuzzStream(catalog.get(), 131, 150);
  auto scalar =
      GretaEngine::CreatePartial(catalog.get(), spec_ptrs, RowKernel());
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  auto batched = GretaEngine::CreatePartial(catalog.get(), spec_ptrs, {});
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  FeedStream(scalar.value().get(), stream);
  FeedStream(batched.value().get(), stream, 7);
  for (size_t q = 0; q < specs.size(); ++q) {
    ExpectIdenticalRows(scalar.value()->TakeResultsFor(q),
                        batched.value()->TakeResultsFor(q),
                        "partial batched slot " + std::to_string(q));
  }
}

// Sliding windows with k = 2 and k = 5 panes per event: the run kernel must
// produce the identical per-window fan-out the scalar path gets from
// FirstWindowOf/LastWindowOf, including events whose run straddles a pane
// boundary. With a NEXT predicate the lower time bound varies per event, so
// the suffix-merge strategy (COUNT) is exercised alongside shared-fold.
TEST(BatchEquivalence, SlidingWindows) {
  auto catalog = FuzzCatalog();
  for (const char* text :
       {"RETURN COUNT(*) PATTERN A S+ GROUP-BY g "
        "WITHIN 8 seconds SLIDE 4 seconds",
        "RETURN COUNT(*) PATTERN A S+ GROUP-BY g "
        "WITHIN 10 seconds SLIDE 2 seconds",
        "RETURN COUNT(*) PATTERN A S+ WHERE S.x < NEXT(S).x "
        "WITHIN 10 seconds SLIDE 2 seconds",
        "RETURN COUNT(*) PATTERN SEQ(A S+, B E) WHERE S.x < NEXT(S).x "
        "WITHIN 8 seconds SLIDE 4 seconds"}) {
    QuerySpec spec = Parse(text, catalog.get());
    Stream stream = FuzzStream(catalog.get(), 157, 150);
    ExpectBatchMatchesScalar(catalog.get(), spec, stream, {}, text);
  }
}

// SUM/MIN/MAX/AVG drive the generic fold through the batch kernels.
// Without a predicate every event of a run sees the same bounds
// (shared-fold, valid even for order-sensitive FP sums); with a NEXT
// predicate SUM/AVG must take the per-event strategy (FP addition does not
// commute) while MIN/MAX may suffix-merge — all bit-identical to scalar.
TEST(BatchEquivalence, AttributeAggregates) {
  auto catalog = FuzzCatalog();
  const char* aggs[] = {"SUM(S.x)", "MIN(S.x)", "MAX(S.x)", "AVG(S.x)",
                        "MIN(S.x), MAX(S.x)"};
  const char* wheres[] = {"", " WHERE S.x < NEXT(S).x"};
  const char* windows[] = {" WITHIN 10 seconds SLIDE 10 seconds",
                           " WITHIN 8 seconds SLIDE 4 seconds"};
  for (const char* agg : aggs) {
    for (const char* where : wheres) {
      for (const char* window : windows) {
        std::string text = "RETURN " + std::string(agg) + " PATTERN A S+" +
                           where + " GROUP-BY g" + window;
        QuerySpec spec = Parse(text, catalog.get());
        Stream stream = FuzzStream(catalog.get(), 163, 150);
        ExpectBatchMatchesScalar(catalog.get(), spec, stream, {}, text);
      }
    }
  }
}

// Residual predicates (not expressible as a time/attribute range over the
// skip-list key) no longer disqualify the batch path: the per-event strategy
// compacts collected predecessors through the compiled edge filters. The
// arithmetic conjunct is entirely non-extractable, so every edge goes
// through the residual filter.
TEST(BatchEquivalence, ResidualPredicates) {
  auto catalog = FuzzCatalog();
  for (const char* text :
       {"RETURN COUNT(*) PATTERN A S+ "
        "WHERE S.x < NEXT(S).x AND S.g >= NEXT(S).g "
        "WITHIN 8 seconds SLIDE 4 seconds",
        "RETURN SUM(S.x) PATTERN A S+ "
        "WHERE S.x < NEXT(S).x AND S.g >= NEXT(S).g "
        "WITHIN 10 seconds SLIDE 10 seconds",
        "RETURN COUNT(*) PATTERN A S+ WHERE S.x + S.g < NEXT(S).x "
        "WITHIN 8 seconds SLIDE 4 seconds"}) {
    QuerySpec spec = Parse(text, catalog.get());
    Stream stream = FuzzStream(catalog.get(), 167, 150);
    ExpectBatchMatchesScalar(catalog.get(), spec, stream, {}, text);
  }
}

// Partial sharing with attribute aggregates at ragged batch sizes: the run
// kernel must fill the same (snapshot, fold-slot) cells as the row kernel
// under the partial-sharing policy, including the per-query handoff at
// suffix states.
TEST(BatchEquivalence, PartialSharingBatchedAggregates) {
  auto catalog = FuzzCatalog();
  std::vector<QuerySpec> specs;
  specs.push_back(Parse(
      "RETURN SUM(S.x) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
      catalog.get()));
  specs.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(A S+, B E) WITHIN 4 seconds SLIDE 4 "
      "seconds",
      catalog.get()));
  std::vector<const QuerySpec*> spec_ptrs;
  for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);

  Stream stream = FuzzStream(catalog.get(), 173, 150);
  auto scalar =
      GretaEngine::CreatePartial(catalog.get(), spec_ptrs, RowKernel());
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  FeedStream(scalar.value().get(), stream);
  std::vector<std::vector<ResultRow>> expected;
  for (size_t q = 0; q < specs.size(); ++q) {
    expected.push_back(scalar.value()->TakeResultsFor(q));
  }
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    auto batched = GretaEngine::CreatePartial(catalog.get(), spec_ptrs, {});
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    FeedStream(batched.value().get(), stream, batch_size);
    for (size_t q = 0; q < specs.size(); ++q) {
      ExpectIdenticalRows(batched.value()->TakeResultsFor(q), expected[q],
                          "partial agg slot " + std::to_string(q) +
                              " batch=" + std::to_string(batch_size));
    }
  }
}

// NaN attribute values resolve NaN key bounds (at the event) and NaN tree
// keys (at stored predecessors) for `S.x > NEXT(S).x`. The run kernel hands
// those (state, run)s to the row kernel — BatchFallbackReason::kBounds, the
// only fallback an eligible plan can take — and the rows stay bit-identical
// to the row-kernel reference, for dedicated COUNT and SUM plans and for a
// partial-sharing cluster. SUM reads `g` so no NaN reaches a result row.
TEST(BatchEquivalence, NanBoundsFallBackToRowKernel) {
  auto catalog = FuzzCatalog();
  const Stream fuzz = FuzzStream(catalog.get(), 181, 150);
  Stream stream;
  int i = 0;
  for (Event e : fuzz.events()) {
    if (i++ % 5 == 2) {
      e.attrs[catalog->type(e.type).FindAttr("x")] =
          Value::Double(std::numeric_limits<double>::quiet_NaN());
    }
    stream.Append(std::move(e));
  }

  for (const char* text :
       {"RETURN COUNT(*) PATTERN A S+ WHERE S.x > NEXT(S).x "
        "WITHIN 8 seconds SLIDE 4 seconds",
        "RETURN SUM(S.g) PATTERN A S+ WHERE S.x > NEXT(S).x "
        "WITHIN 8 seconds SLIDE 4 seconds"}) {
    QuerySpec spec = Parse(text, catalog.get());
    auto scalar = MakeGreta(catalog.get(), spec.Clone(), RowKernel());
    std::vector<ResultRow> expected = RunEngine(scalar.get(), stream);
    ASSERT_FALSE(expected.empty()) << text;
    for (size_t batch_size : {size_t{7}, size_t{256}}) {
      const std::string label =
          std::string(text) + " batch=" + std::to_string(batch_size);
      auto batched = MakeGreta(catalog.get(), spec.Clone(), {});
      ExpectIdenticalRows(RunEngine(batched.get(), stream, batch_size),
                          expected, label);
      batched->RefreshStats();
      EXPECT_GT(batched->stats().batch_rows_fallback, 0u) << label;
      EXPECT_GT(batched->stats().batch_rows_fast, 0u) << label;
    }
  }

  std::vector<QuerySpec> specs;
  specs.push_back(Parse(
      "RETURN COUNT(*) PATTERN A S+ WHERE S.x > NEXT(S).x "
      "WITHIN 8 seconds SLIDE 4 seconds",
      catalog.get()));
  specs.push_back(Parse(
      "RETURN SUM(S.g) PATTERN SEQ(A S+, B E) WHERE S.x > NEXT(S).x "
      "WITHIN 4 seconds SLIDE 4 seconds",
      catalog.get()));
  std::vector<const QuerySpec*> spec_ptrs;
  for (const QuerySpec& s : specs) spec_ptrs.push_back(&s);
  auto scalar =
      GretaEngine::CreatePartial(catalog.get(), spec_ptrs, RowKernel());
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  FeedStream(scalar.value().get(), stream);
  std::vector<std::vector<ResultRow>> expected;
  for (size_t q = 0; q < specs.size(); ++q) {
    expected.push_back(scalar.value()->TakeResultsFor(q));
    ASSERT_FALSE(expected[q].empty()) << "partial NaN slot " << q;
  }
  for (size_t batch_size : {size_t{7}, size_t{256}}) {
    auto batched = GretaEngine::CreatePartial(catalog.get(), spec_ptrs, {});
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    FeedStream(batched.value().get(), stream, batch_size);
    for (size_t q = 0; q < specs.size(); ++q) {
      ExpectIdenticalRows(batched.value()->TakeResultsFor(q), expected[q],
                          "partial NaN slot " + std::to_string(q) +
                              " batch=" + std::to_string(batch_size));
    }
    batched.value()->RefreshStats();
    EXPECT_GT(batched.value()->stats().batch_rows_fallback, 0u)
        << "partial batch=" << batch_size;
    EXPECT_GT(batched.value()->stats().batch_rows_fast, 0u)
        << "partial batch=" << batch_size;
  }
}

// The engine tallies which rows took an amortized kernel and which fell
// back (and why); the aggregate surfaces through EngineStats. These are
// coverage guards: if a future change silently disqualifies an eligible
// plan, batch_rows_fast drops to zero here before any benchmark notices.
TEST(BatchEquivalence, FallbackAndStrategyCounters) {
  auto catalog = FuzzCatalog();
  Stream stream = FuzzStream(catalog.get(), 179, 150);

  auto run_batched = [&](const QuerySpec& spec, EngineOptions options) {
    auto engine = MakeGreta(catalog.get(), spec.Clone(), options);
    RunEngineBatched(engine.get(), stream.events(), 16);
    engine->RefreshStats();
    return engine->stats();
  };

  // Eligible plans — sliding COUNT, SUM, residual predicate — are fully
  // covered: no row falls back.
  for (const char* text :
       {"RETURN COUNT(*) PATTERN A S+ WITHIN 10 seconds SLIDE 2 seconds",
        "RETURN SUM(S.x) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
        "RETURN COUNT(*) PATTERN A S+ WHERE S.x + S.g < NEXT(S).x "
        "WITHIN 8 seconds SLIDE 4 seconds"}) {
    EngineStats stats = run_batched(Parse(text, catalog.get()), {});
    EXPECT_GT(stats.batch_rows_fast, 0u) << text;
    EXPECT_EQ(stats.batch_rows_fallback, 0u) << text;
  }

  // Kernels disabled: everything falls back, nothing runs fast.
  {
    QuerySpec spec = Parse(
        "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
        catalog.get());
    EngineOptions options;
    options.enable_batch_kernels = false;
    EngineStats stats = run_batched(spec, options);
    EXPECT_EQ(stats.batch_rows_fast, 0u);
    EXPECT_GT(stats.batch_rows_fallback, 0u);
  }

  // Restricted semantics: the plan is ineligible (edge sets are not
  // run-stable), so the batch entry point falls back row-wise.
  {
    QuerySpec spec = Parse(
        "RETURN COUNT(*) PATTERN A S+ WITHIN 8 seconds SLIDE 4 seconds",
        catalog.get());
    EngineOptions options;
    options.semantics = Semantics::kSkipTillNextMatch;
    EngineStats stats = run_batched(spec, options);
    EXPECT_EQ(stats.batch_rows_fast, 0u);
    EXPECT_GT(stats.batch_rows_fallback, 0u);
  }

  // Negation splits the pattern into alternative graphs whose marking scan
  // is inherently per-event.
  {
    QuerySpec spec = Parse(
        "RETURN COUNT(*) PATTERN SEQ(A S+, NOT C N, B E) "
        "WITHIN 8 seconds SLIDE 8 seconds",
        catalog.get());
    EngineStats stats = run_batched(spec, {});
    EXPECT_EQ(stats.batch_rows_fast, 0u);
    EXPECT_GT(stats.batch_rows_fallback, 0u);
  }

#if GRETA_TELEMETRY
  // The registry sees the same tallies, labelled by reason and strategy.
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  reg.Reset();
  reg.set_enabled(true);
  {
    QuerySpec spec = Parse(
        "RETURN COUNT(*) PATTERN A S+ WITHIN 10 seconds SLIDE 2 seconds",
        catalog.get());
    auto engine = MakeGreta(catalog.get(), spec.Clone(), {});
    RunEngineBatched(engine.get(), stream.events(), 16);
  }
  uint64_t fast_rows = 0, fallback_rows = 0;
  for (const auto& c : reg.ScrapeCounters()) {
    if (c.name.rfind("greta_core_batch_rows_total", 0) == 0) {
      fast_rows += c.value;
    } else if (c.name.rfind("greta_core_batch_fallback_rows_total", 0) == 0) {
      fallback_rows += c.value;
    }
  }
  EXPECT_GT(fast_rows, 0u);
  EXPECT_EQ(fallback_rows, 0u);
  reg.Reset();
#endif
}

// Out-of-order front end: a jittered wire stream goes through the k-slack
// buffer, whose in-order releases are packed into batches — identical to
// feeding each released event through Process.
TEST(BatchEquivalence, KSlackReleasedBatches) {
  auto catalog = FuzzCatalog();
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 6 seconds SLIDE 3 seconds",
      catalog.get());
  std::vector<Event> wire = FuzzStream(catalog.get(), 137, 150).events();
  Random rng(139);
  for (size_t i = 0; i + 1 < wire.size(); i += 2) {
    if (rng.UniformInt(0, 1) == 1) std::swap(wire[i], wire[i + 1]);
  }
  KSlackBuffer buffer(/*slack=*/3);
  Stream released;
  for (Event& e : wire) {
    for (Event& r : buffer.Push(std::move(e))) released.Append(std::move(r));
  }
  for (Event& r : buffer.Flush()) released.Append(std::move(r));
  ASSERT_EQ(buffer.dropped(), 0u);

  auto scalar = MakeGreta(catalog.get(), spec.Clone(), RowKernel());
  std::vector<ResultRow> scalar_rows = RunEngine(scalar.get(), released);
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    auto batched = MakeGreta(catalog.get(), spec.Clone());
    ExpectIdenticalRows(scalar_rows,
                        RunEngine(batched.get(), released, batch_size),
                        "kslack batch=" + std::to_string(batch_size));
  }
}

// sort_within_batch repairs disorder that is confined to a batch: swapping
// unequal-timestamp neighbours at even offsets keeps every inversion inside
// one batch of 8, and the stable SortByTime restores the original order.
TEST(BatchEquivalence, SortWithinBatchRepairsLocalDisorder) {
  auto catalog = FuzzCatalog();
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 6 seconds SLIDE 3 seconds",
      catalog.get());
  Stream ordered = FuzzStream(catalog.get(), 149, 152);
  std::vector<Event> wire = ordered.events();
  Random rng(151);
  for (size_t i = 0; i + 1 < wire.size(); i += 2) {
    if (wire[i].time != wire[i + 1].time && rng.UniformInt(0, 1) == 1) {
      std::swap(wire[i], wire[i + 1]);
    }
  }
  auto scalar = MakeGreta(catalog.get(), spec.Clone(), RowKernel());
  std::vector<ResultRow> scalar_rows = RunEngine(scalar.get(), ordered);
  auto batched = MakeGreta(catalog.get(), spec.Clone());
  ExpectIdenticalRows(
      scalar_rows,
      RunEngineBatched(batched.get(), wire, 8, /*sort_within_batch=*/true),
      "sort_within_batch");
}

TEST(BatchEquivalence, DisorderedBatchesRejected) {
  auto catalog = FuzzCatalog();
  QuerySpec spec = Parse("RETURN COUNT(*) PATTERN A S+", catalog.get());
  auto engine = MakeGreta(catalog.get(), spec.Clone());
  auto make = [&](Ts t) {
    return EventBuilder(catalog.get(), "A", t).Set("x", 1.0).Set("g", 0)
        .Build();
  };
  EventBatch unsorted;
  unsorted.Append(make(5));
  unsorted.Append(make(3));
  ASSERT_FALSE(unsorted.time_ordered());
  EXPECT_FALSE(engine->ProcessBatch(unsorted).ok());

  EventBatch first;
  first.Append(make(10));
  ASSERT_TRUE(engine->ProcessBatch(first).ok());
  // The watermark advanced to 10, so a batch starting earlier regresses.
  EventBatch regress;
  regress.Append(make(7));
  EXPECT_FALSE(engine->ProcessBatch(regress).ok());
  // Empty batches are harmless (watermark-only heartbeats).
  EventBatch empty;
  EXPECT_TRUE(engine->ProcessBatch(empty).ok());
}

// --- Counter promotion boundary (u64 overflow edge) ---

TEST(CounterPromotion, AddOneAtMaxPromotesExact) {
  Counter c(~uint64_t{0});
  c.AddOne(CounterMode::kExact);
  EXPECT_EQ(c.ToDecimal(), "18446744073709551616");  // 2^64
  EXPECT_EQ(c.Low64(), 0u);
  EXPECT_FALSE(c.IsZero());
  c.AddOne(CounterMode::kExact);
  EXPECT_EQ(c.ToDecimal(), "18446744073709551617");
}

TEST(CounterPromotion, AddOneAtMaxWrapsModular) {
  Counter c(~uint64_t{0});
  c.AddOne(CounterMode::kModular);
  EXPECT_TRUE(c.IsZero());
  EXPECT_EQ(c.ToDecimal(), "0");
}

TEST(CounterPromotion, AddCrossingBoundary) {
  Counter a(uint64_t{1} << 63);
  Counter b(uint64_t{1} << 63);
  a.Add(b, CounterMode::kExact);
  EXPECT_EQ(a.ToDecimal(), "18446744073709551616");
  // One below the edge stays un-promoted.
  Counter c(~uint64_t{0} - 1);
  Counter one(1);
  c.Add(one, CounterMode::kExact);
  EXPECT_EQ(c.ApproxHeapBytes(), 0u);  // still the inline u64
  EXPECT_EQ(c.Low64(), ~uint64_t{0});
  // Modular wraps silently.
  Counter d(~uint64_t{0});
  d.Add(one, CounterMode::kModular);
  EXPECT_TRUE(d.IsZero());
}

TEST(CounterPromotion, PromotedAccumulatesFurtherAdds) {
  Counter promoted(~uint64_t{0});
  promoted.AddOne(CounterMode::kExact);  // 2^64, promoted
  Counter plain(5);
  promoted.Add(plain, CounterMode::kExact);
  EXPECT_EQ(promoted.ToDecimal(), "18446744073709551621");
  // Copies of promoted counters are deep.
  Counter copy = promoted;
  copy.AddOne(CounterMode::kExact);
  EXPECT_EQ(promoted.ToDecimal(), "18446744073709551621");
  EXPECT_EQ(copy.ToDecimal(), "18446744073709551622");
}

// Engine-level promotion: n same-type events under an unbounded window give
// 2^n - 1 trends (every non-empty subsequence), so n = 70 drives the
// COUNT(*)-exact kernel across the u64 overflow edge mid-stream. The
// modular engine must agree mod 2^64.
TEST(CounterPromotion, EngineCountCrossesU64Boundary) {
  auto catalog = FuzzCatalog();
  QuerySpec spec = Parse("RETURN COUNT(*) PATTERN A S+", catalog.get());
  Stream stream;
  const int n = 70;
  for (int i = 0; i < n; ++i) {
    stream.Append(EventBuilder(catalog.get(), "A", i + 1)
                      .Set("x", 1.0)
                      .Set("g", 0)
                      .Build());
  }

  // Expected 2^70 - 1 via the Counter itself: x -> 2x + 1, n times.
  Counter expected;
  for (int i = 0; i < n; ++i) {
    Counter copy = expected;
    expected.Add(copy, CounterMode::kExact);
    expected.AddOne(CounterMode::kExact);
  }

  EngineOptions exact;
  exact.counter_mode = CounterMode::kExact;
  auto exact_engine = MakeGreta(catalog.get(), spec.Clone(), exact);
  std::vector<ResultRow> exact_rows =
      RunEngine(exact_engine.get(), stream);
  ASSERT_EQ(exact_rows.size(), 1u);
  EXPECT_EQ(exact_rows[0].aggs.count.ToDecimal(), expected.ToDecimal());

  EngineOptions modular;
  modular.counter_mode = CounterMode::kModular;
  auto modular_engine = MakeGreta(catalog.get(), spec.Clone(), modular);
  std::vector<ResultRow> modular_rows =
      RunEngine(modular_engine.get(), stream);
  ASSERT_EQ(modular_rows.size(), 1u);
  EXPECT_EQ(modular_rows[0].aggs.count.Low64(), expected.Low64());

  // And the exact engine agrees with its generic-kernel twin bit for bit.
  exact.enable_specialized_kernels = false;
  auto generic_engine = MakeGreta(catalog.get(), spec.Clone(), exact);
  std::vector<ResultRow> generic_rows =
      RunEngine(generic_engine.get(), stream);
  ExpectIdenticalRows(exact_rows, generic_rows, "overflow exact-vs-generic");
}

}  // namespace
}  // namespace greta
