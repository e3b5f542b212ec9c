// Stored-cell layout: each edge-fold policy stores only the cell its plan
// reads (a u64 count for COUNT(*)-only modular graphs, a Counter for exact
// ones, an AggCell otherwise), and a window that Case-3 negation invalidated
// is stored as a zero row. These tests pin that every stored cell type gives
// rows bit-identical to the AggCell layout (enable_specialized_kernels =
// false) at every batch size, that the incremental memory accounting stays
// exact, that a promoted exact Counter survives storage and purge, and what
// a vertex costs, so a wider layout cannot come back silently. They also run
// an event through 100 windows against the SASE oracle.

#include <memory>
#include <string>
#include <vector>

#include "common/event_batch.h"
#include "common/random.h"
#include "core/greta_graph.h"
#include "gtest/gtest.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using testing::MakeGreta;
using testing::MakeOracle;
using testing::RunEngine;

static_assert(sizeof(AggCell) == 64, "AggCell grew");
static_assert(sizeof(GraphVertex) == 64, "GraphVertex grew");

std::unique_ptr<Catalog> LayoutCatalog() {
  auto catalog = std::make_unique<Catalog>();
  for (const char* name : {"A", "B", "C"}) {
    catalog->DefineType(name, {{"x", Value::Kind::kDouble},
                               {"g", Value::Kind::kInt}});
  }
  return catalog;
}

// Random A/B/C events, 0-2 s apart (so same-timestamp runs occur).
Stream LayoutStream(Catalog* catalog, uint64_t seed, int n) {
  Random rng(seed);
  const char* types[] = {"A", "A", "B", "C"};
  Stream stream;
  Ts time = 0;
  for (int i = 0; i < n; ++i) {
    time += rng.UniformInt(0, 2);
    stream.Append(EventBuilder(catalog, types[rng.UniformInt(0, 3)], time)
                      .Set("x", rng.UniformDouble(0, 10))
                      .Set("g", rng.UniformInt(0, 2))
                      .Build());
  }
  return stream;
}

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

// Rows of every query slot, in slot order.
using SlotRows = std::vector<std::vector<ResultRow>>;

// Feeds `stream` in batches of `batch_size` rows, asserting after every
// batch that the tracked bytes equal a from-scratch walk of the panes.
SlotRows RunChecked(GretaEngine* engine, const Stream& stream,
                    size_t batch_size, size_t num_queries,
                    const std::string& label) {
  const std::vector<Event>& events = stream.events();
  EventBatch batch;
  for (size_t i = 0; i < events.size(); i += batch_size) {
    batch.clear();
    for (size_t j = i; j < std::min(events.size(), i + batch_size); ++j) {
      batch.Append(events[j]);
    }
    Status s = engine->ProcessBatch(batch);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(engine->RecomputeTrackedBytes(),
              engine->memory().current_bytes())
        << label << " after row " << i;
  }
  Status s = engine->Flush();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(engine->RecomputeTrackedBytes(), engine->memory().current_bytes())
      << label << " after flush";
  SlotRows rows(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    rows[q] = engine->TakeResultsFor(q);
  }
  return rows;
}

// Bit-exact rows: no floating-point tolerance.
void ExpectIdenticalRows(const SlotRows& a, const SlotRows& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << label << " slot " << q;
    for (size_t i = 0; i < a[q].size(); ++i) {
      const ResultRow& x = a[q][i];
      const ResultRow& y = b[q][i];
      const std::string at =
          label + " slot " + std::to_string(q) + " row " + std::to_string(i);
      EXPECT_EQ(x.wid, y.wid) << at;
      ASSERT_EQ(x.group.size(), y.group.size()) << at;
      for (size_t g = 0; g < x.group.size(); ++g) {
        EXPECT_TRUE(x.group[g] == y.group[g]) << at;
      }
      EXPECT_EQ(x.aggs.count.ToDecimal(), y.aggs.count.ToDecimal()) << at;
      EXPECT_EQ(x.aggs.any, y.aggs.any) << at;
    }
  }
}

std::unique_ptr<GretaEngine> Build(const Catalog* catalog,
                                   const std::vector<QuerySpec>& specs,
                                   const EngineOptions& options) {
  if (specs.size() == 1) return MakeGreta(catalog, specs[0].Clone(), options);
  std::vector<const QuerySpec*> ptrs;
  for (const QuerySpec& spec : specs) ptrs.push_back(&spec);
  auto engine = GretaEngine::CreateMulti(catalog, ptrs, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

// Runs `texts` (one query, or a CreateMulti cluster) in both counter modes
// with the COUNT(*) cells and with the AggCell layout, at batch sizes 1, 7
// and 256: rows bit-identical, accounting exact after every batch, and the
// narrow cells never costing more peak bytes than AggCells.
void ExpectCountCellsMatchAggCells(const std::vector<std::string>& texts,
                                   const Stream& stream, Catalog* catalog) {
  std::vector<QuerySpec> specs;
  for (const std::string& text : texts) specs.push_back(Parse(text, catalog));
  for (CounterMode mode : {CounterMode::kModular, CounterMode::kExact}) {
    const std::string mode_name =
        mode == CounterMode::kModular ? "modular" : "exact";
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
      const std::string label = texts[0] + " [" + mode_name + ", batch " +
                                std::to_string(batch_size) + "]";
      EngineOptions options;
      options.counter_mode = mode;
      options.enable_specialized_kernels = false;
      auto wide = Build(catalog, specs, options);
      SlotRows wide_rows = RunChecked(wide.get(), stream, batch_size,
                                      specs.size(), label + " AggCell");
      options.enable_specialized_kernels = true;
      auto narrow = Build(catalog, specs, options);
      SlotRows narrow_rows = RunChecked(narrow.get(), stream, batch_size,
                                        specs.size(), label + " count cells");
      ExpectIdenticalRows(narrow_rows, wide_rows, label);
      size_t rows = 0;
      for (const std::vector<ResultRow>& slot : wide_rows) rows += slot.size();
      EXPECT_GT(rows, 0u) << label << ": the stream must produce rows";
      EXPECT_LT(narrow->memory().peak_bytes(), wide->memory().peak_bytes())
          << label;
    }
  }
}

TEST(CellLayout, SlidingWindowCountCells) {
  auto catalog = LayoutCatalog();
  ExpectCountCellsMatchAggCells(
      {"RETURN COUNT(*) PATTERN A S+ WHERE S.x < NEXT(S).x WITHIN 6 seconds "
       "SLIDE 2 seconds"},
      LayoutStream(catalog.get(), 11, 160), catalog.get());
}

TEST(CellLayout, TumblingWindowCountCells) {
  auto catalog = LayoutCatalog();
  ExpectCountCellsMatchAggCells(
      {"RETURN COUNT(*) PATTERN SEQ(A S+, B E) WITHIN 5 seconds"},
      LayoutStream(catalog.get(), 12, 160), catalog.get());
}

TEST(CellLayout, GroupByCountCells) {
  auto catalog = LayoutCatalog();
  ExpectCountCellsMatchAggCells(
      {"RETURN g, COUNT(*) PATTERN A S+ WHERE [g] AND S.x > NEXT(S).x "
       "GROUP-BY g WITHIN 6 seconds SLIDE 3 seconds"},
      LayoutStream(catalog.get(), 13, 200), catalog.get());
}

TEST(CellLayout, TwoQuerySlotsShareOneRow) {
  auto catalog = LayoutCatalog();
  ExpectCountCellsMatchAggCells(
      {"RETURN COUNT(*) PATTERN A S+ WHERE S.x < NEXT(S).x WITHIN 6 seconds "
       "SLIDE 2 seconds",
       "RETURN COUNT(*) PATTERN A S+ WHERE S.x < NEXT(S).x WITHIN 6 seconds "
       "SLIDE 2 seconds"},
      LayoutStream(catalog.get(), 14, 160), catalog.get());
}

TEST(CellLayout, NegationCase1CountCells) {
  auto catalog = LayoutCatalog();
  ExpectCountCellsMatchAggCells(
      {"RETURN COUNT(*) PATTERN SEQ(A S+, NOT C N, B E) WITHIN 6 seconds "
       "SLIDE 2 seconds"},
      LayoutStream(catalog.get(), 15, 160), catalog.get());
}

// Trailing negation: the window-close END walk reads the stored cells,
// for one query slot and for two.
TEST(CellLayout, NegationCase2CountCells) {
  auto catalog = LayoutCatalog();
  const std::string text =
      "RETURN COUNT(*) PATTERN SEQ(A S+, NOT C N) WITHIN 6 seconds SLIDE 2 "
      "seconds";
  Stream stream = LayoutStream(catalog.get(), 16, 160);
  ExpectCountCellsMatchAggCells({text}, stream, catalog.get());
  ExpectCountCellsMatchAggCells({text, text}, stream, catalog.get());
}

TEST(CellLayout, NegationCase3CountCells) {
  auto catalog = LayoutCatalog();
  ExpectCountCellsMatchAggCells(
      {"RETURN COUNT(*) PATTERN SEQ(NOT C N, A S+, B E) WITHIN 6 seconds "
       "SLIDE 2 seconds"},
      LayoutStream(catalog.get(), 17, 160), catalog.get());
}

// Case-3 negation invalidates a window for the following state only: a11 is
// stored with a zero row for the windows c10 precedes it in (9 and 10), so
// b12 — not a following state, active in every window — takes the a11 edge
// in window 11 alone: one edge, not two. Window 10 has no row at all.
TEST(CellLayout, InactiveWindowIsAZeroRow) {
  auto catalog = LayoutCatalog();
  Stream stream;
  for (auto [type, time] : {std::pair<const char*, Ts>{"C", 10},
                            {"A", 11},
                            {"B", 12}}) {
    stream.Append(EventBuilder(catalog.get(), type, time)
                      .Set("x", 1.0)
                      .Set("g", 0)
                      .Build());
  }
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN SEQ(NOT C N, A S+, B E) WITHIN 3 seconds "
      "SLIDE 1 seconds",
      catalog.get());
  for (bool specialized : {true, false}) {
    EngineOptions options;
    options.enable_specialized_kernels = specialized;
    auto engine = MakeGreta(catalog.get(), spec.Clone(), options);
    std::vector<ResultRow> rows = RunEngine(engine.get(), stream);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].wid, 11);
    EXPECT_EQ(rows[0].aggs.count.ToDecimal(), "1");
    EXPECT_EQ(engine->stats().vertices_stored, 3u);  // c10, a11, b12
    EXPECT_EQ(engine->stats().edges_traversed, 1u);
  }
  auto oracle = MakeOracle(catalog.get(), spec.Clone());
  std::vector<ResultRow> oracle_rows = RunEngine(oracle.get(), stream);
  ASSERT_EQ(oracle_rows.size(), 1u);
  EXPECT_EQ(oracle_rows[0].wid, 11);
  EXPECT_EQ(oracle_rows[0].aggs.count.ToDecimal(), "1");
}

// n same-type events inside one window give 2^n - 1 trends: at n = 70 the
// exact kernel stores Counters promoted past 2^64 in the vertices, which
// must fold, emit and be freed (ASan checks the purge and the teardown)
// exactly like the AggCell layout's.
TEST(CellLayout, StoredExactCounterPromotesPastU64) {
  auto catalog = LayoutCatalog();
  Stream stream;
  for (int i = 0; i < 70; ++i) {
    stream.Append(EventBuilder(catalog.get(), "A", 100 + i)
                      .Set("x", 1.0)
                      .Set("g", 0)
                      .Build());
  }
  // A late event closes and purges every window the 70 fell into.
  stream.Append(
      EventBuilder(catalog.get(), "B", 1000).Set("x", 1.0).Set("g", 0).Build());
  ExpectCountCellsMatchAggCells(
      {"RETURN COUNT(*) PATTERN A S+ WITHIN 100 seconds SLIDE 50 seconds"},
      stream, catalog.get());

  // Window [100, 200) holds all 70: 2^70 - 1 trends, exactly.
  Counter expected;
  for (int i = 0; i < 70; ++i) {
    Counter copy = expected;
    expected.Add(copy, CounterMode::kExact);
    expected.AddOne(CounterMode::kExact);
  }
  EngineOptions exact;
  exact.counter_mode = CounterMode::kExact;
  auto engine = MakeGreta(
      catalog.get(),
      Parse("RETURN COUNT(*) PATTERN A S+ WITHIN 100 seconds SLIDE 50 seconds",
            catalog.get()),
      exact);
  std::vector<ResultRow> rows = RunEngine(engine.get(), stream, 7);
  bool found = false;
  for (const ResultRow& row : rows) {
    if (row.wid != 2) continue;  // window 2 = [100, 200)
    found = true;
    EXPECT_EQ(row.aggs.count.ToDecimal(), expected.ToDecimal());
  }
  EXPECT_TRUE(found);
}

// What one stored vertex costs in a COUNT(*) WITHIN 10 SLIDE 1 graph: each
// vertex falls into 10 windows, so its cells take 10 x 8 bytes (modular),
// 10 x 16 (exact) or 10 x 64 (AggCell). n start vertices at one timestamp
// form one run in one pane, partition and tree, whose arena space the run
// kernel reserves in one chunk, so the tracked-byte differences between
// the layouts are the cell bytes alone.
TEST(CellLayout, TrackedBytesPerVertexSlidingCount) {
  auto catalog = LayoutCatalog();
  constexpr int kVertices = 8192;
  Stream stream;
  for (int i = 0; i < kVertices; ++i) {
    stream.Append(EventBuilder(catalog.get(), "A", 50)
                      .Set("x", static_cast<double>(i))
                      .Set("g", 0)
                      .Build());
  }
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 10 seconds SLIDE 1 seconds",
      catalog.get());
  auto bytes_per_vertex = [&](CounterMode mode, bool specialized) {
    EngineOptions options;
    options.counter_mode = mode;
    options.enable_specialized_kernels = specialized;
    auto engine = MakeGreta(catalog.get(), spec.Clone(), options);
    EventBatch batch;
    for (const Event& e : stream.events()) batch.Append(e);
    EXPECT_TRUE(engine->ProcessBatch(batch).ok());
    EXPECT_EQ(engine->RecomputeTrackedBytes(),
              engine->memory().current_bytes());
    return static_cast<double>(engine->memory().current_bytes()) / kVertices;
  };
  const double modular = bytes_per_vertex(CounterMode::kModular, true);
  const double exact = bytes_per_vertex(CounterMode::kExact, true);
  const double wide = bytes_per_vertex(CounterMode::kModular, false);
  // The vertex, its 10 u64 cells and its tree entry: 179 bytes on x86-64
  // (the AggCell layout takes 739).
  EXPECT_GT(modular, sizeof(GraphVertex) + 10 * sizeof(uint64_t));
  EXPECT_LT(modular, 200.0);
  EXPECT_NEAR(exact - modular, 10 * (sizeof(Counter) - sizeof(uint64_t)),
              1.0);
  EXPECT_NEAR(wide - modular, 10 * (sizeof(AggCell) - sizeof(uint64_t)),
              1.0);
}

// An event may fall into more than 64 windows: WITHIN 100 SLIDE 1 puts
// every event into 100, and the rows still match the SASE oracle.
TEST(CellLayout, HundredWindowsPerEventMatchOracle) {
  Catalog catalog;
  StockConfig config;
  config.seed = 5;
  config.rate = 10;
  config.duration = 80;
  Stream stream = GenerateStockStream(&catalog, config);
  auto parsed = MakeQ1(&catalog, /*within=*/100, /*slide=*/1);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const QuerySpec& spec = parsed.value();

  EngineOptions options;
  EXPECT_FALSE(GretaEngine::Create(&catalog, spec, options).ok())
      << "the default bound (64) must reject 100 windows";
  options.max_windows_per_event = 100;
  auto greta = MakeGreta(&catalog, spec.Clone(), options);
  TwoStepOptions oracle_options;
  oracle_options.max_windows_per_event = 100;
  auto oracle = MakeOracle(&catalog, spec.Clone(), oracle_options);
  std::vector<ResultRow> greta_rows = RunEngine(greta.get(), stream, 256);
  std::vector<ResultRow> oracle_rows = RunEngine(oracle.get(), stream);
  EXPECT_FALSE(greta_rows.empty());
  std::string diff;
  EXPECT_TRUE(
      RowsEquivalent(greta_rows, oracle_rows, greta->agg_plan(), &diff))
      << diff;
}

TEST(CellLayout, MaxWindowsPerEventOutOfRangeRejected) {
  auto catalog = LayoutCatalog();
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 4 seconds SLIDE 1 seconds",
      catalog.get());
  for (int bad : {0, -1, 32768}) {
    EngineOptions options;
    options.max_windows_per_event = bad;
    EXPECT_FALSE(GretaEngine::Create(catalog.get(), spec, options).ok())
        << bad;
  }
  EngineOptions options;
  options.max_windows_per_event = 32767;
  EXPECT_TRUE(GretaEngine::Create(catalog.get(), spec, options).ok());
}

}  // namespace
}  // namespace greta
