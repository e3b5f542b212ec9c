// Failure injection and edge cases of the engines: in-order enforcement,
// repeated Flush, irrelevant events, planner rejections, stats reporting,
// DNF behavior, and result drain semantics.

#include "baselines/sase.h"
#include "gtest/gtest.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using testing::CountQuery;
using testing::MakeGreta;
using testing::PaperCatalog;

Event At(Catalog* catalog, const char* type, Ts time) {
  return EventBuilder(catalog, type, time)
      .Set("attr", static_cast<double>(time))
      .Build();
}

TEST(EngineEdgeTest, RejectsOutOfOrderEvents) {
  auto catalog = PaperCatalog();
  auto engine = MakeGreta(catalog.get(),
                          CountQuery(Pattern::Plus(Pattern::Atom(0))));
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", 10)).ok());
  Status s = engine->Process(At(catalog.get(), "A", 9));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(EngineEdgeTest, TwoStepRejectsOutOfOrderEvents) {
  auto catalog = PaperCatalog();
  auto engine_or = SaseEngine::Create(
      catalog.get(), CountQuery(Pattern::Plus(Pattern::Atom(0))));
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(engine_or).value();
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", 10)).ok());
  EXPECT_FALSE(engine->Process(At(catalog.get(), "A", 9)).ok());
}

TEST(EngineEdgeTest, RepeatedFlushEmitsOnce) {
  auto catalog = PaperCatalog();
  auto engine = MakeGreta(catalog.get(),
                          CountQuery(Pattern::Plus(Pattern::Atom(0))));
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", 1)).ok());
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->TakeResults().size(), 1u);
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_TRUE(engine->TakeResults().empty());
}

TEST(EngineEdgeTest, TakeResultsDrains) {
  auto catalog = PaperCatalog();
  auto engine = MakeGreta(catalog.get(),
                          CountQuery(Pattern::Plus(Pattern::Atom(0))));
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", 1)).ok());
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->TakeResults().size(), 1u);
  EXPECT_TRUE(engine->TakeResults().empty());
}

TEST(EngineEdgeTest, IrrelevantEventsAdvanceWatermark) {
  // Events of types outside the pattern still close windows.
  auto catalog = PaperCatalog();
  QuerySpec spec = CountQuery(Pattern::Plus(Pattern::Atom(0)));
  spec.window = WindowSpec::Tumbling(5);
  auto engine = MakeGreta(catalog.get(), std::move(spec));
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", 1)).ok());
  ASSERT_TRUE(engine->Process(At(catalog.get(), "E", 50)).ok());
  std::vector<ResultRow> rows = engine->TakeResults();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].wid, 0);
}

TEST(EngineEdgeTest, LargeTimestampsDoNotStallWindowLoop) {
  // First event at an astronomically large time: window ids jump straight
  // to it instead of iterating from zero.
  auto catalog = PaperCatalog();
  QuerySpec spec = CountQuery(Pattern::Plus(Pattern::Atom(0)));
  spec.window = WindowSpec::Tumbling(10);
  auto engine = MakeGreta(catalog.get(), std::move(spec));
  Ts huge = Ts{1} << 50;
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", huge)).ok());
  ASSERT_TRUE(engine->Process(At(catalog.get(), "A", huge + 11)).ok());
  std::vector<ResultRow> rows = engine->TakeResults();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].aggs.count.ToDecimal(), "1");
}

TEST(EngineEdgeTest, PlannerRejectsTooManyWindowsPerEvent) {
  auto catalog = PaperCatalog();
  QuerySpec spec = CountQuery(Pattern::Plus(Pattern::Atom(0)));
  spec.window = WindowSpec::Sliding(1000, 1);  // k = 1000 > 64 default.
  auto engine = GretaEngine::Create(catalog.get(), spec);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kUnsupported);
}

TEST(EngineEdgeTest, PlannerRejectsMissingPattern) {
  auto catalog = PaperCatalog();
  QuerySpec spec;
  spec.aggs = {{AggKind::kCountStar, kInvalidType, kInvalidAttr, "COUNT(*)"}};
  EXPECT_FALSE(GretaEngine::Create(catalog.get(), spec).ok());
}

TEST(EngineEdgeTest, PlannerRejectsOrderingStringAgainstNumber) {
  // Strings and numbers have no common order: the planner rejects the
  // comparison up front instead of letting Value::Compare assert on it.
  Catalog catalog;
  RegisterStockTypes(&catalog);
  auto plan = [&](const std::string& pred)
      -> StatusOr<std::unique_ptr<GretaEngine>> {
    StatusOr<QuerySpec> spec = ParseQuery(
        "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [sector] AND " + pred +
            " GROUP-BY sector WITHIN 10 SLIDE 10",
        &catalog);
    EXPECT_TRUE(spec.ok()) << pred << ": " << spec.status().ToString();
    if (!spec.ok()) return spec.status();
    return GretaEngine::Create(&catalog, spec.value());
  };
  for (const char* pred :
       {"S.company < 'abc'", "'abc' > S.price", "S.price >= 'abc'",
        "NEXT(S).volume <= 'abc'", "(S.price > 'abc' OR S.price > 1)"}) {
    auto engine = plan(pred);
    ASSERT_FALSE(engine.ok()) << pred;
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << pred;
  }
  // Equality across kinds is defined (false), and same-class orderings are
  // fine; these plan and run.
  for (const char* pred : {"S.company = 'abc'", "S.company < S.price"}) {
    auto engine = plan(pred);
    ASSERT_TRUE(engine.ok()) << pred << ": " << engine.status().ToString();
    Event e = EventBuilder(&catalog, "Stock", 1)
                  .Set("company", int64_t{1})
                  .Set("sector", int64_t{0})
                  .Set("price", 2.5)
                  .Build();
    EXPECT_TRUE(engine.value()->Process(e).ok());
    EXPECT_TRUE(engine.value()->Flush().ok());
  }
}

TEST(EngineEdgeTest, StatsAreReported) {
  auto catalog = PaperCatalog();
  auto engine = MakeGreta(
      catalog.get(), CountQuery(Pattern::Plus(Pattern::Atom(0))));
  for (Ts t = 1; t <= 10; ++t) {
    ASSERT_TRUE(engine->Process(At(catalog.get(), "A", t)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  const EngineStats& stats = engine->stats();
  EXPECT_EQ(stats.events_processed, 10u);
  EXPECT_EQ(stats.vertices_stored, 10u);
  // A+ over 10 events: 45 pairwise edges.
  EXPECT_EQ(stats.edges_traversed, 45u);
  EXPECT_GT(stats.peak_bytes, 0u);
  EXPECT_FALSE(stats.dnf);
}

// The per-query tallies add every window close's work: one A per tick under
// WITHIN 1 SLIDE 1 closes one window per tick, and the interleaved B events
// are irrelevant, so none of them is routed.
TEST(EngineEdgeTest, PerQueryTalliesCountEveryClose) {
  auto catalog = PaperCatalog();
  auto spec = ParseQuery(
      "RETURN COUNT(*) PATTERN A S+ WITHIN 1 seconds SLIDE 1 seconds",
      catalog.get());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto engine = MakeGreta(catalog.get(), std::move(spec).value());
  constexpr Ts kTicks = 400;
  for (Ts t = 0; t < kTicks; ++t) {
    ASSERT_TRUE(engine->Process(At(catalog.get(), "A", t)).ok());
    ASSERT_TRUE(engine->Process(At(catalog.get(), "B", t)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  const std::vector<QueryExecStats>& tallies = engine->query_exec_stats();
  ASSERT_EQ(tallies.size(), 1u);
  EXPECT_EQ(tallies[0].windows_closed, static_cast<size_t>(kTicks));
  EXPECT_EQ(tallies[0].events_routed, static_cast<size_t>(kTicks));
  EXPECT_EQ(tallies[0].vertices_created, static_cast<size_t>(kTicks));
}

TEST(EngineEdgeTest, DnfEngineStaysInertAfterFlush) {
  auto catalog = PaperCatalog();
  TwoStepOptions options;
  options.work_budget = 10;
  auto engine_or = SaseEngine::Create(
      catalog.get(), CountQuery(Pattern::Plus(Pattern::Atom(0))), options);
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(engine_or).value();
  for (Ts t = 1; t <= 20; ++t) {
    ASSERT_TRUE(engine->Process(At(catalog.get(), "A", t)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_TRUE(engine->stats().dnf);
  EXPECT_TRUE(engine->TakeResults().empty());
  // Still accepts (and ignores) traffic after DNF.
  EXPECT_TRUE(engine->Process(At(catalog.get(), "A", 21)).ok());
  EXPECT_TRUE(engine->Flush().ok());
  EXPECT_TRUE(engine->TakeResults().empty());
}

TEST(EngineEdgeTest, ManyPartitionsManyWindows) {
  // Smoke: 50 groups x sliding windows with purge; exercises the routing
  // maps and pane cleanup paths together.
  auto catalog = std::make_unique<Catalog>();
  catalog->DefineType("T", {{"g", Value::Kind::kInt}});
  QuerySpec spec;
  spec.pattern = Pattern::Plus(Pattern::Atom(0));
  spec.aggs = {{AggKind::kCountStar, kInvalidType, kInvalidAttr, "COUNT(*)"}};
  spec.group_by = {"g"};
  spec.window = WindowSpec::Sliding(4, 2);
  auto engine = MakeGreta(catalog.get(), std::move(spec));
  for (Ts t = 0; t < 200; ++t) {
    for (int64_t g = 0; g < 50; ++g) {
      ASSERT_TRUE(engine
                      ->Process(EventBuilder(catalog.get(), "T", t)
                                    .Set("g", g)
                                    .Build())
                      .ok());
    }
  }
  ASSERT_TRUE(engine->Flush().ok());
  std::vector<ResultRow> rows = engine->TakeResults();
  // 100 closed windows x 50 groups (the first window [0,4) is wid 0; the
  // last window containing t=199 is wid 99 with start 198).
  EXPECT_EQ(rows.size(), 100u * 50u);
  // Full windows hold 4 events per group: 2^4 - 1 trends.
  EXPECT_EQ(rows[70].aggs.count.ToDecimal(), "15");
}

TEST(EngineEdgeTest, ZeroAggregateQueriesRejected) {
  auto catalog = PaperCatalog();
  QuerySpec spec;
  spec.pattern = Pattern::Plus(Pattern::Atom(0));
  EXPECT_FALSE(GretaEngine::Create(catalog.get(), spec).ok());
}

}  // namespace
}  // namespace greta
