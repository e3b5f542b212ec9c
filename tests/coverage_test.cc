// Remaining coverage corners: multi-occurrence patterns combined with
// negation, result formatting helpers, row-equivalence diagnostics, and the
// benchmark utility substrate (flags, tables, metric formatting).

#include "bench_util/harness.h"
#include "bench_util/metrics.h"
#include "gtest/gtest.h"
#include "query/parser.h"
#include "runtime/sharded_runtime.h"
#include "sharing/shared_engine.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using testing::CountQuery;
using testing::ExpectMatchesOracle;
using testing::PaperCatalog;

Stream MakeStream(Catalog* catalog,
                  std::initializer_list<std::pair<const char*, Ts>> events) {
  Stream stream;
  for (const auto& [type, time] : events) {
    stream.Append(EventBuilder(catalog, type, time)
                      .Set("attr", static_cast<double>(time))
                      .Build());
  }
  return stream;
}

TEST(MultiOccurrenceNegationTest, NegationBetweenRepeatedTypes) {
  // SEQ(A, NOT C, A): the NOT sits between two occurrences of the same
  // event type; prev resolves to the first A state, foll to the second.
  auto catalog = PaperCatalog();
  PatternPtr p = Pattern::Seq(Pattern::Atom(0),
                              Pattern::Not(Pattern::Atom(2)),
                              Pattern::Atom(0));
  Stream stream = MakeStream(
      catalog.get(),
      {{"A", 1}, {"C", 2}, {"A", 3}, {"A", 4}});
  std::vector<ResultRow> rows =
      ExpectMatchesOracle(catalog.get(), CountQuery(std::move(p)), stream);
  // Pairs (a,a') with no c strictly between: (a3,a4) only — c2 separates a1
  // from both later a's.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].aggs.count.ToDecimal(), "1");
}

TEST(MultiOccurrenceNegationTest, KleeneRepeatsWithTrailingNegation) {
  auto catalog = PaperCatalog();
  // SEQ(A+, B, A+, NOT C): repeated Kleene type plus a Case-2 negation.
  PatternPtr p = Pattern::Seq(Pattern::Plus(Pattern::Atom(0)),
                              Pattern::Atom(1),
                              Pattern::Plus(Pattern::Atom(0)),
                              Pattern::Not(Pattern::Atom(2)));
  Stream stream = MakeStream(catalog.get(), {{"A", 1},
                                             {"B", 2},
                                             {"A", 3},
                                             {"C", 4},
                                             {"A", 5},
                                             {"B", 6},
                                             {"A", 7}});
  ExpectMatchesOracle(catalog.get(), CountQuery(std::move(p)), stream);
}

TEST(FormatRowTest, RendersGroupsAndAggregates) {
  Catalog catalog;
  catalog.DefineType("T", {{"g", Value::Kind::kStr}});
  StrId tech = catalog.strings()->Intern("tech");
  ResultRow row;
  row.wid = 3;
  row.group = {Value::Str(tech)};
  row.aggs.count = Counter(43);
  row.aggs.any = true;
  std::vector<AggSpec> specs = {
      {AggKind::kCountStar, kInvalidType, kInvalidAttr, "COUNT(*)"}};
  EXPECT_EQ(FormatRow(row, specs, catalog),
            "wid=3 group=(tech) COUNT(*)=43");
}

TEST(RowsEquivalentTest, ReportsFirstDifference) {
  ResultRow a;
  a.wid = 0;
  a.aggs.count = Counter(5);
  a.aggs.any = true;
  ResultRow b = a;
  b.aggs.count = Counter(6);
  AggPlan plan;
  std::string diff;
  EXPECT_FALSE(RowsEquivalent({a}, {b}, plan, &diff));
  EXPECT_NE(diff.find("COUNT(*) 5 vs 6"), std::string::npos);
  EXPECT_FALSE(RowsEquivalent({a}, {a, b}, plan, &diff));
  EXPECT_NE(diff.find("row count mismatch"), std::string::npos);
  EXPECT_TRUE(RowsEquivalent({a}, {a}, plan, &diff));
}

TEST(SortRowsTest, OrdersByWindowThenGroup) {
  ResultRow r1;
  r1.wid = 2;
  r1.group = {Value::Int(1)};
  ResultRow r2;
  r2.wid = 1;
  r2.group = {Value::Int(9)};
  ResultRow r3;
  r3.wid = 2;
  r3.group = {Value::Int(0)};
  std::vector<ResultRow> rows = {r1, r2, r3};
  SortRows(&rows);
  EXPECT_EQ(rows[0].wid, 1);
  EXPECT_EQ(rows[1].wid, 2);
  EXPECT_EQ(rows[1].group[0].AsInt(), 0);
  EXPECT_EQ(rows[2].group[0].AsInt(), 1);
}

TEST(MetricsFormatTest, HumanUnits) {
  using bench::FormatBytes;
  using bench::FormatCount;
  using bench::FormatMillis;
  EXPECT_EQ(FormatCount(950), "950");
  EXPECT_EQ(FormatCount(1500), "1.5k");
  EXPECT_EQ(FormatCount(2.5e6), "2.5M");
  EXPECT_EQ(FormatCount(3e9), "3G");
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(2048), "2KB");
  EXPECT_EQ(FormatBytes(1024.0 * 1000.0), "0.977MB");  // No "1e+03KB".
  EXPECT_EQ(FormatMillis(0.5), "0.5ms");
  EXPECT_EQ(FormatMillis(1500), "1.5s");
  EXPECT_EQ(FormatMillis(120000), "2min");
}

TEST(BenchFlagsTest, ParsesKeyValuePairs) {
  const char* argv[] = {"prog", "--events=5000", "--factor=1.5",
                        "--verbose", "--off=false"};
  bench::Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("events", 0), 5000);
  EXPECT_DOUBLE_EQ(flags.GetDouble("factor", 0.0), 1.5);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("off", true));
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
}

TEST(BenchFlagsTest, AbortsOnMalformedNumbers) {
  const char* argv[] = {"prog", "--rate=1e3", "--factor=abc", "--seed=",
                        "--scale=2.5x", "--reps=12"};
  bench::Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("reps", 0), 12);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 1000.0);
  // Before, strtoll/strtod stopped at the first bad character: --rate=1e3
  // read 1 and --factor=abc read 0, silently.
  EXPECT_DEATH(flags.GetInt("rate", 0), "--rate: malformed number '1e3'");
  EXPECT_DEATH(flags.GetDouble("factor", 0.0), "--factor");
  EXPECT_DEATH(flags.GetInt("seed", 0), "--seed");
  EXPECT_DEATH(flags.GetDouble("scale", 0.0), "--scale");
}

TEST(BenchRunnerTest, CollectsMetricsFromARealRun) {
  auto catalog = PaperCatalog();
  QuerySpec spec = CountQuery(Pattern::Plus(Pattern::Atom(0)));
  spec.window = WindowSpec::Tumbling(5);
  auto engine = testing::MakeGreta(catalog.get(), std::move(spec));
  Stream stream;
  for (Ts t = 0; t < 20; ++t) {
    stream.Append(
        EventBuilder(catalog.get(), "A", t).Set("attr", 1.0).Build());
  }
  bench::RunResult result = bench::RunStream(engine.get(), stream, 1);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.events_accepted, 20u);
  EXPECT_EQ(result.engine, "GRETA");
  EXPECT_FALSE(result.dnf);
  EXPECT_EQ(result.rows_emitted, 4u);  // Windows [0,5)..[15,20).
  EXPECT_GT(result.throughput_eps, 0.0);
  EXPECT_GT(result.peak_memory_bytes, 0u);
  EXPECT_NE(result.LatencyCell(), "DNF");
}

// A failed call ends the run with its status, and throughput counts only
// the events accepted before it (it used to divide the whole stream).
TEST(BenchRunnerTest, OutOfOrderStreamReportsStatusAndAcceptedEvents) {
  auto catalog = PaperCatalog();
  Stream stream;
  for (Ts t = 0; t < 20; ++t) {
    stream.Append(
        EventBuilder(catalog.get(), "A", t).Set("attr", 1.0).Build());
  }
  // Stream::Append refuses disorder, so rewind event 10 in place.
  const_cast<Event&>(stream[10]).time = 3;
  // Per event, events 0..9 are accepted; in batches of 4, the third batch
  // holds the late event and is refused whole.
  for (auto [batch_size, accepted] : {std::pair<size_t, size_t>{1, 10},
                                      std::pair<size_t, size_t>{4, 8}}) {
    QuerySpec spec = CountQuery(Pattern::Plus(Pattern::Atom(0)));
    spec.window = WindowSpec::Tumbling(5);
    auto engine = testing::MakeGreta(catalog.get(), std::move(spec));
    bench::RunResult result =
        bench::RunStream(engine.get(), stream, batch_size);
    EXPECT_FALSE(result.status.ok()) << batch_size;
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(result.events_accepted, accepted) << batch_size;
    ASSERT_GT(result.total_seconds, 0.0);
    EXPECT_NEAR(result.throughput_eps * result.total_seconds,
                static_cast<double>(accepted), 1e-6 * accepted)
        << batch_size;
  }
}

// The per-query drains of RunStream return what draining each query once
// after Flush returns, for a shared workload and under shards (where the
// concatenated drain order depends on thread timing).
TEST(BenchRunnerTest, QueryRowsEqualPerQueryDrainAfterFlush) {
  Catalog catalog;
  StockConfig config;
  config.rate = 60;
  config.duration = 30;
  config.num_companies = 6;
  config.num_sectors = 3;
  Stream stream = GenerateStockStream(&catalog, config);
  std::vector<QuerySpec> workload;
  for (const char* aggs : {"COUNT(*)", "SUM(S.price)", "MIN(S.price)"}) {
    auto spec = ParseQuery(
        std::string("RETURN sector, ") + aggs +
            " PATTERN Stock S+ WHERE [company, sector] AND S.price > "
            "NEXT(S).price GROUP-BY sector WITHIN 6 seconds SLIDE 3 seconds",
        &catalog);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    workload.push_back(std::move(spec).value());
  }
  runtime::ShardedOptions sharded;
  sharded.num_shards = 2;
  sharded.batch_size = 16;
  sharded.heartbeat_events = 32;
  using Make = std::function<std::unique_ptr<EngineInterface>()>;
  const Make makes[] = {
      [&]() -> std::unique_ptr<EngineInterface> {
        return sharing::SharedWorkloadEngine::Create(&catalog, workload)
            .value();
      },
      [&]() -> std::unique_ptr<EngineInterface> {
        return runtime::ShardedRuntime::Create(&catalog, workload, sharded)
            .value();
      },
  };
  for (const Make& make : makes) {
    std::unique_ptr<EngineInterface> once = make();
    testing::FeedStream(once.get(), stream);
    std::unique_ptr<EngineInterface> drained = make();
    bench::QueryRows rows;
    bench::RunResult result =
        bench::RunStream(drained.get(), stream, 32, nullptr, &rows);
    ASSERT_TRUE(result.status.ok());
    ASSERT_EQ(rows.size(), 3u) << once->name();
    ASSERT_EQ(bench::NumQueries(*once), 3u);
    size_t total = 0;
    for (size_t q = 0; q < rows.size(); ++q) {
      std::vector<ResultRow> expected = bench::TakeQueryResults(once.get(), q);
      EXPECT_FALSE(expected.empty()) << once->name() << " query " << q;
      std::string diff;
      EXPECT_TRUE(RowsEquivalent(expected, rows[q],
                                 bench::QueryAggPlan(*once, q), &diff))
          << once->name() << " query " << q << ": " << diff;
      total += rows[q].size();
    }
    EXPECT_EQ(total, result.rows_emitted);
  }
}

}  // namespace
}  // namespace greta
