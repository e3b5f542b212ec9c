// Cross-engine property tests: GRETA, SASE, CET and Flink-flat must produce
// identical aggregates on randomized streams across patterns, predicates,
// windows, grouping and negation (the paper's correctness requirement: "the
// same aggregation results must be returned as by the two-step approach").

#include <memory>
#include <random>

#include "baselines/cet.h"
#include "baselines/flink_flat.h"
#include "baselines/sase.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace greta {
namespace {

using testing::MakeGreta;
using testing::RunEngine;

std::unique_ptr<Catalog> FuzzCatalog() {
  auto catalog = std::make_unique<Catalog>();
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    catalog->DefineType(name, {{"x", Value::Kind::kDouble},
                               {"g", Value::Kind::kInt}});
  }
  return catalog;
}

// A pool of patterns covering flat/nested Kleene, sequences, repeated
// types, and all three negation cases.
PatternPtr PatternFromPool(int which) {
  switch (which % 10) {
    case 0:
      return Pattern::Plus(Pattern::Atom(0));
    case 1:
      return Pattern::Seq(Pattern::Plus(Pattern::Atom(0)), Pattern::Atom(1));
    case 2:
      return Pattern::Plus(Pattern::Seq(Pattern::Plus(Pattern::Atom(0)),
                                        Pattern::Atom(1)));
    case 3:
      return Pattern::Seq(Pattern::Atom(2), Pattern::Plus(Pattern::Atom(0)),
                          Pattern::Atom(1));
    case 4:  // Case-1 negation.
      return Pattern::Seq(Pattern::Plus(Pattern::Atom(0)),
                          Pattern::Not(Pattern::Atom(2)), Pattern::Atom(1));
    case 5:  // Case-2 negation.
      return Pattern::Seq(Pattern::Plus(Pattern::Atom(0)),
                          Pattern::Not(Pattern::Atom(2)));
    case 6:  // Case-3 negation.
      return Pattern::Seq(Pattern::Not(Pattern::Atom(2)),
                          Pattern::Plus(Pattern::Atom(0)));
    case 7:  // Negated sequence between Kleene sub-patterns (Example 2ish).
      return Pattern::Plus(Pattern::Seq(
          Pattern::Plus(Pattern::Atom(0)),
          Pattern::Not(Pattern::Seq(Pattern::Atom(2), Pattern::Atom(3))),
          Pattern::Atom(1)));
    case 8:  // Repeated event type.
      return Pattern::Seq(Pattern::Plus(Pattern::Atom(0)), Pattern::Atom(1),
                          Pattern::Plus(Pattern::Atom(0)));
    default:  // Nested negation (Example 2).
      return Pattern::Plus(Pattern::Seq(
          Pattern::Plus(Pattern::Atom(0)),
          Pattern::Not(Pattern::Seq(Pattern::Atom(2),
                                    Pattern::Not(Pattern::Atom(4)),
                                    Pattern::Atom(3))),
          Pattern::Atom(1)));
  }
}

Stream RandomStream(Catalog* catalog, std::mt19937_64* rng, int n) {
  static const char* kTypes[] = {"A", "B", "C", "D", "E"};
  Stream stream;
  Ts time = 0;
  for (int i = 0; i < n; ++i) {
    // ~40% of events share the previous timestamp (tie handling).
    time += ((*rng)() % 5 < 2) ? 0 : 1 + static_cast<Ts>((*rng)() % 2);
    const char* type = kTypes[(*rng)() % 5];
    stream.Append(EventBuilder(catalog, type, time)
                      .Set("x", static_cast<double>((*rng)() % 8))
                      .Set("g", static_cast<int64_t>((*rng)() % 2))
                      .Build());
  }
  return stream;
}

struct FuzzCase {
  uint64_t seed;
  int pattern;
  bool edge_pred;
  bool grouped;
  int window;  // 0 unbounded, 1 tumbling, 2 sliding
};

class EngineEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineEquivalence, AllEnginesAgreeOnRandomStreams) {
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    FuzzCase c;
    c.seed = GetParam();
    c.pattern = static_cast<int>(rng() % 10);
    c.edge_pred = (rng() % 2) == 0;
    c.grouped = (rng() % 3) == 0;
    c.window = static_cast<int>(rng() % 3);

    auto catalog = FuzzCatalog();
    QuerySpec spec;
    spec.pattern = PatternFromPool(c.pattern);
    spec.aggs = {
        {AggKind::kCountStar, kInvalidType, kInvalidAttr, "COUNT(*)"},
        {AggKind::kCountType, 0, kInvalidAttr, "COUNT(A)"},
        {AggKind::kMin, 0, 0, "MIN(A.x)"},
        {AggKind::kMax, 0, 0, "MAX(A.x)"},
        {AggKind::kSum, 0, 0, "SUM(A.x)"},
    };
    if (c.edge_pred) {
      spec.where.push_back(
          Expr::Binary(ExprOp::kLe, Expr::Attr(0, 0), Expr::NextAttr(0, 0)));
    }
    if (c.grouped) spec.group_by = {"g"};
    if (c.window == 1) spec.window = WindowSpec::Tumbling(4);
    if (c.window == 2) spec.window = WindowSpec::Sliding(6, 2);

    Stream stream = RandomStream(catalog.get(), &rng, 18);

    auto greta = MakeGreta(catalog.get(), spec.Clone());
    std::vector<ResultRow> greta_rows = RunEngine(greta.get(), stream);

    auto check = [&](auto engine_or, const char* name) {
      ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
      auto engine = std::move(engine_or).value();
      std::vector<ResultRow> rows = RunEngine(engine.get(), stream);
      std::string diff;
      EXPECT_TRUE(
          RowsEquivalent(greta_rows, rows, greta->agg_plan(), &diff))
          << "GRETA vs " << name << ": " << diff << " [seed=" << c.seed
          << " pattern=" << c.pattern << " edge=" << c.edge_pred
          << " grouped=" << c.grouped << " window=" << c.window << "]";
    };
    check(SaseEngine::Create(catalog.get(), spec.Clone()), "SASE");
    check(CetEngine::Create(catalog.get(), spec.Clone()), "CET");
    check(FlinkFlatEngine::Create(catalog.get(), spec.Clone()), "Flink");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

class SemanticsEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SemanticsEquivalence, GretaMatchesOracleUnderRestrictedSemantics) {
  std::mt19937_64 rng(GetParam() * 7919);
  for (Semantics semantics :
       {Semantics::kSkipTillNextMatch, Semantics::kContiguous}) {
    auto catalog = FuzzCatalog();
    QuerySpec spec;
    spec.pattern = PatternFromPool(static_cast<int>(rng() % 4));
    spec.aggs = {
        {AggKind::kCountStar, kInvalidType, kInvalidAttr, "COUNT(*)"}};
    Stream stream = RandomStream(catalog.get(), &rng, 16);

    EngineOptions greta_options;
    greta_options.semantics = semantics;
    auto greta = MakeGreta(catalog.get(), spec.Clone(), greta_options);
    std::vector<ResultRow> greta_rows = RunEngine(greta.get(), stream);

    TwoStepOptions oracle_options;
    oracle_options.semantics = semantics;
    auto oracle_or =
        SaseEngine::Create(catalog.get(), spec.Clone(), oracle_options);
    ASSERT_TRUE(oracle_or.ok());
    auto oracle = std::move(oracle_or).value();
    std::vector<ResultRow> oracle_rows = RunEngine(oracle.get(), stream);

    std::string diff;
    EXPECT_TRUE(RowsEquivalent(greta_rows, oracle_rows, greta->agg_plan(),
                               &diff))
        << diff << " [seed=" << GetParam() << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemanticsEquivalence,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

TEST(BatchedEngineTest, GroupedSlidingWindowsMatchOracle) {
  auto catalog = FuzzCatalog();
  std::mt19937_64 rng(4242);
  QuerySpec spec;
  spec.pattern = PatternFromPool(2);
  spec.aggs = {{AggKind::kCountStar, kInvalidType, kInvalidAttr, "COUNT(*)"}};
  spec.group_by = {"g"};
  spec.window = WindowSpec::Sliding(6, 2);
  Stream stream = RandomStream(catalog.get(), &rng, 200);

  auto oracle = testing::MakeOracle(catalog.get(), spec.Clone());
  std::vector<ResultRow> oracle_rows = RunEngine(oracle.get(), stream);
  ASSERT_FALSE(oracle_rows.empty());

  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    auto greta = MakeGreta(catalog.get(), spec.Clone());
    std::vector<ResultRow> rows = RunEngine(greta.get(), stream, batch_size);
    std::string diff;
    EXPECT_TRUE(RowsEquivalent(rows, oracle_rows, greta->agg_plan(), &diff))
        << "batch=" << batch_size << ": " << diff;
  }
}

TEST(BudgetTest, ExhaustedBaselineReportsDnf) {
  auto catalog = FuzzCatalog();
  QuerySpec spec;
  spec.pattern = Pattern::Plus(Pattern::Atom(0));
  spec.aggs = {{AggKind::kCountStar, kInvalidType, kInvalidAttr, "COUNT(*)"}};
  TwoStepOptions options;
  options.work_budget = 100;  // Far too little for 2^30 trends.
  auto engine_or = SaseEngine::Create(catalog.get(), spec.Clone(), options);
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(engine_or).value();
  Stream stream;
  for (int i = 1; i <= 30; ++i) {
    stream.Append(EventBuilder(catalog.get(), "A", i)
                      .Set("x", 1.0)
                      .Set("g", int64_t{0})
                      .Build());
  }
  std::vector<ResultRow> rows = RunEngine(engine.get(), stream);
  EXPECT_TRUE(engine->stats().dnf);
  EXPECT_TRUE(rows.empty());
}

}  // namespace
}  // namespace greta
