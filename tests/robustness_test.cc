// Robustness properties that randomized sweeps keep honest:
//  - invalid event pruning (Theorem 5.1) never changes results;
//  - modular counters equal the exact counters mod 2^64;
//  - the shared sliding-window graph equals naive per-window replication;
//  - disabling tree ranges never changes results;
//  - grouped, negated, broadcast-routed queries match the SASE oracle at
//    every ingest batch size.

#include <random>

#include "gtest/gtest.h"
#include "storage/window.h"
#include "tests/test_util.h"

namespace greta {
namespace {

using testing::MakeGreta;
using testing::RunEngine;

std::unique_ptr<Catalog> FuzzCatalog() {
  auto catalog = std::make_unique<Catalog>();
  for (const char* name : {"A", "B", "C"}) {
    catalog->DefineType(name, {{"x", Value::Kind::kDouble}});
  }
  return catalog;
}

Stream RandomStream(Catalog* catalog, std::mt19937_64* rng, int n) {
  static const char* kTypes[] = {"A", "B", "C"};
  Stream stream;
  Ts time = 0;
  for (int i = 0; i < n; ++i) {
    time += static_cast<Ts>((*rng)() % 3);
    stream.Append(EventBuilder(catalog, kTypes[(*rng)() % 3], time)
                      .Set("x", static_cast<double>((*rng)() % 10))
                      .Build());
  }
  return stream;
}

QuerySpec NegatedSpec(std::mt19937_64* rng) {
  QuerySpec spec;
  switch ((*rng)() % 3) {
    case 0:  // Case 1 with A's only successor being B: prunable.
      spec.pattern = Pattern::Seq(Pattern::Atom(0),
                                  Pattern::Not(Pattern::Atom(2)),
                                  Pattern::Atom(1));
      break;
    case 1:
      spec.pattern = Pattern::Seq(Pattern::Plus(Pattern::Atom(0)),
                                  Pattern::Not(Pattern::Atom(2)));
      break;
    default:
      spec.pattern = Pattern::Seq(Pattern::Not(Pattern::Atom(2)),
                                  Pattern::Plus(Pattern::Atom(0)));
      break;
  }
  spec.aggs = {{AggKind::kCountStar, kInvalidType, kInvalidAttr, "COUNT(*)"}};
  return spec;
}

class Robustness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Robustness, PruningNeverChangesResults) {
  std::mt19937_64 rng(GetParam() * 31);
  auto catalog = FuzzCatalog();
  QuerySpec spec = NegatedSpec(&rng);
  Stream stream = RandomStream(catalog.get(), &rng, 30);

  EngineOptions with;
  with.enable_pruning = true;
  EngineOptions without;
  without.enable_pruning = false;
  auto a = MakeGreta(catalog.get(), spec.Clone(), with);
  auto b = MakeGreta(catalog.get(), spec.Clone(), without);
  std::vector<ResultRow> rows_a = RunEngine(a.get(), stream);
  std::vector<ResultRow> rows_b = RunEngine(b.get(), stream);
  std::string diff;
  EXPECT_TRUE(RowsEquivalent(rows_a, rows_b, a->agg_plan(), &diff)) << diff;
}

TEST_P(Robustness, ModularCountersMatchExactMod64) {
  std::mt19937_64 rng(GetParam() * 97);
  auto catalog = FuzzCatalog();
  QuerySpec spec = testing::CountQuery(Pattern::Plus(Pattern::Atom(0)));
  // 70-90 A-events: counts far beyond 2^64, so promotion really happens.
  Stream stream = RandomStream(catalog.get(), &rng, 70 + GetParam() % 20);

  EngineOptions exact;
  exact.counter_mode = CounterMode::kExact;
  EngineOptions modular;
  modular.counter_mode = CounterMode::kModular;
  auto a = MakeGreta(catalog.get(), spec.Clone(), exact);
  auto b = MakeGreta(catalog.get(), spec.Clone(), modular);
  std::vector<ResultRow> rows_a = RunEngine(a.get(), stream);
  std::vector<ResultRow> rows_b = RunEngine(b.get(), stream);
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i].aggs.count.Low64(), rows_b[i].aggs.count.Low64());
  }
}

TEST_P(Robustness, SharedWindowsMatchReplicationOnRandomSpecs) {
  std::mt19937_64 rng(GetParam() * 131);
  auto catalog = FuzzCatalog();
  Ts slide = 1 + static_cast<Ts>(rng() % 3);
  Ts within = slide * (1 + static_cast<Ts>(rng() % 4));
  WindowSpec w = WindowSpec::Sliding(within, slide);

  auto make_spec = [&](WindowSpec window) {
    QuerySpec spec = testing::CountQuery(Pattern::Seq(
        Pattern::Plus(Pattern::Atom(0)), Pattern::Atom(1)));
    spec.where.push_back(
        Expr::Binary(ExprOp::kLe, Expr::Attr(0, 0), Expr::NextAttr(0, 0)));
    spec.window = window;
    return spec;
  };

  Stream stream = RandomStream(catalog.get(), &rng, 40);
  auto shared = MakeGreta(catalog.get(), make_spec(w));
  std::vector<ResultRow> shared_rows = RunEngine(shared.get(), stream);

  for (WindowId wid = 0; wid <= LastWindowOf(stream.max_time(), w); ++wid) {
    Stream sub;
    for (const Event& e : stream.events()) {
      if (e.time >= WindowStartTime(wid, w) &&
          e.time < WindowCloseTime(wid, w)) {
        sub.Append(e);
      }
    }
    auto independent =
        MakeGreta(catalog.get(), make_spec(WindowSpec::Unbounded()));
    std::vector<ResultRow> rows = RunEngine(independent.get(), sub);
    std::string expected =
        rows.empty() ? "" : rows[0].aggs.count.ToDecimal();
    std::string actual;
    for (const ResultRow& row : shared_rows) {
      if (row.wid == wid) actual = row.aggs.count.ToDecimal();
    }
    ASSERT_EQ(actual, expected)
        << "seed=" << GetParam() << " within=" << within
        << " slide=" << slide << " wid=" << wid;
  }
}

TEST_P(Robustness, TreeRangesNeverChangeResults) {
  std::mt19937_64 rng(GetParam() * 17);
  auto catalog = FuzzCatalog();
  QuerySpec spec = testing::CountQuery(Pattern::Plus(Pattern::Atom(0)));
  spec.where.push_back(
      Expr::Binary(ExprOp::kLt, Expr::Attr(0, 0), Expr::NextAttr(0, 0)));
  spec.window = WindowSpec::Sliding(6, 2);
  Stream stream = RandomStream(catalog.get(), &rng, 40);

  EngineOptions with;
  with.enable_tree_ranges = true;
  EngineOptions without;
  without.enable_tree_ranges = false;
  auto a = MakeGreta(catalog.get(), spec.Clone(), with);
  auto b = MakeGreta(catalog.get(), spec.Clone(), without);
  std::vector<ResultRow> rows_a = RunEngine(a.get(), stream);
  std::vector<ResultRow> rows_b = RunEngine(b.get(), stream);
  std::string diff;
  EXPECT_TRUE(RowsEquivalent(rows_a, rows_b, a->agg_plan(), &diff)) << diff;
}

TEST_P(Robustness, BatchedGroupsMatchOracleWithNegationAndBroadcast) {
  // The full combination: grouping partitions, a leading negation whose
  // events broadcast into partitions (and replay into partitions created
  // later), sliding windows, and batched ingest.
  std::mt19937_64 rng(GetParam() * 977);
  auto catalog = std::make_unique<Catalog>();
  catalog->DefineType("P", {{"v", Value::Kind::kInt},
                            {"g", Value::Kind::kInt}});
  catalog->DefineType("X", {{"g", Value::Kind::kInt}});

  QuerySpec spec;
  spec.pattern = Pattern::Seq(Pattern::Not(Pattern::Atom(1)),
                              Pattern::Plus(Pattern::Atom(0)));
  spec.aggs = {{AggKind::kCountStar, kInvalidType, kInvalidAttr, "COUNT(*)"}};
  spec.group_by = {"g"};
  spec.equivalence = {"v", "g"};
  spec.window = WindowSpec::Sliding(6, 3);

  Stream stream;
  Ts time = 0;
  for (int i = 0; i < 80; ++i) {
    time += static_cast<Ts>(rng() % 2);
    if (rng() % 10 == 0) {
      stream.Append(EventBuilder(catalog.get(), "X", time)
                        .Set("g", static_cast<int64_t>(rng() % 3))
                        .Build());
    } else {
      stream.Append(EventBuilder(catalog.get(), "P", time)
                        .Set("v", static_cast<int64_t>(rng() % 4))
                        .Set("g", static_cast<int64_t>(rng() % 3))
                        .Build());
    }
  }

  auto oracle = testing::MakeOracle(catalog.get(), spec.Clone());
  std::vector<ResultRow> oracle_rows = RunEngine(oracle.get(), stream);

  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    auto greta = MakeGreta(catalog.get(), spec.Clone());
    std::vector<ResultRow> rows = RunEngine(greta.get(), stream, batch_size);
    std::string diff;
    EXPECT_TRUE(RowsEquivalent(rows, oracle_rows, greta->agg_plan(), &diff))
        << diff << " seed=" << GetParam() << " batch=" << batch_size;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Robustness,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

}  // namespace
}  // namespace greta
