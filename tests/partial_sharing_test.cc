// Partial sharing of common Kleene sub-patterns (Hamlet snapshot
// propagation): planner pooling, the merged snapshot-propagating runtime,
// and the equivalence suite asserting that every query of a partially
// shared cluster produces the same rows as its own dedicated engine —
// across differing pattern suffixes, differing window lengths with equal
// slide, grouping, every aggregate kind, unbounded windows, and semantics
// (the restricted semantics fall back to unshared execution and must stay
// equivalent too).

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "query/parser.h"
#include "sharing/shared_engine.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using sharing::PlanSharing;
using sharing::QueryCluster;
using sharing::SharedEngineOptions;
using sharing::SharedWorkloadEngine;
using sharing::SharingOptions;
using sharing::SharingPlan;

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

std::unique_ptr<Catalog> StockCatalog() {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  return catalog;
}

Stream StockStream(Catalog* catalog, double halt_probability = 0.05) {
  StockConfig config;
  config.seed = 11;
  config.num_companies = 4;
  config.num_sectors = 2;
  config.rate = 40;
  config.duration = 30;
  config.drift = 1.0;
  config.halt_probability = halt_probability;
  return GenerateStockStream(catalog, config);
}

// Runs the workload both ways and asserts per-query row equivalence;
// returns the shared engine for plan inspection.
std::unique_ptr<SharedWorkloadEngine> ExpectWorkloadEquivalent(
    const Catalog* catalog, const std::vector<QuerySpec>& workload,
    const Stream& stream, const SharedEngineOptions& options = {}) {
  auto shared = SharedWorkloadEngine::Create(catalog, workload, options);
  EXPECT_TRUE(shared.ok()) << shared.status().ToString();
  if (!shared.ok()) return nullptr;
  for (const Event& e : stream.events()) {
    Status s = shared.value()->Process(e);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_TRUE(shared.value()->Flush().ok());

  for (size_t q = 0; q < workload.size(); ++q) {
    auto independent =
        GretaEngine::Create(catalog, workload[q].Clone(), options.engine);
    EXPECT_TRUE(independent.ok()) << independent.status().ToString();
    if (!independent.ok()) return nullptr;
    std::vector<ResultRow> expected =
        testing::RunEngine(independent.value().get(), stream);
    std::vector<ResultRow> actual = shared.value()->TakeResults(q);
    std::string diff;
    EXPECT_TRUE(RowsEquivalent(actual, expected,
                               shared.value()->agg_plan_for(q), &diff))
        << "query " << q << ": " << diff;
  }
  return std::move(shared).value();
}

size_t NumPartialClusters(const SharingPlan& plan) {
  size_t n = 0;
  for (const QueryCluster& c : plan.clusters) {
    n += (c.shared && c.partial) ? 1 : 0;
  }
  return n;
}

// The common Kleene core of the partial workloads below: down-trend runs
// per company, grouped by sector.
const char* kCoreTail =
    " WHERE [company, sector] AND S.price > NEXT(S).price GROUP-BY sector";

TEST(PartialSharingPlannerTest, PoolsDifferingSuffixesAndWindows) {
  auto catalog = StockCatalog();
  std::vector<QuerySpec> workload;
  // Same Kleene core, different suffix.
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
          " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  // Same pattern, different WITHIN under the same slide.
  workload.push_back(Parse(
      std::string("RETURN sector, SUM(S.price) PATTERN Stock S+") +
          kCoreTail + " WITHIN 20 seconds SLIDE 5 seconds",
      catalog.get()));

  auto plan = PlanSharing(workload, *catalog.get());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan.value().clusters.size(), 1u);
  const QueryCluster& cluster = plan.value().clusters[0];
  EXPECT_TRUE(cluster.shared);
  EXPECT_TRUE(cluster.partial);
  EXPECT_EQ(cluster.query_ids, (std::vector<size_t>{0, 1, 2}));
  EXPECT_LT(cluster.shared_cost, cluster.independent_cost);
  EXPECT_NE(plan.value().ToString().find("SHARED-PARTIAL"),
            std::string::npos);
}

TEST(PartialSharingPlannerTest, IneligibleShapesStayDedicated) {
  auto catalog = StockCatalog();
  std::vector<QuerySpec> workload;
  // No Kleene prefix.
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(Stock S, Halt H) WITHIN 10 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(Stock S, Halt H, Halt G) "
      "WITHIN 10 seconds",
      catalog.get()));
  // Negation.
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+) WITHIN 10 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN SUM(S.price) PATTERN SEQ(NOT Halt H, Stock S+) "
      "WITHIN 20 seconds",
      catalog.get()));
  // Different slide.
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 seconds SLIDE 2 seconds",
      catalog.get()));
  // Core predicates disagree.
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WHERE S.volume > 20 "
      "WITHIN 12 seconds SLIDE 6 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WHERE S.volume > 50 "
      "WITHIN 24 seconds SLIDE 6 seconds",
      catalog.get()));

  auto plan = PlanSharing(workload, *catalog.get());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(NumPartialClusters(plan.value()), 0u);
  EXPECT_EQ(plan.value().num_shared_clusters(), 0u);
}

TEST(PartialSharingPlannerTest, DisableFlagKeepsQueriesApart) {
  auto catalog = StockCatalog();
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WITHIN 20 seconds SLIDE 5 seconds",
      catalog.get()));
  SharingOptions off;
  off.enable_partial_sharing = false;
  auto plan = PlanSharing(workload, *catalog.get(), off);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(NumPartialClusters(plan.value()), 0u);
}

TEST(PartialSharingEquivalenceTest, DifferingSuffixes) {
  // Three suffixes of the same Kleene core under ONE window: the full
  // patterns (and so the exact fingerprints) all differ, yet the queries
  // run as one snapshot-propagating runtime.
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
          " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, SUM(S.price) "
                  "PATTERN SEQ(Stock S+, Halt H, Halt G)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, DifferingWindowsEqualSlide) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  for (Ts within : {4, 8, 12, 20}) {
    workload.push_back(Parse(
        std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
            " WITHIN " + std::to_string(within) +
            " seconds SLIDE 4 seconds",
        catalog.get()));
  }
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
  // One merged graph: the shared core stores each Stock event once, not
  // once per query.
  auto independent = GretaEngine::Create(catalog.get(), workload[0].Clone());
  ASSERT_TRUE(independent.ok());
  std::vector<ResultRow> rows =
      testing::RunEngine(independent.value().get(), stream);
  (void)rows;
  EXPECT_LT(shared->stats().vertices_stored,
            4 * independent.value()->stats().vertices_stored);
}

TEST(PartialSharingEquivalenceTest, AllAggregateKindsFoldThroughSnapshots) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  const std::vector<std::string> aggs = {
      "COUNT(*)", "SUM(S.price)", "MIN(S.price), MAX(S.price)", "COUNT(S)",
      "AVG(S.volume)"};
  for (size_t i = 0; i < aggs.size(); ++i) {
    // Cycle windows so no two queries share an exact fingerprint.
    Ts within = 5 + 5 * static_cast<Ts>(i);
    workload.push_back(Parse(
        "RETURN sector, " + aggs[i] + " PATTERN Stock S+" + kCoreTail +
            " WITHIN " + std::to_string(within) +
            " seconds SLIDE 5 seconds",
        catalog.get()));
  }
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, SuffixPredicatesStayPerQuery) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  // Same core predicates; one query filters its suffix Halt events, the
  // other does not — they still pool (suffix predicates are per query).
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          " WHERE [company, sector] AND S.price > NEXT(S).price AND "
          "H.sector < 1 GROUP-BY sector WITHIN 20 seconds SLIDE 5 seconds",
      catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, UnboundedWindows) {
  auto catalog = StockCatalog();
  StockConfig config;
  config.seed = 3;
  config.num_companies = 3;
  config.num_sectors = 2;
  config.rate = 10;
  config.duration = 12;
  config.drift = 1.0;
  config.halt_probability = 0.1;
  Stream stream = GenerateStockStream(catalog.get(), config);

  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail,
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, SUM(S.price) "
                  "PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail,
      catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, RestrictedSemanticsFallBackUnshared) {
  for (Semantics semantics :
       {Semantics::kSkipTillNextMatch, Semantics::kContiguous}) {
    auto catalog = StockCatalog();
    Stream stream = StockStream(catalog.get());
    std::vector<QuerySpec> workload;
    workload.push_back(Parse(
        std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
            " WITHIN 10 seconds SLIDE 5 seconds",
        catalog.get()));
    workload.push_back(Parse(
        std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
            " WITHIN 20 seconds SLIDE 5 seconds",
        catalog.get()));
    SharedEngineOptions options;
    options.engine.semantics = semantics;
    auto shared =
        ExpectWorkloadEquivalent(catalog.get(), workload, stream, options);
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 0u);
  }
}

// Acceptance criterion: an 8-query workload sharing one Kleene sub-pattern
// but differing in pattern suffix or window length runs as one partially
// shared cluster, equivalent to independent engines for every query.
TEST(PartialSharingEquivalenceTest, EightQuerySharedCoreWorkload) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  const std::vector<std::string> aggs = {"COUNT(*)", "SUM(S.price)",
                                         "MIN(S.price)", "AVG(S.price)"};
  // 4 windows x plain core, 4 windows x Halt suffix.
  for (int i = 0; i < 4; ++i) {
    workload.push_back(Parse(
        "RETURN sector, " + aggs[i] + " PATTERN Stock S+" + kCoreTail +
            " WITHIN " + std::to_string(5 * (i + 1)) +
            " seconds SLIDE 5 seconds",
        catalog.get()));
  }
  for (int i = 0; i < 4; ++i) {
    workload.push_back(Parse(
        "RETURN sector, " + aggs[i] +
            " PATTERN SEQ(Stock S+, Halt H)" + kCoreTail + " WITHIN " +
            std::to_string(5 * (i + 1)) + " seconds SLIDE 5 seconds",
        catalog.get()));
  }
  ASSERT_EQ(workload.size(), 8u);
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->sharing_plan().clusters.size(), 1u);
  EXPECT_EQ(NumPartialClusters(shared->sharing_plan()), 1u);
}

TEST(PartialSharingEquivalenceTest, MixedExactPartialAndDedicated) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload;
  // Exact cluster (identical fingerprints, different aggregates).
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
          " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, SUM(S.price) PATTERN Stock S+") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  // Partial pool (same core, one suffixed, one longer window).
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, Halt H)") +
          kCoreTail + " WITHIN 10 seconds SLIDE 5 seconds",
      catalog.get()));
  workload.push_back(Parse(
      std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
          " WITHIN 15 seconds SLIDE 5 seconds",
      catalog.get()));
  // Dedicated (no Kleene prefix).
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(Stock S, Halt H) WHERE [sector] "
      "WITHIN 10 seconds",
      catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  const SharingPlan& plan = shared->sharing_plan();
  EXPECT_EQ(plan.clusters.size(), 3u);
  EXPECT_EQ(plan.num_shared_clusters(), 2u);
  EXPECT_EQ(NumPartialClusters(plan), 1u);
}

// One partial pool: the shared core over WITHIN 6, 10 and 14, slide 2.
std::vector<QuerySpec> ThreeWindowWorkload(Catalog* catalog) {
  std::vector<QuerySpec> workload;
  for (Ts within : {6, 10, 14}) {
    workload.push_back(Parse(
        std::string("RETURN sector, COUNT(*) PATTERN Stock S+") + kCoreTail +
            " WITHIN " + std::to_string(within) + " seconds SLIDE 2 seconds",
        catalog));
  }
  return workload;
}

TEST(PartialSharingEmissionTest, EachSlotEmitsOnItsOwnGridPurgeOnUnion) {
  auto catalog = StockCatalog();
  Stream stream = StockStream(catalog.get());
  std::vector<QuerySpec> workload = ThreeWindowWorkload(catalog.get());
  std::vector<const QuerySpec*> specs;
  for (const QuerySpec& spec : workload) specs.push_back(&spec);
  auto partial = GretaEngine::CreatePartial(catalog.get(), specs);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  GretaEngine& engine = *partial.value();
  ASSERT_EQ(engine.plan().window.within, 14);

  // Reference: each query's dedicated engine over the whole stream.
  std::vector<std::vector<ResultRow>> expected(workload.size());
  for (size_t q = 0; q < workload.size(); ++q) {
    auto dedicated = testing::MakeGreta(catalog.get(), workload[q]);
    expected[q] = testing::RunEngine(dedicated.get(), stream);
    ASSERT_FALSE(expected[q].empty());
    ASSERT_EQ(expected[q].front().wid, 0) << "query " << q;
  }

  std::vector<std::vector<ResultRow>> pushed(workload.size());
  std::vector<Ts> first_push(workload.size(), kMaxTs);
  Ts tick = 0;
  for (size_t q = 0; q < workload.size(); ++q) {
    engine.set_result_callback(q, [&, q](const ResultRow& row) {
      if (pushed[q].empty()) first_push[q] = tick;
      pushed[q].push_back(row);
    });
  }
  // Walk the watermark one tick at a time ahead of every event: after each
  // step a slot has pushed exactly its windows closed on its own grid, and
  // the tracker matches a walk of the graphs (purge on the union grid).
  auto check = [&](const std::string& when) {
    for (size_t q = 0; q < workload.size(); ++q) {
      std::string diff;
      EXPECT_TRUE(RowsEquivalent(
          pushed[q],
          testing::RowsClosedBy(expected[q], workload[q].window, tick),
          engine.agg_plan(), &diff))
          << "slot " << q << " " << when << ": " << diff;
    }
    EXPECT_EQ(engine.RecomputeTrackedBytes(), engine.memory().current_bytes())
        << when;
  };
  for (const Event& e : stream.events()) {
    while (tick < e.time) {
      ++tick;
      ASSERT_TRUE(engine.AdvanceWatermark(tick).ok());
      check("watermark " + std::to_string(tick));
    }
    ASSERT_TRUE(engine.Process(e).ok());
    check("event at " + std::to_string(e.time));
  }
  EXPECT_EQ(first_push[0], 6) << "WITHIN 6 window 0 fires at its own close";
  EXPECT_EQ(first_push[1], 10);
  EXPECT_EQ(first_push[2], 14) << "the union slot fires at the union close";
}

TEST(PartialSharingEmissionTest, EmissionBoundIsOwnWindow) {
  auto catalog = StockCatalog();
  std::vector<QuerySpec> workload = ThreeWindowWorkload(catalog.get());
  for (bool adaptive : {false, true}) {
    SharedEngineOptions options;
    options.adaptive.enabled = adaptive;
    auto shared =
        SharedWorkloadEngine::Create(catalog.get(), workload, options);
    ASSERT_TRUE(shared.ok()) << shared.status().ToString();
    ASSERT_EQ(NumPartialClusters(shared.value()->sharing_plan()), 1u);
    for (size_t q = 0; q < workload.size(); ++q) {
      const WindowSpec bound = shared.value()->emission_window_bound(q);
      EXPECT_EQ(bound.within, workload[q].window.within)
          << "query " << q << (adaptive ? " adaptive" : " static");
      EXPECT_EQ(bound.slide, 2);
    }
  }
}

}  // namespace
}  // namespace greta
