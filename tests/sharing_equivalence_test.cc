// Equivalence of the shared multi-query runtime against independent
// per-query GRETA engines: for every query of a workload, the rows drained
// from SharedWorkloadEngine::TakeResults(q) must match the rows of a
// dedicated GretaEngine running the same query alone — across semantics,
// window kinds, grouping, and negation-bearing workloads.

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

using sharing::SharedEngineOptions;
using sharing::SharedWorkloadEngine;

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

// Runs every query alone on a row-kernel engine, then the workload through
// the shared runtime at each ingest batch size, and asserts per-query row
// equivalence. Returns the last shared engine so callers can inspect its
// sharing plan.
std::unique_ptr<SharedWorkloadEngine> ExpectWorkloadEquivalent(
    const Catalog* catalog, const std::vector<QuerySpec>& workload,
    const Stream& stream, const SharedEngineOptions& options = {}) {
  EngineOptions reference_options = options.engine;
  reference_options.enable_batch_kernels = false;
  std::vector<std::vector<ResultRow>> expected;
  for (const QuerySpec& spec : workload) {
    auto independent =
        GretaEngine::Create(catalog, spec.Clone(), reference_options);
    EXPECT_TRUE(independent.ok()) << independent.status().ToString();
    if (!independent.ok()) return nullptr;
    expected.push_back(testing::RunEngine(independent.value().get(), stream));
  }

  std::unique_ptr<SharedWorkloadEngine> shared;
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    auto created = SharedWorkloadEngine::Create(catalog, workload, options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (!created.ok()) return nullptr;
    shared = std::move(created).value();
    testing::FeedStream(shared.get(), stream, batch_size);
    for (size_t q = 0; q < workload.size(); ++q) {
      std::string diff;
      EXPECT_TRUE(RowsEquivalent(shared->TakeResults(q), expected[q],
                                 shared->agg_plan_for(q), &diff))
          << "query " << q << " batch " << batch_size << ": " << diff;
    }
  }
  return shared;
}

Stream StockStream(Catalog* catalog, double halt_probability = 0.0) {
  StockConfig config;
  config.seed = 7;
  config.num_companies = 4;
  config.num_sectors = 2;
  config.rate = 40;
  config.duration = 30;
  config.drift = 1.0;
  config.halt_probability = halt_probability;
  return GenerateStockStream(catalog, config);
}

std::vector<QuerySpec> AggregateVariants(Catalog* catalog,
                                         const std::string& window_clause) {
  const std::string tail =
      " PATTERN Stock S+ WHERE [company, sector] AND "
      "S.price > NEXT(S).price GROUP-BY sector" + window_clause;
  std::vector<QuerySpec> workload;
  workload.push_back(Parse("RETURN sector, COUNT(*)" + tail, catalog));
  workload.push_back(Parse("RETURN sector, SUM(S.price)" + tail, catalog));
  workload.push_back(
      Parse("RETURN sector, MIN(S.price), MAX(S.price)" + tail, catalog));
  workload.push_back(Parse("RETURN sector, COUNT(S)" + tail, catalog));
  workload.push_back(Parse("RETURN sector, AVG(S.volume)" + tail, catalog));
  return workload;
}

TEST(SharingEquivalenceTest, OverlappingAggregatesUnboundedWindow) {
  auto catalog = std::make_unique<Catalog>();
  Stream stream = StockStream(catalog.get());
  auto shared = ExpectWorkloadEquivalent(
      catalog.get(), AggregateVariants(catalog.get(), ""), stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->sharing_plan().clusters.size(), 1u);
  EXPECT_EQ(shared->sharing_plan().num_shared_clusters(), 1u);
}

TEST(SharingEquivalenceTest, SlidingWindowsAndGrouping) {
  auto catalog = std::make_unique<Catalog>();
  Stream stream = StockStream(catalog.get());
  ExpectWorkloadEquivalent(
      catalog.get(),
      AggregateVariants(catalog.get(), " WITHIN 10 seconds SLIDE 2 seconds"),
      stream);
}

TEST(SharingEquivalenceTest, TumblingWindows) {
  auto catalog = std::make_unique<Catalog>();
  Stream stream = StockStream(catalog.get());
  ExpectWorkloadEquivalent(
      catalog.get(),
      AggregateVariants(catalog.get(), " WITHIN 5 seconds"), stream);
}

TEST(SharingEquivalenceTest, AcrossSemantics) {
  for (Semantics semantics :
       {Semantics::kSkipTillAnyMatch, Semantics::kSkipTillNextMatch,
        Semantics::kContiguous}) {
    auto catalog = std::make_unique<Catalog>();
    Stream stream = StockStream(catalog.get());
    SharedEngineOptions options;
    options.engine.semantics = semantics;
    ExpectWorkloadEquivalent(
        catalog.get(),
        AggregateVariants(catalog.get(), " WITHIN 10 seconds SLIDE 5 seconds"),
        stream, options);
  }
}

TEST(SharingEquivalenceTest, NegationWorkload) {
  auto catalog = std::make_unique<Catalog>();
  Stream stream = StockStream(catalog.get(), /*halt_probability=*/0.05);
  const std::string tail =
      " PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company, sector] AND "
      "S.price > NEXT(S).price GROUP-BY sector WITHIN 10 seconds "
      "SLIDE 5 seconds";
  std::vector<QuerySpec> workload;
  workload.push_back(Parse("RETURN sector, COUNT(*)" + tail, catalog.get()));
  workload.push_back(
      Parse("RETURN sector, SUM(S.price)" + tail, catalog.get()));
  workload.push_back(
      Parse("RETURN sector, MAX(S.price)" + tail, catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->sharing_plan().num_shared_clusters(), 1u);
}

TEST(SharingEquivalenceTest, TrailingNegationWorkload) {
  auto catalog = std::make_unique<Catalog>();
  Stream stream = StockStream(catalog.get(), /*halt_probability=*/0.05);
  const std::string tail =
      " PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company, sector] "
      "GROUP-BY sector WITHIN 8 seconds SLIDE 4 seconds";
  std::vector<QuerySpec> workload;
  workload.push_back(Parse("RETURN sector, COUNT(*)" + tail, catalog.get()));
  workload.push_back(
      Parse("RETURN sector, MIN(S.price)" + tail, catalog.get()));
  ExpectWorkloadEquivalent(catalog.get(), workload, stream);
}

// Acceptance criterion: a >= 8-query overlapping workload mixing sliding
// windows, grouping, negation and dedicated fallbacks — every query's
// shared-runtime output matches its independent engine exactly.
TEST(SharingEquivalenceTest, EightQueryMixedWorkload) {
  auto catalog = std::make_unique<Catalog>();
  Stream stream = StockStream(catalog.get(), /*halt_probability=*/0.05);

  std::vector<QuerySpec> workload;
  // Cluster A (4 queries): down-trend shape, sliding window.
  const std::string down =
      " PATTERN Stock S+ WHERE [company, sector] AND "
      "S.price > NEXT(S).price GROUP-BY sector WITHIN 10 seconds "
      "SLIDE 5 seconds";
  workload.push_back(Parse("RETURN sector, COUNT(*)" + down, catalog.get()));
  workload.push_back(
      Parse("RETURN sector, SUM(S.price)" + down, catalog.get()));
  workload.push_back(
      Parse("RETURN sector, MIN(S.price), MAX(S.price)" + down,
            catalog.get()));
  workload.push_back(Parse("RETURN sector, AVG(S.price)" + down,
                           catalog.get()));
  // Cluster B (3 queries): negation-guarded shape, sliding window, written
  // with different aliases to exercise normalization.
  const std::string neg_a =
      " PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company, sector] AND "
      "S.price > NEXT(S).price GROUP-BY sector WITHIN 10 seconds "
      "SLIDE 2 seconds";
  const std::string neg_b =
      " PATTERN SEQ(NOT Halt X, Stock S+) WHERE [company, sector] AND "
      "S.price > NEXT(S).price GROUP-BY sector WITHIN 10 seconds "
      "SLIDE 2 seconds";
  workload.push_back(Parse("RETURN sector, COUNT(*)" + neg_a,
                           catalog.get()));
  workload.push_back(Parse("RETURN sector, COUNT(S)" + neg_a,
                           catalog.get()));
  workload.push_back(Parse("RETURN sector, SUM(S.price)" + neg_b,
                           catalog.get()));
  // Two singletons: dedicated fallback paths.
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN SEQ(Stock S, Halt H) WHERE [sector] "
      "WITHIN 10 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company] AND "
      "S.volume > 20 GROUP-BY sector WITHIN 6 seconds SLIDE 3 seconds",
      catalog.get()));
  ASSERT_GE(workload.size(), 8u);

  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  // Clusters: down-trend (shared), negation (shared), two dedicated.
  EXPECT_EQ(shared->sharing_plan().clusters.size(), 4u);
  EXPECT_EQ(shared->sharing_plan().num_shared_clusters(), 2u);
}

TEST(SharingEquivalenceTest, ConjunctiveClusterSharesSingleSlot) {
  // Conjunctive patterns are COUNT(*)-only; a shared cluster keeps one
  // graph slot (the product is computed from slot 0) yet still answers
  // every query.
  auto catalog = testing::PaperCatalog();
  Stream stream = testing::Figure6Stream(catalog.get());
  std::vector<QuerySpec> workload;
  workload.push_back(
      Parse("RETURN COUNT(*) PATTERN A+ & SEQ(C, D)", catalog.get()));
  workload.push_back(
      Parse("RETURN COUNT(*) PATTERN A+ & SEQ(C, D)", catalog.get()));
  auto shared = ExpectWorkloadEquivalent(catalog.get(), workload, stream);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->sharing_plan().num_shared_clusters(), 1u);
}

TEST(SharingEquivalenceTest, SharingDisabledStillEquivalent) {
  auto catalog = std::make_unique<Catalog>();
  Stream stream = StockStream(catalog.get());
  SharedEngineOptions options;
  options.sharing.enable_sharing = false;
  auto shared = ExpectWorkloadEquivalent(
      catalog.get(), AggregateVariants(catalog.get(), " WITHIN 10 seconds"),
      stream, options);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->sharing_plan().num_shared_clusters(), 0u);
}

}  // namespace
}  // namespace greta
