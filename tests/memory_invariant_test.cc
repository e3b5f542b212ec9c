// Memory accounting invariants: the O(1) incremental byte counters
// maintained at the allocation sites (pane creation, vertex insert, arena
// chunk growth, tree node growth) must equal a from-scratch recomputation —
// at any point mid-stream, at window close, and after Purge — and the
// MemoryTracker must see exactly the same totals.

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "query/parser.h"
#include "runtime/sharded_runtime.h"
#include "storage/pane.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using testing::MakeGreta;

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

// --- PaneStore level ---

struct PlainVertex {
  int64_t payload[6] = {0};
};

TEST(MemoryInvariant, PaneStoreIncrementalMatchesRecompute) {
  MemoryTracker tracker;
  {
    PaneStore<PlainVertex> store(10, 3, &tracker);
    for (Ts t = 0; t < 500; ++t) {
      // Arena allocations interleaved with inserts, like the graph does.
      Arena* arena = store.ArenaFor(t);
      arena->AllocateArray<int64_t>(static_cast<size_t>(t % 7) + 1);
      store.Insert(t, static_cast<size_t>(t % 3),
                   static_cast<double>(t % 13), PlainVertex{});
      if (t % 97 == 0) {
        EXPECT_EQ(store.ApproxBytes(), store.RecomputeApproxBytes())
            << "at t=" << t;
        EXPECT_EQ(tracker.current_bytes(), store.ApproxBytes());
      }
    }
    EXPECT_EQ(store.ApproxBytes(), store.RecomputeApproxBytes());
    EXPECT_EQ(tracker.current_bytes(), store.ApproxBytes());

    size_t freed = store.PurgeBefore(250);
    EXPECT_GT(freed, 0u);
    EXPECT_EQ(store.ApproxBytes(), store.RecomputeApproxBytes());
    EXPECT_EQ(tracker.current_bytes(), store.ApproxBytes());

    store.PurgeBefore(10000);
    EXPECT_EQ(store.RecomputeApproxBytes(), 0u);
    EXPECT_EQ(store.ApproxBytes(), 0u);
    EXPECT_EQ(tracker.current_bytes(), 0u);
  }
  // Destruction releases whatever was still charged.
  EXPECT_EQ(tracker.current_bytes(), 0u);
}

// --- Engine level ---

// Streams events through `spec` and asserts, at every window close (the
// engine emitted rows) and at the end, that the tracker's current bytes
// equal a from-scratch walk of every partition's panes.
void ExpectEngineInvariant(const std::string& text, CounterMode mode) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  QuerySpec spec = Parse(text, catalog.get());

  StockConfig config;
  config.seed = 23;
  config.num_companies = 5;
  config.num_sectors = 2;
  config.rate = 30;
  config.duration = 40;
  Stream stream = GenerateStockStream(catalog.get(), config);

  EngineOptions options;
  options.counter_mode = mode;
  auto engine = MakeGreta(catalog.get(), spec, options);

  size_t checks = 0;
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(engine->Process(e).ok());
    std::vector<ResultRow> rows = engine->TakeResults();
    if (!rows.empty() || checks % 64 == 0) {
      // Window close (rows emitted) means ForgetWindow + Purge just ran.
      EXPECT_EQ(engine->RecomputeTrackedBytes(),
                engine->memory().current_bytes())
          << text << " after event seq " << e.seq;
    }
    ++checks;
  }
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->RecomputeTrackedBytes(),
            engine->memory().current_bytes())
      << text << " after flush";
  EXPECT_GE(engine->memory().peak_bytes(), engine->memory().current_bytes());
}

TEST(MemoryInvariant, CountQuerySlidingWindow) {
  ExpectEngineInvariant(
      "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] AND "
      "S.price > NEXT(S).price GROUP-BY sector WITHIN 10 seconds SLIDE 5 "
      "seconds",
      CounterMode::kModular);
}

TEST(MemoryInvariant, AttributeAggregatesExactMode) {
  ExpectEngineInvariant(
      "RETURN sector, MIN(S.price), MAX(S.price), AVG(S.price) PATTERN "
      "Stock S+ WHERE [company, sector] GROUP-BY sector WITHIN 8 seconds "
      "SLIDE 4 seconds",
      CounterMode::kExact);
}

// --- Sharded runtime level ---

// Each shard accounts into its own tracker (child of the workload roll-up):
// when the runtime is quiescent, every shard's incremental bytes must equal
// a from-scratch recomputation of that shard's engine, and the roll-up must
// equal the sum — the aggregation-safety contract of concurrent shards.
TEST(MemoryInvariant, ShardedPerShardTrackersSumIntoRollup) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] AND "
      "S.price > NEXT(S).price GROUP-BY sector WITHIN 10 seconds SLIDE 5 "
      "seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN sector, SUM(S.price) PATTERN Stock S+ WHERE [company, sector] "
      "AND S.price > NEXT(S).price GROUP-BY sector WITHIN 10 seconds SLIDE 5 "
      "seconds",
      catalog.get()));

  StockConfig config;
  config.seed = 31;
  config.num_companies = 8;
  config.num_sectors = 3;
  config.rate = 30;
  config.duration = 40;
  Stream stream = GenerateStockStream(catalog.get(), config);

  runtime::ShardedOptions options;
  options.num_shards = 4;
  options.batch_size = 16;
  options.heartbeat_events = 64;
  auto rt = runtime::ShardedRuntime::Create(catalog.get(), workload, options);
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  runtime::ShardedRuntime& runtime = *rt.value();
  ASSERT_EQ(runtime.num_shards(), 4u);

  // Quiescent checkpoints: Flush() drains every shard's queue, so the
  // engine walk cannot race the shard workers.
  size_t checkpoints = 0;
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(runtime.Process(e).ok());
    if (e.seq % 256 == 0) {
      ASSERT_TRUE(runtime.Flush().ok());
      size_t sum = 0;
      for (size_t s = 0; s < runtime.num_shards(); ++s) {
        EXPECT_EQ(runtime.RecomputeShardTrackedBytes(s),
                  runtime.shard_memory(s).current_bytes())
            << "shard " << s << " at seq " << e.seq;
        sum += runtime.shard_memory(s).current_bytes();
      }
      EXPECT_EQ(runtime.memory().current_bytes(), sum)
          << "roll-up at seq " << e.seq;
      ++checkpoints;
    }
  }
  ASSERT_TRUE(runtime.Flush().ok());
  EXPECT_GT(checkpoints, 2u);

  size_t sum = 0;
  for (size_t s = 0; s < runtime.num_shards(); ++s) {
    EXPECT_EQ(runtime.RecomputeShardTrackedBytes(s),
              runtime.shard_memory(s).current_bytes())
        << "shard " << s << " after flush";
    sum += runtime.shard_memory(s).current_bytes();
  }
  EXPECT_EQ(runtime.memory().current_bytes(), sum) << "roll-up after flush";
  EXPECT_GE(runtime.memory().peak_bytes(), runtime.memory().current_bytes());
  EXPECT_GT(runtime.memory().peak_bytes(), 0u);
}

// --- workload level under bursts ---

// A partial cluster over WITHIN 2/4/8 on a stream with a 40x burst: the
// workload tracker equals a walk of the unit engines after every event
// that emits, and destroying the workload releases everything it charged
// to the caller's tracker (pane bytes AND partition-map overhead).
TEST(MemoryInvariant, BurstyPartialClusterMatchesRecomputeAndReleases) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      "RETURN sector, COUNT(*), SUM(S.price) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 2 seconds SLIDE 2 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN sector, COUNT(*), MIN(S.price) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 4 seconds SLIDE 2 seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN sector, COUNT(*), AVG(S.price) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 8 seconds SLIDE 2 seconds",
      catalog.get()));

  StockConfig config;
  config.seed = 97;
  config.num_companies = 5;
  config.num_sectors = 2;
  config.rate = 8;
  config.duration = 70;
  config.drift = 0.0;
  config.bursts.push_back({20, 45, 40.0, 1.0});
  Stream stream = GenerateStockStream(catalog.get(), config);

  MemoryTracker outer;
  sharing::SharedEngineOptions options;
  options.engine.memory = &outer;
  auto engine =
      sharing::SharedWorkloadEngine::Create(catalog.get(), workload, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  sharing::SharedWorkloadEngine& e = *engine.value();
  ASSERT_EQ(e.sharing_plan().clusters.size(), 1u);
  ASSERT_TRUE(e.sharing_plan().clusters[0].partial);

  size_t checks = 0;
  for (const Event& ev : stream.events()) {
    ASSERT_TRUE(e.Process(ev).ok());
    std::vector<ResultRow> rows = e.TakeResults();
    if (!rows.empty() || checks % 64 == 0) {
      EXPECT_EQ(e.RecomputeTrackedBytes(), e.memory().current_bytes())
          << "after event seq " << ev.seq;
    }
    ++checks;
  }
  ASSERT_TRUE(e.Flush().ok());
  EXPECT_EQ(e.RecomputeTrackedBytes(), e.memory().current_bytes())
      << "after flush";
  EXPECT_GE(e.memory().peak_bytes(), e.memory().current_bytes());
  EXPECT_EQ(outer.current_bytes(), e.memory().current_bytes());
  const EngineStats& stats = e.stats();
  EXPECT_GT(stats.vertices_stored, 0u);
  EXPECT_GT(stats.edges_traversed, 0u);
  EXPECT_GE(stats.peak_bytes, e.memory().current_bytes());
  ASSERT_GT(outer.current_bytes(), 0u) << "nothing left to release";
  engine.value().reset();
  EXPECT_EQ(outer.current_bytes(), 0u);
}

TEST(MemoryInvariant, TumblingWindowPurgesWholesale) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  QuerySpec spec = Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 5 seconds "
      "SLIDE 5 seconds",
      catalog.get());

  StockConfig config;
  config.seed = 5;
  config.num_companies = 3;
  config.rate = 20;
  config.duration = 60;
  Stream stream = GenerateStockStream(catalog.get(), config);

  auto engine = MakeGreta(catalog.get(), spec);
  size_t mid_stream_bytes = 0;
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(engine->Process(e).ok());
    if (e.time == 30) mid_stream_bytes = engine->memory().current_bytes();
  }
  ASSERT_TRUE(engine->Flush().ok());
  // Purge keeps current usage bounded: the end-of-stream footprint must not
  // exceed a small multiple of the mid-stream footprint (panes expire).
  EXPECT_EQ(engine->RecomputeTrackedBytes(),
            engine->memory().current_bytes());
  ASSERT_GT(mid_stream_bytes, 0u);
  EXPECT_LT(engine->memory().current_bytes(), 4 * mid_stream_bytes);
}

}  // namespace
}  // namespace greta
