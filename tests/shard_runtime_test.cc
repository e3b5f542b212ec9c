// Determinism of the sharded parallel runtime (src/runtime/): for every
// shard count, the merged result rows must be identical to single-threaded
// execution — bit-identical counts/min/max (integer and comparison merges
// are order-independent), tolerance-checked SUM/AVG (floating-point
// summation order over partitions differs) — across seeds, out-of-order
// input resequenced by K-slack, and shared / partial / independent
// workloads.

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/kslack.h"
#include "gtest/gtest.h"
#include "query/parser.h"
#include "runtime/sharded_runtime.h"
#include "storage/window.h"
#include "tests/test_util.h"
#include "workload/linear_road.h"
#include "workload/stock.h"

namespace greta {
namespace {

using runtime::ShardRouter;
using runtime::ShardedOptions;
using runtime::ShardedRuntime;

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

std::string Q1Text(double factor, Ts within, Ts slide,
                   const std::string& aggs = "COUNT(*)") {
  return "RETURN sector, " + aggs +
         " PATTERN Stock S+ WHERE [company, sector] AND S.price * " +
         std::to_string(factor) +
         " > NEXT(S).price GROUP-BY sector WITHIN " + std::to_string(within) +
         " seconds SLIDE " + std::to_string(slide) + " seconds";
}

Stream MakeStockStream(Catalog* catalog, uint64_t seed, int rate = 50,
                       Ts duration = 60) {
  StockConfig config;
  config.seed = seed;
  config.num_companies = 12;
  config.num_sectors = 4;
  config.rate = rate;
  config.duration = duration;
  config.drift = 0.3;
  return GenerateStockStream(catalog, config);
}

std::unique_ptr<ShardedRuntime> MakeSharded(
    const Catalog* catalog, const std::vector<QuerySpec>& workload,
    size_t num_shards, bool enable_sharing = true,
    size_t heartbeat_events = 64, size_t batch_size = 32) {
  ShardedOptions options;
  options.num_shards = num_shards;
  options.batch_size = batch_size;
  options.heartbeat_events = heartbeat_events;
  options.workload.engine.counter_mode = CounterMode::kExact;
  options.workload.sharing.enable_sharing = enable_sharing;
  auto rt = ShardedRuntime::Create(catalog, workload, options);
  EXPECT_TRUE(rt.ok()) << rt.status().ToString();
  return std::move(rt).value();
}

/// Streams `stream` through the sharded runtime, draining every 97 events
/// (exercising the watermark gate mid-stream) and after Flush; returns the
/// accumulated rows per query.
std::vector<std::vector<ResultRow>> RunSharded(ShardedRuntime* rt,
                                               const Stream& stream,
                                               size_t* mid_stream_rows =
                                                   nullptr) {
  std::vector<std::vector<ResultRow>> out(rt->num_queries());
  size_t i = 0;
  for (const Event& e : stream.events()) {
    Status s = rt->Process(e);
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (++i % 97 == 0) {
      for (size_t q = 0; q < out.size(); ++q) {
        std::vector<ResultRow> rows = rt->TakeResults(q);
        if (mid_stream_rows != nullptr) *mid_stream_rows += rows.size();
        out[q].insert(out[q].end(), std::make_move_iterator(rows.begin()),
                      std::make_move_iterator(rows.end()));
      }
    }
  }
  Status s = rt->Flush();
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (size_t q = 0; q < out.size(); ++q) {
    std::vector<ResultRow> rows = rt->TakeResults(q);
    out[q].insert(out[q].end(), std::make_move_iterator(rows.begin()),
                  std::make_move_iterator(rows.end()));
  }
  return out;
}

/// Single-threaded baseline over the same workload: the shared workload
/// engine when `enable_sharing`, else the same engine with sharing off —
/// the reference emission order per query.
std::vector<std::vector<ResultRow>> RunBaseline(
    const Catalog* catalog, const std::vector<QuerySpec>& workload,
    const Stream& stream, bool enable_sharing = true) {
  sharing::SharedEngineOptions options;
  options.engine.counter_mode = CounterMode::kExact;
  options.sharing.enable_sharing = enable_sharing;
  auto engine =
      sharing::SharedWorkloadEngine::Create(catalog, workload, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<std::vector<ResultRow>> out(workload.size());
  for (const Event& e : stream.events()) {
    Status s = engine.value()->Process(e);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_TRUE(engine.value()->Flush().ok());
  for (size_t q = 0; q < workload.size(); ++q) {
    out[q] = engine.value()->TakeResults(q);
  }
  return out;
}

/// Exact comparison of the order, windows, groups and counters; aggregate
/// values cross-checked through RowsEquivalent (tolerance for SUM/AVG).
void ExpectRowsIdentical(const std::vector<ResultRow>& sharded,
                         const std::vector<ResultRow>& baseline,
                         const AggPlan& plan, const std::string& label) {
  ASSERT_EQ(sharded.size(), baseline.size()) << label;
  for (size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(sharded[i].wid, baseline[i].wid) << label << " row " << i;
    ASSERT_EQ(sharded[i].group.size(), baseline[i].group.size())
        << label << " row " << i;
    for (size_t g = 0; g < sharded[i].group.size(); ++g) {
      EXPECT_TRUE(sharded[i].group[g] == baseline[i].group[g])
          << label << " row " << i << " group attr " << g;
    }
    EXPECT_EQ(sharded[i].aggs.count.ToDecimal(),
              baseline[i].aggs.count.ToDecimal())
        << label << " row " << i;
    EXPECT_EQ(sharded[i].aggs.type_count.ToDecimal(),
              baseline[i].aggs.type_count.ToDecimal())
        << label << " row " << i;
  }
  std::string diff;
  EXPECT_TRUE(RowsEquivalent(sharded, baseline, plan, &diff))
      << label << ": " << diff;
}

TEST(ShardRuntime, SingleQueryGroupedCountAcrossShardCountsAndSeeds) {
  for (uint64_t seed : {7u, 23u}) {
    auto catalog = std::make_unique<Catalog>();
    RegisterStockTypes(catalog.get());
    Stream stream = MakeStockStream(catalog.get(), seed);
    std::vector<QuerySpec> workload;
    workload.push_back(Parse(Q1Text(1.0, 10, 5), catalog.get()));
    auto baseline = RunBaseline(catalog.get(), workload, stream);
    for (size_t shards : {1u, 2u, 4u, 8u}) {
      auto rt = MakeSharded(catalog.get(), workload, shards);
      ASSERT_NE(rt, nullptr);
      EXPECT_TRUE(rt->partitioned());
      EXPECT_EQ(rt->num_shards(), shards);
      auto rows = RunSharded(rt.get(), stream);
      ExpectRowsIdentical(rows[0], baseline[0], rt->agg_plan_for(0),
                          "seed " + std::to_string(seed) + " shards " +
                              std::to_string(shards));
    }
  }
}

TEST(ShardRuntime, WatermarkReleasesRowsMidStream) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  Stream stream = MakeStockStream(catalog.get(), 5, /*rate=*/50,
                                  /*duration=*/80);
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(Q1Text(1.0, 8, 4), catalog.get()));
  auto rt = MakeSharded(catalog.get(), workload, 4, true,
                        /*heartbeat_events=*/32);
  ASSERT_NE(rt, nullptr);
  size_t mid_stream_rows = 0;
  auto rows = RunSharded(rt.get(), stream, &mid_stream_rows);
  // The idle-shard heartbeat must advance the low watermark well before
  // Flush: most windows close (and surface) mid-stream.
  EXPECT_GT(mid_stream_rows, rows[0].size() / 2)
      << "watermark protocol stalled: rows only surfaced at Flush";
}

/// Polls TakeResults(query) until `expected_rows` rows surfaced or a 10 s
/// deadline passed (so a runtime that holds the rows back fails instead of
/// hanging).
std::vector<ResultRow> PollRows(ShardedRuntime* rt, size_t query,
                                size_t expected_rows) {
  std::vector<ResultRow> out;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (out.size() < expected_rows &&
         std::chrono::steady_clock::now() < deadline) {
    std::vector<ResultRow> rows = rt->TakeResults(query);
    if (rows.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  return out;
}

/// Feeds `stream` through `rt` — row-wise via Process or as one columnar
/// ProcessBatch — WITHOUT Flush, then polls query 0 (PollRows).
std::vector<ResultRow> FeedAndPoll(ShardedRuntime* rt, const Stream& stream,
                                   bool batched, size_t expected_rows) {
  if (batched) {
    EventBatch batch;
    for (const Event& e : stream.events()) batch.Append(e);
    Status s = rt->ProcessBatch(batch);
    EXPECT_TRUE(s.ok()) << s.ToString();
  } else {
    for (const Event& e : stream.events()) {
      Status s = rt->Process(e);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
  return PollRows(rt, 0, expected_rows);
}

TEST(ShardRuntime, WindowsEmittedAtTheirCloseWithoutHeartbeatOrFlush) {
  // No heartbeats and batches far larger than the stream: the only thing
  // that can release a window before Flush is the router pushing every
  // shard's batch when the stream crosses the window's close.
  struct Input {
    uint64_t seed;
    int rate;
    Ts within, slide;
    bool stop_after_first_close;
  };
  const Input inputs[] = {
      // Up to and including the first event at or past window 0's close.
      {31, 50, 10, 5, true},
      // One event per second on a 1-second slide: every event from the
      // first close on crosses a close, so every router batch is one row.
      {37, 1, 3, 1, false},
  };
  for (const Input& input : inputs) {
    auto catalog = std::make_unique<Catalog>();
    RegisterStockTypes(catalog.get());
    Stream stream = MakeStockStream(catalog.get(), input.seed, input.rate,
                                    /*duration=*/120);
    std::vector<QuerySpec> workload;
    workload.push_back(
        Parse(Q1Text(1.0, input.within, input.slide), catalog.get()));
    const WindowSpec window = workload[0].window;
    const Ts close0 = WindowCloseTime(0, window);
    Stream fed;
    for (const Event& e : stream.events()) {
      fed.Append(e);
      if (input.stop_after_first_close && e.time >= close0) break;
    }
    auto baseline = RunBaseline(catalog.get(), workload, fed);
    std::vector<ResultRow> expected =
        testing::RowsClosedBy(baseline[0], window, fed.max_time());
    ASSERT_FALSE(expected.empty());

    for (size_t shards : {2u, 4u}) {
      for (bool batched : {false, true}) {
        const std::string label =
            "seed " + std::to_string(input.seed) + " shards " +
            std::to_string(shards) + (batched ? " ProcessBatch" : " Process");
        auto rt = MakeSharded(catalog.get(), workload, shards, true,
                              /*heartbeat_events=*/0, /*batch_size=*/4096);
        ASSERT_NE(rt, nullptr);
        std::vector<ResultRow> rows =
            FeedAndPoll(rt.get(), fed, batched, expected.size());
        ExpectRowsIdentical(rows, expected, rt->agg_plan_for(0),
                            label + " before Flush");
        // The rest of the stream's rows follow at Flush, still identical.
        Status s = rt->Flush();
        EXPECT_TRUE(s.ok()) << s.ToString();
        std::vector<ResultRow> rest = rt->TakeResults(0);
        rows.insert(rows.end(), rest.begin(), rest.end());
        ExpectRowsIdentical(rows, baseline[0], rt->agg_plan_for(0), label);
      }
    }
  }
}

TEST(ShardRuntime, SharedWorkloadDifferentAggregates) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  Stream stream = MakeStockStream(catalog.get(), 11);
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(Q1Text(1.0, 10, 5), catalog.get()));
  workload.push_back(
      Parse(Q1Text(1.0, 10, 5, "SUM(S.price)"), catalog.get()));
  workload.push_back(
      Parse(Q1Text(1.0, 10, 5, "MIN(S.price), MAX(S.price)"), catalog.get()));
  workload.push_back(Parse(Q1Text(1.0, 10, 5, "AVG(S.volume)"),
                           catalog.get()));
  auto baseline = RunBaseline(catalog.get(), workload, stream);
  for (size_t shards : {2u, 8u}) {
    auto rt = MakeSharded(catalog.get(), workload, shards);
    ASSERT_NE(rt, nullptr);
    auto rows = RunSharded(rt.get(), stream);
    for (size_t q = 0; q < workload.size(); ++q) {
      ExpectRowsIdentical(rows[q], baseline[q], rt->agg_plan_for(q),
                          "query " + std::to_string(q) + " shards " +
                              std::to_string(shards));
    }
    // The shared shards run the batch kernels, and the roll-up reports it.
    EXPECT_GT(rt->stats().batch_rows_fast, 0u) << "shards " << shards;
  }
}

TEST(ShardRuntime, PartialSharingClusterEmitsOnOwnWindows) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  Stream stream = MakeStockStream(catalog.get(), 3);
  // Same Kleene core and predicates, different WITHIN, equal slide: pooled
  // into one partial cluster that shares storage on the union window while
  // each query's rows surface at its own window close. The rows match the
  // single-threaded engine's on every shard count.
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(Q1Text(1.0, 6, 2), catalog.get()));
  workload.push_back(Parse(Q1Text(1.0, 10, 2), catalog.get()));
  workload.push_back(Parse(Q1Text(1.0, 14, 2), catalog.get()));
  auto baseline = RunBaseline(catalog.get(), workload, stream);
  for (size_t shards : {2u, 4u}) {
    auto rt = MakeSharded(catalog.get(), workload, shards);
    ASSERT_NE(rt, nullptr);
    auto rows = RunSharded(rt.get(), stream);
    for (size_t q = 0; q < workload.size(); ++q) {
      ExpectRowsIdentical(rows[q], baseline[q], rt->agg_plan_for(q),
                          "partial query " + std::to_string(q) + " shards " +
                              std::to_string(shards));
    }
  }
}

TEST(ShardRuntime, PartialClusterReleasesShortWindowsBeforeUnionClose) {
  // A static partial cluster over WITHIN 6/10/14, slide 2, with no
  // heartbeats, router batches larger than the stream and no Flush: every
  // query's windows closed on its own grid must surface while the stream
  // is still short of the union's first close (14).
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  Stream stream = MakeStockStream(catalog.get(), 43);
  std::vector<QuerySpec> workload;
  for (Ts within : {6, 10, 14}) {
    workload.push_back(Parse(Q1Text(1.0, within, 2), catalog.get()));
  }
  const Ts union_close0 = WindowCloseTime(0, workload.back().window);
  Stream fed;
  for (const Event& e : stream.events()) {
    if (e.time >= union_close0) break;
    fed.Append(e);
  }
  auto baseline = RunBaseline(catalog.get(), workload, fed);
  std::vector<std::vector<ResultRow>> expected(workload.size());
  for (size_t q = 0; q < workload.size(); ++q) {
    expected[q] = testing::RowsClosedBy(baseline[q], workload[q].window,
                                        fed.max_time());
  }
  ASSERT_LT(fed.max_time(), union_close0);
  ASSERT_FALSE(expected[0].empty());
  ASSERT_EQ(expected[0].front().wid, 0);
  ASSERT_TRUE(expected[2].empty()) << "no union window has closed yet";

  for (size_t shards : {2u, 4u}) {
    for (bool batched : {false, true}) {
      const std::string label = "shards " + std::to_string(shards) +
                                (batched ? " ProcessBatch" : " Process");
      auto rt = MakeSharded(catalog.get(), workload, shards, true,
                            /*heartbeat_events=*/0, /*batch_size=*/4096);
      ASSERT_NE(rt, nullptr);
      ASSERT_EQ(rt->sharing_plan()->clusters.size(), 1u);
      ASSERT_TRUE(rt->sharing_plan()->clusters[0].partial);
      std::vector<ResultRow> rows =
          FeedAndPoll(rt.get(), fed, batched, expected[0].size());
      ExpectRowsIdentical(rows, expected[0], rt->agg_plan_for(0),
                          label + " query 0");
      rows = PollRows(rt.get(), 1, expected[1].size());
      ExpectRowsIdentical(rows, expected[1], rt->agg_plan_for(1),
                          label + " query 1");
      EXPECT_TRUE(rt->TakeResults(2).empty()) << label;
    }
  }
}

TEST(ShardRuntime, BurstyPartialClusterReleasesEachSlideStep) {
  // A static partial cluster over WITHIN 2/4/8, slide 2, on a stream with a
  // 16x burst, at 1, 2 and 4 shards. No heartbeats, router batches larger
  // than the stream and no Flush until the end: the stream is fed one
  // slide at a time, and after each step every query's windows closed on
  // its own grid must have surfaced, while the union window (8) is still
  // open; after Flush every query's rows equal the single-threaded ones.
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  StockConfig config;
  config.seed = 97;
  config.num_companies = 5;
  config.num_sectors = 2;
  config.rate = 8;
  config.duration = 60;
  config.drift = 0.0;
  config.bursts.push_back({20, 40, 16.0, 1.0});
  Stream stream = GenerateStockStream(catalog.get(), config);
  std::vector<QuerySpec> workload;
  workload.push_back(
      Parse(Q1Text(1.0, 2, 2, "COUNT(*), SUM(S.price)"), catalog.get()));
  workload.push_back(
      Parse(Q1Text(1.0, 4, 2, "COUNT(*), MIN(S.price)"), catalog.get()));
  workload.push_back(
      Parse(Q1Text(1.0, 8, 2, "COUNT(*), AVG(S.price)"), catalog.get()));
  auto baseline = RunBaseline(catalog.get(), workload, stream);
  const std::vector<Event>& events = stream.events();

  for (size_t shards : {1u, 2u, 4u}) {
    const std::string label = "shards " + std::to_string(shards);
    auto created = MakeSharded(catalog.get(), workload, shards, true,
                               /*heartbeat_events=*/0, /*batch_size=*/4096);
    ASSERT_NE(created, nullptr);
    ShardedRuntime* rt = created.get();
    ASSERT_EQ(rt->sharing_plan()->clusters.size(), 1u);
    ASSERT_TRUE(rt->sharing_plan()->clusters[0].partial);

    std::vector<std::vector<ResultRow>> rows(workload.size());
    size_t i = 0;
    for (Ts until = 2; i < events.size(); until += 2) {
      for (; i < events.size() && events[i].time < until; ++i) {
        ASSERT_TRUE(rt->Process(events[i]).ok());
      }
      if (i == 0) continue;
      const Ts fed_max = events[i - 1].time;
      for (size_t q = 0; q < workload.size(); ++q) {
        const std::vector<ResultRow> expected =
            testing::RowsClosedBy(baseline[q], workload[q].window, fed_max);
        std::vector<ResultRow> more =
            PollRows(rt, q, expected.size() - rows[q].size());
        rows[q].insert(rows[q].end(), more.begin(), more.end());
        ExpectRowsIdentical(rows[q], expected, rt->agg_plan_for(q),
                            label + " query " + std::to_string(q) +
                                " fed to " + std::to_string(fed_max));
      }
      if (HasFailure()) return;  // a held row would fail every later step
    }
    ASSERT_TRUE(rt->Flush().ok());
    for (size_t q = 0; q < workload.size(); ++q) {
      std::vector<ResultRow> rest = rt->TakeResults(q);
      rows[q].insert(rows[q].end(), rest.begin(), rest.end());
      ExpectRowsIdentical(rows[q], baseline[q], rt->agg_plan_for(q),
                          label + " query " + std::to_string(q));
    }
  }
}

TEST(ShardRuntime, IndependentWorkloadSharingDisabled) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  Stream stream = MakeStockStream(catalog.get(), 17);
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(Q1Text(1.00, 10, 5), catalog.get()));
  workload.push_back(Parse(Q1Text(1.01, 8, 4), catalog.get()));
  workload.push_back(Parse(Q1Text(0.99, 12, 6), catalog.get()));
  auto baseline =
      RunBaseline(catalog.get(), workload, stream, /*enable_sharing=*/false);
  auto rt = MakeSharded(catalog.get(), workload, 4, /*enable_sharing=*/false);
  ASSERT_NE(rt, nullptr);
  auto rows = RunSharded(rt.get(), stream);
  for (size_t q = 0; q < workload.size(); ++q) {
    ExpectRowsIdentical(rows[q], baseline[q], rt->agg_plan_for(q),
                        "independent query " + std::to_string(q));
  }
}

TEST(ShardRuntime, OutOfOrderInputResequencedByKSlack) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  Stream stream = MakeStockStream(catalog.get(), 29);

  // Disorder the stream with bounded displacement, then release through
  // K-slack: both runtimes consume the identical resequenced stream, the
  // sharded one must still match row for row.
  std::vector<Event> wire(stream.events().begin(), stream.events().end());
  std::mt19937 rng(1234);
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    size_t j = i + rng() % std::min<size_t>(wire.size() - i, 25);
    std::swap(wire[i], wire[j]);
  }
  KSlackBuffer buffer(/*slack=*/5);
  Stream reordered;
  for (Event& e : wire) {
    for (Event& ready : buffer.Push(std::move(e))) {
      reordered.Append(std::move(ready));
    }
  }
  for (Event& ready : buffer.Flush()) reordered.Append(std::move(ready));
  ASSERT_EQ(reordered.size() + buffer.dropped(), stream.size());

  std::vector<QuerySpec> workload;
  workload.push_back(Parse(Q1Text(1.0, 10, 5), catalog.get()));
  auto baseline = RunBaseline(catalog.get(), workload, reordered);
  for (size_t shards : {2u, 8u}) {
    auto rt = MakeSharded(catalog.get(), workload, shards);
    ASSERT_NE(rt, nullptr);
    auto rows = RunSharded(rt.get(), reordered);
    ExpectRowsIdentical(rows[0], baseline[0], rt->agg_plan_for(0),
                        "kslack shards " + std::to_string(shards));
  }
}

TEST(ShardRuntime, NonPartitionedQueryFallsBackToOneShard) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  Stream stream = MakeStockStream(catalog.get(), 41, /*rate=*/30,
                                  /*duration=*/40);
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      "RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > NEXT(S).price "
      "WITHIN 6 seconds SLIDE 3 seconds",
      catalog.get()));
  auto baseline = RunBaseline(catalog.get(), workload, stream);
  auto rt = MakeSharded(catalog.get(), workload, 8);
  ASSERT_NE(rt, nullptr);
  EXPECT_FALSE(rt->partitioned());
  EXPECT_EQ(rt->num_shards(), 1u) << "no partition key must clamp to shard 0";
  auto rows = RunSharded(rt.get(), stream);
  ExpectRowsIdentical(rows[0], baseline[0], rt->agg_plan_for(0), "fallback");
}

TEST(ShardRuntime, BroadcastTypeWithNegation) {
  // Linear Road Q3: Accident events lack the `vehicle` shard-key attribute
  // and must be broadcast to every shard, where each engine applies them to
  // its own partitions (negation barriers).
  auto catalog = std::make_unique<Catalog>();
  RegisterLinearRoadTypes(catalog.get());
  LinearRoadConfig config;
  config.seed = 13;
  config.num_vehicles = 24;
  config.num_segments = 6;
  config.rate = 40;
  config.duration = 50;
  config.accident_probability = 0.2;
  Stream stream = GenerateLinearRoadStream(catalog.get(), config);

  auto q3 = MakeQ3(catalog.get(), 8, 4);
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();
  std::vector<QuerySpec> workload;
  workload.push_back(std::move(q3).value());
  auto baseline = RunBaseline(catalog.get(), workload, stream);
  ASSERT_FALSE(baseline[0].empty());
  for (size_t shards : {2u, 4u}) {
    auto rt = MakeSharded(catalog.get(), workload, shards);
    ASSERT_NE(rt, nullptr);
    auto rows = RunSharded(rt.get(), stream);
    ExpectRowsIdentical(rows[0], baseline[0], rt->agg_plan_for(0),
                        "broadcast shards " + std::to_string(shards));
  }
}

TEST(ShardRuntime, KeyIntersectionAcrossDifferingQueries) {
  // Query 0 partitions by (sector, company), query 1 by (company) only: the
  // shard key is the intersection {company}, which is a prefix-consistent
  // partitioner for both.
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  Stream stream = MakeStockStream(catalog.get(), 53);
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(Q1Text(1.0, 10, 5), catalog.get()));
  workload.push_back(Parse(
      "RETURN company, COUNT(*) PATTERN Stock S+ WHERE [company] AND "
      "S.price > NEXT(S).price GROUP-BY company WITHIN 10 seconds SLIDE 5 "
      "seconds",
      catalog.get()));
  auto baseline = RunBaseline(catalog.get(), workload, stream);
  auto rt = MakeSharded(catalog.get(), workload, 4);
  ASSERT_NE(rt, nullptr);
  EXPECT_TRUE(rt->partitioned());
  ASSERT_EQ(rt->router().shard_key_attrs().size(), 1u);
  EXPECT_EQ(rt->router().shard_key_attrs()[0], "company");
  auto rows = RunSharded(rt.get(), stream);
  for (size_t q = 0; q < workload.size(); ++q) {
    ExpectRowsIdentical(rows[q], baseline[q], rt->agg_plan_for(q),
                        "intersection query " + std::to_string(q));
  }
}

TEST(ShardRuntime, RejectsOutOfOrderInput) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(Q1Text(1.0, 10, 5), catalog.get()));
  auto rt = MakeSharded(catalog.get(), workload, 2);
  ASSERT_NE(rt, nullptr);
  Event e1 = EventBuilder(catalog.get(), "Stock", 10)
                 .Set("company", 1)
                 .Set("sector", 1)
                 .Set("price", 10.0)
                 .Set("volume", 1)
                 .Set("kind", 0)
                 .Set("tx", 1)
                 .Build();
  Event e2 = e1;
  e2.time = 5;
  EXPECT_TRUE(rt->Process(e1).ok());
  EXPECT_FALSE(rt->Process(e2).ok());
  EXPECT_TRUE(rt->Flush().ok());
}

}  // namespace
}  // namespace greta
