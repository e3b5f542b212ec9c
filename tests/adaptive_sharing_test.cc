// Adaptive sharing (stats-driven re-planning, src/sharing/): adaptive
// execution must produce BIT-IDENTICAL rows (counts/min/max exact, SUM/AVG
// within fp tolerance) to static execution on every configuration — across
// burst schedules, shard counts, ingest batch sizes, and
// shared/partial/independent clusters — while actually migrating clusters
// when the observed load says the other mode wins, and NOT flapping on an
// oscillating load (hysteresis + cooldown).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/event_batch.h"
#include "gtest/gtest.h"
#include "query/parser.h"
#include "runtime/sharded_runtime.h"
#include "sharing/adaptive_planner.h"
#include "sharing/shared_engine.h"
#include "storage/window.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using sharing::AdaptationStats;
using sharing::AdaptiveClusterPlanner;
using sharing::AdaptiveOptions;
using sharing::ClusterMode;
using sharing::ClusterShape;
using sharing::SharedEngineOptions;
using sharing::SharedWorkloadEngine;

QuerySpec Parse(const std::string& text, Catalog* catalog) {
  auto spec = ParseQuery(text, catalog);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  return std::move(spec).value();
}

// Window-diverse partial cluster: same Kleene core (Stock S+), core
// predicates, keys and slide; different WITHINs and aggregates, so exact
// clustering merges nothing but partial pooling merges all three. The
// union window (WITHIN 8) makes the merged runtime scan and fold over 4x
// the range a WITHIN-2 dedicated engine would — the load-dependent
// trade-off the adaptive planner arbitrates.
std::vector<QuerySpec> PartialWorkload(Catalog* catalog) {
  RegisterStockTypes(catalog);
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      "RETURN sector, COUNT(*), SUM(S.price) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 2 seconds SLIDE 2 seconds",
      catalog));
  workload.push_back(Parse(
      "RETURN sector, COUNT(*), MIN(S.price) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 4 seconds SLIDE 2 seconds",
      catalog));
  workload.push_back(Parse(
      "RETURN sector, COUNT(*), AVG(S.price) PATTERN Stock S+ "
      "WHERE [company, sector] AND S.price > NEXT(S).price "
      "GROUP-BY sector WITHIN 8 seconds SLIDE 2 seconds",
      catalog));
  return workload;
}

// Exact cluster (identical fingerprints, different aggregates) plus an
// independent query no cluster admits (different core predicate set).
std::vector<QuerySpec> MixedWorkload(Catalog* catalog) {
  RegisterStockTypes(catalog);
  std::vector<QuerySpec> workload = PartialWorkload(catalog);
  workload.push_back(Parse(
      "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] "
      "GROUP-BY sector WITHIN 4 seconds SLIDE 2 seconds",
      catalog));
  workload.push_back(Parse(
      "RETURN sector, MAX(S.volume) PATTERN Stock S+ "
      "WHERE [company, sector] GROUP-BY sector WITHIN 4 seconds SLIDE 2 "
      "seconds",
      catalog));
  workload.push_back(Parse(
      "RETURN company, COUNT(*) PATTERN Stock S+ WHERE [company] AND "
      "S.volume < NEXT(S).volume GROUP-BY company WITHIN 6 seconds SLIDE 3 "
      "seconds",
      catalog));
  return workload;
}

StockConfig BaseConfig() {
  StockConfig config;
  config.seed = 97;
  config.num_companies = 5;
  config.num_sectors = 2;
  config.rate = 8;  // quiet base rate
  config.duration = 60;
  config.drift = 0.0;
  return config;
}

StockConfig BurstyConfig() {
  StockConfig config = BaseConfig();
  // One sustained burst mid-stream: 8 ev/s -> 320 ev/s and back.
  config.bursts.push_back({20, 40, 40.0, 1.0});
  return config;
}

StockConfig OscillatingConfig() {
  StockConfig config = BaseConfig();
  // Load flips every 4 seconds (2 window-grid steps at slide 2) — faster
  // than the observation window can confirm a regime change.
  for (Ts t = 8; t + 4 <= 56; t += 8) {
    config.bursts.push_back({t, t + 4, 40.0, 1.0});
  }
  return config;
}

AdaptiveOptions AggressiveAdaptive() {
  AdaptiveOptions adaptive;
  adaptive.enabled = true;
  adaptive.observation_windows = 3;
  adaptive.min_windows_between_migrations = 4;
  adaptive.hysteresis = 1.2;
  return adaptive;
}

// Ingest batch sizes every equivalence below runs at: one-row batches, 7
// (misaligned with every window and adaptation point) and 256 (a batch
// spans many adaptation points on the quiet phases).
constexpr size_t kBatchSizes[] = {1, 7, 256};

// Runs the workload through a SharedWorkloadEngine in batches of
// `batch_size` events, draining whenever a batch crosses a multiple of
// `drain_every` events (0: only at the end) — mid-stream drains cross
// migration handovers, which is exactly what must not reorder rows.
struct RunResult {
  std::vector<std::vector<ResultRow>> rows;  // per query
  size_t migrations = 0;
  std::vector<AdaptationStats> states;
};

RunResult RunShared(const Catalog* catalog,
                    const std::vector<QuerySpec>& workload,
                    const Stream& stream, const SharedEngineOptions& options,
                    size_t drain_every = 64, size_t batch_size = 1) {
  auto engine = SharedWorkloadEngine::Create(catalog, workload, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  SharedWorkloadEngine& e = *engine.value();
  RunResult out;
  out.rows.resize(workload.size());
  auto drain = [&] {
    for (size_t q = 0; q < workload.size(); ++q) {
      std::vector<ResultRow> rows = e.TakeResults(q);
      out.rows[q].insert(out.rows[q].end(),
                         std::make_move_iterator(rows.begin()),
                         std::make_move_iterator(rows.end()));
    }
  };
  const std::vector<Event>& events = stream.events();
  EventBatch batch;
  for (size_t i = 0; i < events.size(); i += batch_size) {
    const size_t end = std::min(events.size(), i + batch_size);
    batch.clear();
    for (size_t j = i; j < end; ++j) batch.Append(events[j]);
    EXPECT_TRUE(e.ProcessBatch(batch).ok());
    if (drain_every > 0 && end / drain_every != i / drain_every) drain();
  }
  EXPECT_TRUE(e.Flush().ok());
  drain();
  out.migrations = e.total_migrations();
  out.states = e.adaptation_states();
  return out;
}

void ExpectRowsEquivalent(const Catalog* catalog,
                          const std::vector<QuerySpec>& workload,
                          const RunResult& a, const RunResult& b,
                          const std::string& label) {
  auto reference =
      SharedWorkloadEngine::Create(catalog, workload, SharedEngineOptions{});
  ASSERT_TRUE(reference.ok());
  for (size_t q = 0; q < workload.size(); ++q) {
    std::string diff;
    EXPECT_TRUE(RowsEquivalent(a.rows[q], b.rows[q],
                               reference.value()->agg_plan_for(q), &diff))
        << label << " query " << q << ": " << diff;
  }
}

// --- equivalence: adaptive == static, across burst schedules ---

class AdaptiveEquivalenceTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(AdaptiveEquivalenceTest, PartialClusterBitIdentical) {
  const std::string schedule = GetParam();
  auto catalog = std::make_unique<Catalog>();
  std::vector<QuerySpec> workload = PartialWorkload(catalog.get());
  StockConfig config = schedule == "uniform"       ? BaseConfig()
                       : schedule == "burst"       ? BurstyConfig()
                                                   : OscillatingConfig();
  Stream stream = GenerateStockStream(catalog.get(), config);

  SharedEngineOptions static_options;
  RunResult baseline =
      RunShared(catalog.get(), workload, stream, static_options);

  SharedEngineOptions adaptive_options;
  adaptive_options.adaptive = AggressiveAdaptive();
  size_t one_row_migrations = 0;
  for (size_t batch_size : kBatchSizes) {
    RunResult adaptive = RunShared(catalog.get(), workload, stream,
                                   adaptive_options, 64, batch_size);
    const std::string label =
        "schedule=" + schedule + " batch=" + std::to_string(batch_size);
    ExpectRowsEquivalent(catalog.get(), workload, baseline, adaptive, label);
    // Adaptation steps land on the same rows at every batch size, so the
    // controller makes the same decisions.
    if (batch_size == 1) one_row_migrations = adaptive.migrations;
    EXPECT_EQ(adaptive.migrations, one_row_migrations) << label;
  }
  for (size_t q = 0; q < workload.size(); ++q) {
    EXPECT_FALSE(baseline.rows[q].empty()) << "query " << q << " emitted "
                                              "nothing - vacuous test";
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, AdaptiveEquivalenceTest,
                         ::testing::Values("uniform", "burst",
                                           "oscillating"));

TEST(AdaptiveSharing, MixedWorkloadBitIdenticalUnderBurst) {
  auto catalog = std::make_unique<Catalog>();
  std::vector<QuerySpec> workload = MixedWorkload(catalog.get());
  Stream stream = GenerateStockStream(catalog.get(), BurstyConfig());

  // Exact, partial and dedicated-fallback clusters, static and adaptive, at
  // every batch size, against the static one-row-batch run.
  RunResult baseline =
      RunShared(catalog.get(), workload, stream, SharedEngineOptions{});
  SharedEngineOptions adaptive_options;
  adaptive_options.adaptive = AggressiveAdaptive();
  for (size_t batch_size : kBatchSizes) {
    const std::string label = " batch=" + std::to_string(batch_size);
    RunResult batched = RunShared(catalog.get(), workload, stream,
                                  SharedEngineOptions{}, 64, batch_size);
    ExpectRowsEquivalent(catalog.get(), workload, baseline, batched,
                         "static" + label);
    RunResult adaptive = RunShared(catalog.get(), workload, stream,
                                   adaptive_options, 64, batch_size);
    ExpectRowsEquivalent(catalog.get(), workload, baseline, adaptive,
                         "adaptive" + label);
  }
}

// --- the loop actually migrates on a regime change ---

TEST(AdaptiveSharing, BurstTriggersSplitAndQuietRemerges) {
  auto catalog = std::make_unique<Catalog>();
  std::vector<QuerySpec> workload = PartialWorkload(catalog.get());
  StockConfig config = BaseConfig();
  config.duration = 90;
  config.bursts.push_back({20, 50, 40.0, 1.0});
  Stream stream = GenerateStockStream(catalog.get(), config);

  SharedEngineOptions options;
  options.adaptive = AggressiveAdaptive();
  RunResult adaptive = RunShared(catalog.get(), workload, stream, options);

  // The burst makes the merged runtime's union-range work dominate: the
  // cluster splits, and the long quiet tail re-merges it.
  ASSERT_EQ(adaptive.states.size(), 1u);
  EXPECT_GE(adaptive.migrations, 2u)
      << "expected a split during the burst and a re-merge after it";
  EXPECT_EQ(adaptive.states[0].mode, ClusterMode::kMerged)
      << "quiet tail should re-merge the cluster";
}

TEST(AdaptiveSharing, ExactClusterNeverSplits) {
  auto catalog = std::make_unique<Catalog>();
  RegisterStockTypes(catalog.get());
  // Fingerprint-identical pair: a merged exact runtime never repeats
  // structural work, so no load should ever split it.
  std::vector<QuerySpec> workload;
  workload.push_back(Parse(
      "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] AND "
      "S.price > NEXT(S).price GROUP-BY sector WITHIN 4 seconds SLIDE 2 "
      "seconds",
      catalog.get()));
  workload.push_back(Parse(
      "RETURN sector, SUM(S.price) PATTERN Stock S+ WHERE [company, sector] "
      "AND S.price > NEXT(S).price GROUP-BY sector WITHIN 4 seconds SLIDE 2 "
      "seconds",
      catalog.get()));
  Stream stream = GenerateStockStream(catalog.get(), BurstyConfig());

  SharedEngineOptions options;
  options.adaptive = AggressiveAdaptive();
  RunResult adaptive = RunShared(catalog.get(), workload, stream, options);
  EXPECT_EQ(adaptive.migrations, 0u);
  ASSERT_FALSE(adaptive.states.empty());
  EXPECT_EQ(adaptive.states[0].mode, ClusterMode::kMerged);

  RunResult baseline =
      RunShared(catalog.get(), workload, stream, SharedEngineOptions{});
  ExpectRowsEquivalent(catalog.get(), workload, baseline, adaptive, "exact");
}

// --- hysteresis: no flapping on an oscillating load ---

TEST(AdaptiveSharing, HysteresisPreventsFlappingOnOscillatingLoad) {
  auto catalog = std::make_unique<Catalog>();
  std::vector<QuerySpec> workload = PartialWorkload(catalog.get());
  Stream stream = GenerateStockStream(catalog.get(), OscillatingConfig());

  SharedEngineOptions options;
  options.adaptive.enabled = true;  // default smoothing/hysteresis/cooldown
  RunResult adaptive = RunShared(catalog.get(), workload, stream, options);

  // 12 load flips over the run; a flapping controller would migrate on
  // most of them. The observation window (4 steps = 8s) spans a full
  // oscillation period (8s), so the smoothed rates stay near the middle
  // and the hysteresis band keeps the decision parked.
  EXPECT_LE(adaptive.migrations, 2u)
      << "controller flapped on an oscillating load";
}

// --- per-query row order across migrations ---

TEST(AdaptiveSharing, RowsStayWindowOrderedAcrossMigrations) {
  auto catalog = std::make_unique<Catalog>();
  std::vector<QuerySpec> workload = PartialWorkload(catalog.get());
  Stream stream = GenerateStockStream(catalog.get(), BurstyConfig());

  SharedEngineOptions options;
  options.adaptive = AggressiveAdaptive();
  for (size_t batch_size : kBatchSizes) {
    // Tight drain cadence: pulls cross the handover repeatedly.
    RunResult adaptive = RunShared(catalog.get(), workload, stream, options,
                                   /*drain_every=*/7, batch_size);
    EXPECT_GE(adaptive.migrations, 1u) << "batch " << batch_size;
    for (size_t q = 0; q < workload.size(); ++q) {
      for (size_t i = 1; i < adaptive.rows[q].size(); ++i) {
        EXPECT_LE(adaptive.rows[q][i - 1].wid, adaptive.rows[q][i].wid)
            << "batch " << batch_size << " query " << q << " row " << i;
      }
    }
  }
}

// --- push callbacks: no loss, no duplication, same content ---

TEST(AdaptiveSharing, CallbackDeliveryMatchesPullAcrossMigrations) {
  auto catalog = std::make_unique<Catalog>();
  std::vector<QuerySpec> workload = PartialWorkload(catalog.get());
  Stream stream = GenerateStockStream(catalog.get(), BurstyConfig());

  SharedEngineOptions options;
  options.adaptive = AggressiveAdaptive();
  auto engine =
      SharedWorkloadEngine::Create(catalog.get(), workload, options);
  ASSERT_TRUE(engine.ok());
  std::vector<std::vector<ResultRow>> pushed(workload.size());
  engine.value()->set_result_callback(
      [&pushed](size_t q, const ResultRow& row) {
        pushed[q].push_back(row);
      });
  for (const Event& ev : stream.events()) {
    ASSERT_TRUE(engine.value()->Process(ev).ok());
  }
  ASSERT_TRUE(engine.value()->Flush().ok());
  EXPECT_GE(engine.value()->total_migrations(), 1u);

  RunResult baseline =
      RunShared(catalog.get(), workload, stream, SharedEngineOptions{});
  for (size_t q = 0; q < workload.size(); ++q) {
    std::string diff;
    EXPECT_TRUE(RowsEquivalent(baseline.rows[q], pushed[q],
                               engine.value()->agg_plan_for(q), &diff))
        << "query " << q << ": " << diff;
  }
}

// --- release on each query's own grid, handovers included ---

TEST(AdaptiveSharing, HandoverReleasesEachQueryAtItsOwnClose) {
  auto catalog = std::make_unique<Catalog>();
  std::vector<QuerySpec> workload = PartialWorkload(catalog.get());
  Stream stream = GenerateStockStream(catalog.get(), BurstyConfig());
  RunResult expected =
      RunShared(catalog.get(), workload, stream, SharedEngineOptions{});

  SharedEngineOptions options;
  options.adaptive = AggressiveAdaptive();
  auto engine = SharedWorkloadEngine::Create(catalog.get(), workload, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  SharedWorkloadEngine& e = *engine.value();
  std::vector<std::vector<ResultRow>> pushed(workload.size());
  std::vector<std::vector<ResultRow>> pulled(workload.size());
  e.set_result_callback([&pushed](size_t q, const ResultRow& row) {
    pushed[q].push_back(row);
  });

  // A migration at tick T hands windows >= ceil(T / slide) to the new
  // engines; the old ones retire at the union close of the window before.
  const WindowSpec union_window = workload.back().window;
  Ts tick = 0;
  size_t migrations = 0;
  Ts handover_start = kMaxTs;
  Ts handover_end = kMinTs;
  size_t handover_ticks = 0;
  auto note_migration = [&] {
    if (e.total_migrations() == migrations) return;
    migrations = e.total_migrations();
    const WindowId split =
        (tick + union_window.slide - 1) / union_window.slide;
    handover_start = tick;
    handover_end = WindowCloseTime(split - 1, union_window);
  };
  // After every watermark tick each query has delivered, pushed and
  // pulled alike, exactly its windows closed on its own grid.
  auto check = [&] {
    note_migration();
    if (tick > handover_start && tick < handover_end) ++handover_ticks;
    for (size_t q = 0; q < workload.size(); ++q) {
      std::vector<ResultRow> rows = e.TakeResults(q);
      pulled[q].insert(pulled[q].end(), rows.begin(), rows.end());
      const std::vector<ResultRow> closed =
          testing::RowsClosedBy(expected.rows[q], workload[q].window, tick);
      std::string diff;
      EXPECT_TRUE(RowsEquivalent(closed, pulled[q], e.agg_plan_for(q), &diff))
          << "pulled, query " << q << " tick " << tick << ": " << diff;
      EXPECT_TRUE(RowsEquivalent(closed, pushed[q], e.agg_plan_for(q), &diff))
          << "pushed, query " << q << " tick " << tick << ": " << diff;
    }
  };
  for (const Event& ev : stream.events()) {
    while (tick < ev.time) {
      ++tick;
      ASSERT_TRUE(e.AdvanceWatermark(tick).ok());
      check();
      if (HasFailure()) return;
    }
    ASSERT_TRUE(e.Process(ev).ok());
    note_migration();
  }
  EXPECT_GE(migrations, 1u);
  EXPECT_GE(handover_ticks, 1u) << "no tick fell inside a handover";
}

// --- sharded: per-shard controllers, deterministic merged rows ---

class AdaptiveShardedTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AdaptiveShardedTest, ShardedAdaptiveMatchesStaticSingleThreaded) {
  const size_t shards = GetParam();
  auto catalog = std::make_unique<Catalog>();
  std::vector<QuerySpec> workload = MixedWorkload(catalog.get());
  Stream stream = GenerateStockStream(catalog.get(), BurstyConfig());

  RunResult baseline =
      RunShared(catalog.get(), workload, stream, SharedEngineOptions{});

  runtime::ShardedOptions options;
  options.num_shards = shards;
  options.batch_size = 16;
  options.heartbeat_events = 64;
  options.workload.adaptive = AggressiveAdaptive();
  auto rt = runtime::ShardedRuntime::Create(catalog.get(), workload, options);
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  std::vector<std::vector<ResultRow>> rows(workload.size());
  size_t count = 0;
  for (const Event& ev : stream.events()) {
    ASSERT_TRUE(rt.value()->Process(ev).ok());
    if (++count % 128 == 0) {
      for (size_t q = 0; q < workload.size(); ++q) {
        std::vector<ResultRow> r = rt.value()->TakeResults(q);
        rows[q].insert(rows[q].end(), std::make_move_iterator(r.begin()),
                       std::make_move_iterator(r.end()));
      }
    }
  }
  ASSERT_TRUE(rt.value()->Flush().ok());
  for (size_t q = 0; q < workload.size(); ++q) {
    std::vector<ResultRow> r = rt.value()->TakeResults(q);
    rows[q].insert(rows[q].end(), std::make_move_iterator(r.begin()),
                   std::make_move_iterator(r.end()));
  }

  for (size_t q = 0; q < workload.size(); ++q) {
    std::string diff;
    EXPECT_TRUE(RowsEquivalent(baseline.rows[q], rows[q],
                               rt.value()->agg_plan_for(q), &diff))
        << "shards=" << shards << " query " << q << ": " << diff;
  }
  // Telemetry is reachable and consistent once quiescent.
  size_t migrations = 0;
  for (size_t s = 0; s < rt.value()->num_shards(); ++s) {
    for (const AdaptationStats& st : rt.value()->ShardAdaptationStates(s)) {
      migrations += st.migrations;
    }
  }
  EXPECT_EQ(migrations, rt.value()->TotalMigrations());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, AdaptiveShardedTest,
                         ::testing::Values(1, 4));

// --- planner unit tests (pure decision logic) ---

ClusterShape DiverseShape() {
  ClusterShape shape;
  shape.num_queries = 3;
  shape.dedicated_passes = 3.0;
  shape.merged_quad = 80.0;     // (1 + 4 cells) * (union k=4)^2
  shape.dedicated_quad = 42.0;  // 2 * (1 + 4 + 16)
  return shape;
}

WindowObservation Step(size_t events, size_t edges) {
  WindowObservation obs;
  obs.events_routed = events;
  obs.edges_traversed = edges;
  return obs;
}

TEST(AdaptiveClusterPlannerTest, NoDecisionBeforeHistoryFills) {
  AdaptiveOptions options;
  options.enabled = true;
  options.observation_windows = 4;
  options.min_windows_between_migrations = 0;
  AdaptiveClusterPlanner planner(DiverseShape(), ClusterMode::kMerged,
                                 options);
  planner.Observe(Step(1000, 4000000));
  planner.Observe(Step(1000, 4000000));
  planner.Observe(Step(1000, 4000000));
  EXPECT_EQ(planner.Decide(), ClusterMode::kMerged);
  planner.Observe(Step(1000, 4000000));
  EXPECT_EQ(planner.Decide(), ClusterMode::kDedicated);
}

TEST(AdaptiveClusterPlannerTest, QuietLoadPrefersMergedAndBurstSplits) {
  AdaptiveOptions options;
  options.enabled = true;
  options.observation_windows = 2;
  options.min_windows_between_migrations = 0;
  AdaptiveClusterPlanner planner(DiverseShape(), ClusterMode::kMerged,
                                 options);
  // Quiet: structural work negligible, dedicated would pay 3 engine
  // passes per event to the merged runtime's one.
  planner.Observe(Step(10, 50));
  planner.Observe(Step(10, 50));
  EXPECT_EQ(planner.Decide(), ClusterMode::kMerged);
  // Burst: quadratic union-range work dwarfs the per-event term.
  planner.Observe(Step(2000, 30000000));
  planner.Observe(Step(2000, 30000000));
  EXPECT_EQ(planner.Decide(), ClusterMode::kDedicated);
  planner.OnMigrationApplied(ClusterMode::kDedicated);
  // Back to quiet: re-merge.
  planner.Observe(Step(10, 30));
  planner.Observe(Step(10, 30));
  EXPECT_EQ(planner.Decide(), ClusterMode::kMerged);
}

TEST(AdaptiveClusterPlannerTest, CooldownBlocksImmediateReversal) {
  AdaptiveOptions options;
  options.enabled = true;
  options.observation_windows = 1;
  options.min_windows_between_migrations = 5;
  AdaptiveClusterPlanner planner(DiverseShape(), ClusterMode::kMerged,
                                 options);
  planner.Observe(Step(2000, 30000000));
  EXPECT_EQ(planner.Decide(), ClusterMode::kDedicated);
  planner.OnMigrationApplied(ClusterMode::kDedicated);
  for (int i = 0; i < 4; ++i) {
    planner.Observe(Step(10, 30));
    EXPECT_EQ(planner.Decide(), ClusterMode::kDedicated)
        << "cooldown step " << i;
  }
  planner.Observe(Step(10, 30));
  EXPECT_EQ(planner.Decide(), ClusterMode::kMerged);
}

TEST(AdaptiveClusterPlannerTest, IdleWindowsNeverMigrate) {
  AdaptiveOptions options;
  options.enabled = true;
  options.observation_windows = 1;
  options.min_windows_between_migrations = 0;
  AdaptiveClusterPlanner planner(DiverseShape(), ClusterMode::kDedicated,
                                 options);
  planner.Observe(Step(0, 0));
  EXPECT_EQ(planner.Decide(), ClusterMode::kDedicated);
}

// --- observation hook sanity at the workload level ---

TEST(AdaptiveSharing, WorkloadObservationsTrackBurst) {
  auto catalog = std::make_unique<Catalog>();
  std::vector<QuerySpec> workload = PartialWorkload(catalog.get());
  Stream stream = GenerateStockStream(catalog.get(), BurstyConfig());

  SharedEngineOptions options;
  options.adaptive = AggressiveAdaptive();
  auto engine =
      SharedWorkloadEngine::Create(catalog.get(), workload, options);
  ASSERT_TRUE(engine.ok());
  size_t max_events = 0;
  size_t min_events = SIZE_MAX;
  size_t steps = 0;
  for (const Event& ev : stream.events()) {
    ASSERT_TRUE(engine.value()->Process(ev).ok());
    for (const WindowObservation& obs :
         engine.value()->TakeWindowObservations()) {
      max_events = std::max(max_events, obs.events_routed);
      min_events = std::min(min_events, obs.events_routed);
      ++steps;
    }
  }
  ASSERT_TRUE(engine.value()->Flush().ok());
  EXPECT_GT(steps, 10u);
  // The burst must be visible in the observed per-window rates.
  EXPECT_GE(max_events, 500u);
  EXPECT_LE(min_events, 30u);
}

}  // namespace
}  // namespace greta
