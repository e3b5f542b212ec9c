// Workload spec loader: one JSON artifact declares queries + engine /
// sharing / runtime options (ROADMAP "Query DSL for workloads", file-format
// half). Exercises the happy path, defaults, strict unknown-key rejection,
// and that a loaded spec actually drives the sharded runtime.

#include <cstdio>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "workload/spec.h"

namespace greta {
namespace {

constexpr char kFullSpec[] = R"({
  "name": "grouped stock down-trends",
  "queries": [
    "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] AND S.price > NEXT(S).price GROUP-BY sector WITHIN 10 seconds SLIDE 5 seconds",
    "RETURN sector, SUM(S.price) PATTERN Stock S+ WHERE [company, sector] AND S.price > NEXT(S).price GROUP-BY sector WITHIN 10 seconds SLIDE 5 seconds"
  ],
  "engine": {
    "counter_mode": "modular",
    "semantics": "skip-till-any-match",
    "max_windows_per_event": 32
  },
  "sharing": {"enable_sharing": true, "min_cluster_size": 2},
  "adaptive": {
    "enabled": true,
    "observation_windows": 6,
    "hysteresis": 1.4,
    "min_windows_between_migrations": 10,
    "per_event_cost": 32.0
  },
  "runtime": {
    "num_shards": 4,
    "batch_size": 128,
    "queue_capacity": 8,
    "heartbeat_events": 512
  },
  "ingest": {
    "batch_size": 64,
    "sort_within_batch": true
  },
  "dataset": {
    "kind": "stock", "seed": 7, "rate": 40, "duration": 30,
    "num_companies": 8, "num_sectors": 3, "drift": 0.4,
    "bursts": [
      {"start": 10, "end": 20, "stock_multiplier": 8.0},
      {"start": 25, "end": 28, "stock_multiplier": 0.0,
       "halt_multiplier": 2.0}
    ]
  }
})";

TEST(WorkloadSpec, ParsesFullSpec) {
  Catalog catalog;
  auto spec = workload::ParseWorkloadSpec(kFullSpec, &catalog);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const workload::WorkloadSpec& w = spec.value();
  EXPECT_EQ(w.name, "grouped stock down-trends");
  ASSERT_EQ(w.queries.size(), 2u);
  EXPECT_EQ(w.query_texts.size(), 2u);
  EXPECT_EQ(w.options.engine.counter_mode, CounterMode::kModular);
  EXPECT_EQ(w.options.engine.max_windows_per_event, 32);
  EXPECT_TRUE(w.options.sharing.enable_sharing);
  EXPECT_EQ(w.runtime.num_shards, 4u);
  EXPECT_EQ(w.runtime.batch_size, 128u);
  EXPECT_EQ(w.runtime.queue_capacity, 8u);
  EXPECT_EQ(w.runtime.heartbeat_events, 512u);
  // The runtime block embeds the engine/sharing/adaptive options: one
  // source of truth for every executor.
  EXPECT_EQ(w.runtime.workload.engine.counter_mode, CounterMode::kModular);
  EXPECT_TRUE(w.options.adaptive.enabled);
  EXPECT_EQ(w.options.adaptive.observation_windows, 6u);
  EXPECT_DOUBLE_EQ(w.options.adaptive.hysteresis, 1.4);
  EXPECT_EQ(w.options.adaptive.min_windows_between_migrations, 10u);
  EXPECT_DOUBLE_EQ(w.options.adaptive.per_event_cost, 32.0);
  EXPECT_TRUE(w.runtime.workload.adaptive.enabled);
  EXPECT_EQ(w.ingest.batch_size, 64u);
  EXPECT_TRUE(w.ingest.sort_within_batch);
  ASSERT_TRUE(w.stock.has_value());
  EXPECT_EQ(w.stock->seed, 7u);
  EXPECT_EQ(w.stock->rate, 40);
  EXPECT_EQ(w.stock->num_companies, 8);
  ASSERT_EQ(w.stock->bursts.size(), 2u);
  EXPECT_EQ(w.stock->bursts[0].start, 10);
  EXPECT_EQ(w.stock->bursts[0].end, 20);
  EXPECT_DOUBLE_EQ(w.stock->bursts[0].stock_multiplier, 8.0);
  EXPECT_DOUBLE_EQ(w.stock->bursts[0].halt_multiplier, 1.0);
  EXPECT_DOUBLE_EQ(w.stock->bursts[1].stock_multiplier, 0.0);
  EXPECT_DOUBLE_EQ(w.stock->bursts[1].halt_multiplier, 2.0);
  // The stock dataset registered the types.
  EXPECT_NE(catalog.FindType("Stock"), kInvalidType);
}

TEST(WorkloadSpec, BurstScheduleShapesTheStream) {
  Catalog catalog;
  auto spec = workload::ParseWorkloadSpec(kFullSpec, &catalog);
  ASSERT_TRUE(spec.ok());
  Stream stream = GenerateStockStream(&catalog, *spec.value().stock);
  // Deterministic per seed: a second generation is identical.
  Catalog catalog2;
  Stream again = GenerateStockStream(&catalog2, *spec.value().stock);
  ASSERT_EQ(stream.size(), again.size());
  for (size_t i = 0; i < stream.size(); i += 97) {
    EXPECT_EQ(stream.events()[i].time, again.events()[i].time);
    EXPECT_EQ(stream.events()[i].type, again.events()[i].type);
  }
  // The 8x phase bursts and the silenced phase is silent.
  size_t quiet = 0;
  size_t burst = 0;
  size_t silenced = 0;
  for (const Event& e : stream.events()) {
    if (e.time < 10) ++quiet;
    if (e.time >= 10 && e.time < 20) ++burst;
    if (e.time >= 25 && e.time < 28 && e.type == catalog.FindType("Stock")) {
      ++silenced;
    }
  }
  EXPECT_EQ(quiet, 400u);    // 10s at base rate 40
  EXPECT_EQ(burst, 3200u);   // 10s at 8x
  EXPECT_EQ(silenced, 0u);   // stock_multiplier 0
}

TEST(WorkloadSpec, DefaultsWithoutOptionalBlocks) {
  Catalog catalog;
  RegisterStockTypes(&catalog);
  auto spec = workload::ParseWorkloadSpec(
      R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+ WITHIN 5 seconds"]})",
      &catalog);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().runtime.num_shards, 1u);
  EXPECT_EQ(spec.value().options.engine.counter_mode, CounterMode::kExact);
  EXPECT_FALSE(spec.value().stock.has_value());
}

TEST(WorkloadSpec, RejectsUnknownKeysAndBadValues) {
  Catalog catalog;
  RegisterStockTypes(&catalog);
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "runtime": {"shards": 4}})",
                   &catalog)
                   .ok())
      << "typo'd key must be rejected, not defaulted";
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "engine": {"counter_mode": "approximate"}})",
                   &catalog)
                   .ok());
  EXPECT_FALSE(workload::ParseWorkloadSpec(R"({"queries": []})", &catalog)
                   .ok());
  EXPECT_FALSE(
      workload::ParseWorkloadSpec(R"({"queries": ["NOT A QUERY"]})", &catalog)
          .ok());
  EXPECT_FALSE(workload::ParseWorkloadSpec("{", &catalog).ok());
  EXPECT_FALSE(workload::ParseWorkloadSpec("{} trailing", &catalog).ok());
  // Strict keys and value validation of the adaptive block.
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "adaptive": {"enable": true}})",
                   &catalog)
                   .ok())
      << "typo'd adaptive key must be rejected";
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "adaptive": {"hysteresis": 0.5}})",
                   &catalog)
                   .ok());
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "adaptive": {"observation_windows": 0}})",
                   &catalog)
                   .ok());
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "adaptive": {"per_event_cost": -64.0}})",
                   &catalog)
                   .ok())
      << "a negative per-event cost would invert the cost comparison";
  // A vertex stores its window count as int16_t.
  for (const char* bad : {"0", "-3", "32768", "4294967297", "1e300"}) {
    EXPECT_FALSE(workload::ParseWorkloadSpec(
                     std::string(R"({"queries": ["RETURN COUNT(*) PATTERN )"
                                 R"(Stock S+"], "engine": )"
                                 R"({"max_windows_per_event": )") +
                         bad + "}}",
                     &catalog)
                     .ok())
        << "max_windows_per_event " << bad;
  }
  // Burst phases: strict keys, sane ranges.
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "dataset": {"kind": "stock",
                                   "bursts": [{"begin": 0, "end": 5}]}})",
                   &catalog)
                   .ok());
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "dataset": {"kind": "stock",
                                   "bursts": [{"start": 9, "end": 5}]}})",
                   &catalog)
                   .ok());
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "dataset": {"kind": "stock",
                                   "bursts": [{"start": 0, "end": 5,
                                               "stock_multiplier": -1.0}]}})",
                   &catalog)
                   .ok());
}

TEST(WorkloadSpec, TelemetryBlockParsesStrictly) {
  Catalog catalog;
  RegisterStockTypes(&catalog);
  auto spec = workload::ParseWorkloadSpec(
      R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+ WITHIN 5 seconds"],
          "telemetry": {"enabled": false, "trace_capacity": 4096,
                        "sample_every": 8}})",
      &catalog);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_FALSE(spec.value().telemetry.enabled);
  EXPECT_EQ(spec.value().telemetry.trace_capacity, 4096u);
  EXPECT_EQ(spec.value().telemetry.sample_every, 8u);

  // Defaults without the block: enabled, standard ring.
  auto defaults = workload::ParseWorkloadSpec(
      R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+ WITHIN 5 seconds"]})",
      &catalog);
  ASSERT_TRUE(defaults.ok());
  EXPECT_TRUE(defaults.value().telemetry.enabled);
  EXPECT_EQ(defaults.value().telemetry.trace_capacity, 1024u);
  EXPECT_EQ(defaults.value().telemetry.sample_every, 1u);

  // Strict keys and value validation.
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "telemetry": {"enable": true}})",
                   &catalog)
                   .ok())
      << "typo'd telemetry key must be rejected";
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "telemetry": {"sample_every": 0}})",
                   &catalog)
                   .ok())
      << "a zero sampling period would divide by zero at every use";
}

TEST(WorkloadSpec, IngestBlockParsesStrictly) {
  Catalog catalog;
  RegisterStockTypes(&catalog);
  auto spec = workload::ParseWorkloadSpec(
      R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+ WITHIN 5 seconds"],
          "ingest": {"batch_size": 512, "sort_within_batch": true}})",
      &catalog);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().ingest.batch_size, 512u);
  EXPECT_TRUE(spec.value().ingest.sort_within_batch);

  // batch_size 0 is valid: it selects the scalar per-event Process path.
  auto scalar = workload::ParseWorkloadSpec(
      R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+ WITHIN 5 seconds"],
          "ingest": {"batch_size": 0}})",
      &catalog);
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  EXPECT_EQ(scalar.value().ingest.batch_size, 0u);

  // Defaults without the block.
  auto defaults = workload::ParseWorkloadSpec(
      R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+ WITHIN 5 seconds"]})",
      &catalog);
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.value().ingest.batch_size, 256u);
  EXPECT_FALSE(defaults.value().ingest.sort_within_batch);

  // Strict keys and value validation.
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "ingest": {"batchsize": 64}})",
                   &catalog)
                   .ok())
      << "typo'd ingest key must be rejected";
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "ingest": {"batch_size": -5}})",
                   &catalog)
                   .ok());
  EXPECT_FALSE(workload::ParseWorkloadSpec(
                   R"({"queries": ["RETURN COUNT(*) PATTERN Stock S+"],
                       "ingest": {"sort_within_batch": 1}})",
                   &catalog)
                   .ok())
      << "sort_within_batch must be a boolean";
}

TEST(WorkloadSpec, LoadedSpecDrivesShardedRuntime) {
  Catalog catalog;
  auto spec = workload::ParseWorkloadSpec(kFullSpec, &catalog);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  workload::WorkloadSpec& w = spec.value();
  ASSERT_TRUE(w.stock.has_value());
  Stream stream = GenerateStockStream(&catalog, *w.stock);

  auto rt = runtime::ShardedRuntime::Create(&catalog, w.queries, w.runtime);
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_EQ(rt.value()->num_shards(), 4u);
  for (const Event& e : stream.events()) {
    ASSERT_TRUE(rt.value()->Process(e).ok());
  }
  ASSERT_TRUE(rt.value()->Flush().ok());
  size_t rows = rt.value()->TakeResults().size();
  EXPECT_GT(rows, 0u);
}

TEST(WorkloadSpec, LoadsFromFile) {
  Catalog catalog;
  std::string path = ::testing::TempDir() + "/greta_workload_spec.json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(kFullSpec, 1, sizeof(kFullSpec) - 1, f);
  std::fclose(f);
  auto spec = workload::LoadWorkloadSpecFile(path, &catalog);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().queries.size(), 2u);
  std::remove(path.c_str());

  EXPECT_FALSE(
      workload::LoadWorkloadSpecFile("/nonexistent/x.json", &catalog).ok());
}

}  // namespace
}  // namespace greta
