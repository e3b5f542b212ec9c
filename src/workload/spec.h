#ifndef GRETA_WORKLOAD_SPEC_H_
#define GRETA_WORKLOAD_SPEC_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/catalog.h"
#include "common/event_batch.h"
#include "common/status.h"
#include "query/query.h"
#include "runtime/sharded_runtime.h"
#include "sharing/shared_engine.h"
#include "telemetry/telemetry.h"
#include "workload/stock.h"

namespace greta::workload {

/// A declarative workload artifact (ROADMAP "Query DSL for workloads", file
/// format half): ONE JSON file declaring N queries plus the engine, sharing
/// and sharded-runtime options to execute them with — so benches, examples,
/// tests and a future server all load the same artifact instead of each
/// hard-coding its own workload. Schema (all blocks optional except
/// `queries`):
///
///   {
///     "name": "grouped stock down-trends",
///     "queries": ["RETURN sector, COUNT(*) PATTERN Stock S+ ...", ...],
///     "engine": {
///       "counter_mode": "exact" | "modular",
///       "semantics": "skip-till-any-match" | "skip-till-next-match"
///                    | "contiguous",
///       "max_windows_per_event": 64,
///       "enable_tree_ranges": true, "enable_pruning": true,
///       "enable_specialized_kernels": true
///     },
///     "sharing": {
///       "enable_sharing": true, "enable_partial_sharing": true,
///       "min_cluster_size": 2
///     },
///     "adaptive": {
///       "enabled": true, "observation_windows": 4, "hysteresis": 1.5,
///       "min_windows_between_migrations": 8, "per_event_cost": 64.0
///     },
///     "runtime": {
///       "num_shards": 4, "batch_size": 256, "queue_capacity": 16,
///       "heartbeat_events": 1024
///     },
///     "ingest": {
///       "batch_size": 256, "sort_within_batch": false
///     },
///     "telemetry": {
///       "enabled": true, "trace_capacity": 1024, "sample_every": 1,
///       "serve": false, "http_port": 0
///     },
///     "dataset": {
///       "kind": "stock", "seed": 42, "rate": 200, "duration": 60,
///       "num_companies": 10, "num_sectors": 5, "drift": 0.5,
///       "volatility": 1.0, "start_price": 100.0, "halt_probability": 0.0,
///       "bursts": [{"start": 30, "end": 60, "stock_multiplier": 10.0,
///                   "halt_multiplier": 1.0}, ...]
///     }
///   }
///
/// The "adaptive" block configures the stats-driven re-planning loop
/// (sharing/adaptive_planner.h); "bursts" gives the stock dataset a
/// deterministic phase schedule of per-type rate multipliers — the load
/// shifts that trigger re-planning. "telemetry.serve" asks the driver to
/// start the embedded observability endpoint (telemetry/http_server.h) on
/// "http_port" (0 = ephemeral; the driver prints the bound port).
///
/// Unknown keys are rejected (typos in a workload file must not silently
/// fall back to defaults). A "dataset" of kind "stock" registers the stock
/// types in the catalog before the queries are parsed.
struct WorkloadSpec {
  std::string name;
  std::vector<std::string> query_texts;
  std::vector<QuerySpec> queries;
  /// Engine + sharing options ("engine" / "sharing" blocks); also embedded
  /// in `runtime.workload`, so both single-process and sharded execution
  /// read one source of truth.
  sharing::SharedEngineOptions options;
  /// Sharded-runtime options ("runtime" block), with `workload` = `options`.
  runtime::ShardedOptions runtime;
  /// Ingest batching ("ingest" block): how drivers pack the stream into
  /// columnar EventBatches before ProcessBatch (batch_size 0 = the scalar
  /// per-event Process path).
  IngestOptions ingest;
  /// Telemetry configuration ("telemetry" block). Apply it with
  /// `MetricRegistry::Default().Configure(spec.telemetry)` BEFORE building
  /// engines — instruments are cached at construction (telemetry.h).
  telemetry::TelemetryOptions telemetry;
  /// Present when the file declares a {"kind": "stock"} dataset.
  std::optional<StockConfig> stock;
};

/// Parses a workload spec from JSON text. Queries are parsed against
/// `catalog` (pre-registered types, or a "dataset" block that registers
/// them).
StatusOr<WorkloadSpec> ParseWorkloadSpec(std::string_view json,
                                         Catalog* catalog);

/// Reads and parses a workload spec file.
StatusOr<WorkloadSpec> LoadWorkloadSpecFile(const std::string& path,
                                            Catalog* catalog);

}  // namespace greta::workload

#endif  // GRETA_WORKLOAD_SPEC_H_
