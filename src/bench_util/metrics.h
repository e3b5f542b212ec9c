#ifndef GRETA_BENCH_UTIL_METRICS_H_
#define GRETA_BENCH_UTIL_METRICS_H_

#include <string>
#include <vector>

#include "common/stream.h"
#include "core/engine_interface.h"

namespace greta::bench {

/// Metrics of one engine run over one stream (Section 10.1):
///  - latency: arrival-to-emit distribution. Every event (or batch) is
///    stamped with its ingest tick on the way in; whenever a drain returns
///    at least one result row, the harness records (now - arrival of the
///    work just submitted) as one sample. p50/p95/p99 are exact
///    nearest-rank percentiles over those samples — not the old single
///    "peak call" number, which under per-batch draining only ever
///    measured the longest synchronous call. Batched runs against the
///    sharded runtime additionally stamp the batch's arrival column, so
///    the per-shard `greta_runtime_e2e_latency_ns` histograms fill with
///    the same ticks;
///  - throughput: events the engine accepted per second of total wall
///    time (a failed call's events are not counted);
///  - memory: peak bytes of the engine's runtime data structures.
struct RunResult {
  std::string engine;
  double total_seconds = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  size_t latency_samples = 0;
  double throughput_eps = 0.0;
  size_t peak_memory_bytes = 0;
  size_t rows_emitted = 0;
  bool dnf = false;
  /// Events fed through calls that returned OK.
  size_t events_accepted = 0;
  /// First non-OK status of Process/ProcessBatch/Flush; OK otherwise.
  Status status;
  EngineStats stats;
  /// JSON telemetry snapshot (exporters.h) captured right after the run,
  /// without the trace payload. Empty when telemetry is compiled out or
  /// runtime-disabled. The registry is process-wide, so a snapshot taken
  /// after several runs aggregates all of them — benches that want
  /// per-run numbers reset the registry between runs.
  std::string telemetry_json;

  /// "DNF" or a value with a unit, for table cells. LatencyCell prints the
  /// p99 ("-" when no window ever closed, so there are no samples).
  std::string LatencyCell() const;
  std::string MemoryCell() const;
  std::string ThroughputCell() const;
};

/// Rows per query of a workload: element q holds query q's rows in
/// emission order.
using QueryRows = std::vector<std::vector<ResultRow>>;

/// Replays `stream` through `engine` as fast as possible, measuring the
/// metrics above. `batch_size` 0 or 1 feeds one event per Process call;
/// larger sizes feed columnar batches through ProcessBatch, stamping each
/// batch's arrival column so runtimes that propagate it record true
/// end-to-end latency in telemetry. Results drain after every call, so
/// latency samples are per call. The run stops at the first failed call
/// (its status lands in `status`) or once the engine reports DNF.
///
/// Emitted rows are appended to `rows` when it is non-null. When
/// `query_rows` is non-null the drains go query by query
/// (TakeQueryResults) and each query's rows land in its own slot instead:
/// under shards a workload's concatenated drain order depends on thread
/// timing, each query's own order does not.
RunResult RunStream(EngineInterface* engine, const Stream& stream,
                    size_t batch_size, std::vector<ResultRow>* rows = nullptr,
                    QueryRows* query_rows = nullptr);

/// The query count, one query's pending rows and one query's aggregate plan
/// of the multi-query engines (GretaEngine slots, SharedWorkloadEngine,
/// ShardedRuntime); any other engine runs one query.
size_t NumQueries(const EngineInterface& engine);
std::vector<ResultRow> TakeQueryResults(EngineInterface* engine, size_t q);
const AggPlan& QueryAggPlan(const EngineInterface& engine, size_t q);

/// Human-friendly number formatting ("1.2M", "34.5k", "0.8").
std::string FormatCount(double value);
std::string FormatBytes(double bytes);
std::string FormatMillis(double ms);

}  // namespace greta::bench

#endif  // GRETA_BENCH_UTIL_METRICS_H_
