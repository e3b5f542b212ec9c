#ifndef GRETA_RUNTIME_OBSERVABILITY_H_
#define GRETA_RUNTIME_OBSERVABILITY_H_

#include <string>

#include "telemetry/http_server.h"

namespace greta::runtime {

class ShardedRuntime;

/// Registers the runtime-backed routes on an HttpServer (the registry
/// routes /metrics, /snapshot, /trace, /explain are built in):
///
///   /healthz       stall-detector verdict; 200 when healthy, 503 when any
///                  shard is wedged (frozen clock over a non-empty queue)
///   /queries       per-query EXPLAIN ANALYZE reports as a JSON array
///   /queries/<id>  one query's report
///
/// The handlers read only thread-safe surfaces (worker-refreshed snapshots
/// under snapshot_mu, atomic clocks, SPSC side counters, the immutable
/// sharing plan), so serving concurrent scrapes never perturbs result
/// determinism. `runtime` must outlive the server's Stop().
void AttachRuntimeObservability(telemetry::HttpServer* server,
                                ShardedRuntime* runtime);

/// JSON array of every query's EXPLAIN ANALYZE report (the /queries body).
std::string QueryReportsJson(const ShardedRuntime& runtime);

/// One query's JSON report: observed per-query tallies (events routed,
/// vertices created, edges traversed, rows emitted, emit time), the grid
/// the merger releases its rows on ("emission": within, slide, and "own",
/// or "union" should the gate ever differ from the query's window), joined
/// with the planner's ESTIMATES — the sharing planner's per-cluster
/// shared/independent cost — so estimated-vs-observed divergence is
/// visible per query. Empty string when `query_id` is out of range.
std::string QueryReportJson(const ShardedRuntime& runtime, size_t query_id);

/// Human-readable EXPLAIN ANALYZE for one query (the same join as
/// QueryReportJson, formatted for terminals; "unknown query" when out of
/// range).
std::string ExplainAnalyze(const ShardedRuntime& runtime, size_t query_id);

}  // namespace greta::runtime

#endif  // GRETA_RUNTIME_OBSERVABILITY_H_
