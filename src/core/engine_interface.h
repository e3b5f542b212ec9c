#ifndef GRETA_CORE_ENGINE_INTERFACE_H_
#define GRETA_CORE_ENGINE_INTERFACE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/event_batch.h"
#include "common/status.h"
#include "core/aggregate.h"

namespace greta {

/// Event selection semantics (Table 1). Skip-till-any-match is the paper's
/// focus (all matches, exponentially many trends); the restricted semantics
/// establish fewer edges in the graph (Section 9):
///  - kSkipTillNextMatch: each stored event extends at most one later event
///    per transition (it skips only events it cannot match);
///  - kContiguous: adjacent trend events must be consecutive in the
///    (partitioned, vertex-filtered) stream seen by the graph.
enum class Semantics {
  kSkipTillAnyMatch,
  kSkipTillNextMatch,
  kContiguous,
};

/// One aggregation result: the aggregates of one group in one window.
struct ResultRow {
  WindowId wid = 0;
  std::vector<Value> group;  // values of the GROUP-BY attributes
  AggOutputs aggs;
};

/// Cumulative per-query execution tallies for EXPLAIN ANALYZE, flushed from
/// plain serial-path members at window close (never per-event atomics). In a
/// merged multi-query engine the structural work (events routed, vertices,
/// edges) is *cluster-attributed*: the graph is shared, so every member
/// query of the cluster reports the full cluster totals — exact for
/// dedicated (single-query) engines, an upper bound per query under sharing.
struct QueryExecStats {
  size_t query_id = 0;
  size_t windows_closed = 0;
  size_t events_routed = 0;
  size_t vertices_created = 0;
  size_t edges_traversed = 0;
  size_t rows_emitted = 0;      // exact per query even when merged
  uint64_t emit_ns = 0;         // window-close emission time (cluster-wide)
};

/// Counters common to all engines, reported by benchmarks.
struct EngineStats {
  size_t events_processed = 0;
  size_t vertices_stored = 0;
  size_t edges_traversed = 0;     // aggregate propagation steps (GRETA)
  size_t trends_constructed = 0;  // materialized trends (two-step baselines)
  size_t work_units = 0;          // abstract work, for budget enforcement
  size_t peak_bytes = 0;          // peak data structure footprint
  bool dnf = false;               // exceeded its work budget ("did not finish")
  // Batch-kernel coverage (GRETA columnar ingest): rows that went through an
  // amortized run kernel vs. rows that took the scalar row-wise fallback
  // (any reason — kernels disabled, restricted semantics, negation, NaN
  // bounds). Zero for scalar engines.
  size_t batch_rows_fast = 0;
  size_t batch_rows_fallback = 0;

  /// Adds `other`'s cumulative work counters (structure and kernel
  /// coverage) — the roll-up of runtimes built from several engines.
  void AddWork(const EngineStats& other) {
    vertices_stored += other.vertices_stored;
    edges_traversed += other.edges_traversed;
    work_units += other.work_units;
    batch_rows_fast += other.batch_rows_fast;
    batch_rows_fallback += other.batch_rows_fallback;
  }
};

/// Common interface of the GRETA engine and the two-step baselines (SASE,
/// CET, Flink-flat), so tests and benchmarks can swap them freely.
///
/// Contract: Process() must be called in non-decreasing time order; results
/// for a window are emitted once the watermark passes its close time (or at
/// Flush() for whatever remains) and are drained with TakeResults().
class EngineInterface {
 public:
  virtual ~EngineInterface() = default;

  virtual Status Process(const Event& e) = 0;

  /// Columnar ingest: processes every row of a time-ordered batch. The
  /// default materializes each row through Process(), so the two-step
  /// baselines accept batches unchanged; the GRETA engines override it with
  /// their native batch path (and make Process a one-row batch).
  virtual Status ProcessBatch(const EventBatch& batch) {
    for (size_t i = 0; i < batch.size(); ++i) {
      Status s = Process(batch.ToEvent(i));
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }

  virtual Status Flush() = 0;

  /// Drains emitted rows (ordered by window id, then group values).
  virtual std::vector<ResultRow> TakeResults() = 0;

  virtual const EngineStats& stats() const = 0;
  virtual const AggPlan& agg_plan() const = 0;
  virtual std::string name() const = 0;
};

/// Renders rows for humans: "wid=3 group=(Tech) COUNT(*)=43 ...".
std::string FormatRow(const ResultRow& row, const std::vector<AggSpec>& specs,
                      const Catalog& catalog);

/// Deterministic ordering used by every engine before emitting.
void SortRows(std::vector<ResultRow>* rows);

/// True when two result sets agree on counts (exact decimal), min/max/sum
/// (within tolerance), group keys and windows. Used to cross-validate
/// engines.
bool RowsEquivalent(const std::vector<ResultRow>& a,
                    const std::vector<ResultRow>& b, const AggPlan& plan,
                    std::string* diff);

}  // namespace greta

#endif  // GRETA_CORE_ENGINE_INTERFACE_H_
