#ifndef GRETA_SHARING_SHARED_ENGINE_H_
#define GRETA_SHARING_SHARED_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "sharing/sharing_planner.h"

namespace greta::sharing {

/// Options of the shared workload runtime: the engine options are applied
/// uniformly to every unit runtime (semantics, counter mode and window
/// limits are workload-level properties here), and the sharing options
/// drive the share/no-share plan.
///
/// `engine.memory`, when set, becomes the PARENT of the workload tracker:
/// the workload still accounts its own point-in-time peak, and every
/// allocation also rolls up into the caller's tracker (src/runtime/ sharded
/// execution aggregates per-shard workloads this way).
struct SharedEngineOptions {
  EngineOptions engine;
  SharingOptions sharing;
};

/// Multi-query shared execution runtime (after Hamlet's shared Kleene
/// sub-pattern graphs and EAGr's shared continuous aggregates): accepts a
/// workload of N parsed queries, clusters them by sharing fingerprint
/// (sharing_planner.h), and runs each shared cluster as ONE multi-query
/// GRETA runtime whose graph vertices carry query-indexed aggregate cells —
/// the stream is filtered, partitioned and connected once per cluster
/// instead of once per query. Queries that differ in pattern suffix or
/// window length but agree on a Kleene sub-pattern prefix run as one
/// *partially shared* runtime (GretaEngine::CreatePartial). Clusters the
/// cost model rejects run as dedicated per-query engines. Every cluster
/// runs the engines built at Create for the whole run.
///
/// EngineInterface contract: Process/Flush as usual; TakeResults() drains
/// every query's rows concatenated in query order (each query's rows keep
/// the window-then-group ordering); TakeResults(query_id) drains one query.
class SharedWorkloadEngine : public EngineInterface {
 public:
  static StatusOr<std::unique_ptr<SharedWorkloadEngine>> Create(
      const Catalog* catalog, const std::vector<QuerySpec>& workload,
      const SharedEngineOptions& options = {});

  /// Row ingest: a one-row batch through ProcessBatch.
  Status Process(const Event& e) override;

  /// Columnar ingest: hands the batch to every unit runtime.
  Status ProcessBatch(const EventBatch& batch) override;
  Status Flush() override;

  /// Watermark hook (src/runtime/): forwards to every unit runtime — see
  /// GretaEngine::AdvanceWatermark.
  Status AdvanceWatermark(Ts now);

  /// All queries' pending rows, concatenated in query-id order.
  std::vector<ResultRow> TakeResults() override;

  /// Pending rows of one query of the workload.
  std::vector<ResultRow> TakeResults(size_t query_id);

  /// The latest-closing grid `query_id`'s rows can EVER be emitted on: the
  /// query's own window. Dedicated, exact-shared and partial units all emit
  /// a query's window at its own close. External drivers
  /// (runtime/ResultMerger) gate deterministic emission on this.
  WindowSpec emission_window_bound(size_t query_id) const;

  /// Sums RecomputeTrackedBytes over unit runtimes (accounting invariant
  /// tests; must equal memory().current_bytes() when quiescent).
  size_t RecomputeTrackedBytes() const;

  /// Push-style delivery for EVERY query of the workload: `callback` fires
  /// with the workload query index for each result row the moment the
  /// unit runtime owning the query closes its window.
  void set_result_callback(
      std::function<void(size_t query_id, const ResultRow& row)> callback);

  size_t num_queries() const { return routes_.size(); }
  const SharingPlan& sharing_plan() const { return plan_; }
  const AggPlan& agg_plan_for(size_t query_id) const;

  /// Per-query EXPLAIN ANALYZE tallies for every query of the workload, in
  /// query-id order: the owning unit runtime's tallies (cluster-attributed
  /// under sharing — see QueryExecStats). O(queries); read at snapshot
  /// points, not per event.
  std::vector<QueryExecStats> query_exec_stats() const;

  /// Aggregated stats: events counted once; vertices/edges/work and kernel
  /// coverage summed over the unit runtimes; peak_bytes is the true
  /// point-in-time workload peak from the shared MemoryTracker, NOT a sum
  /// of per-unit peaks reached at different times.
  const EngineStats& stats() const override;
  const AggPlan& agg_plan() const override { return agg_plan_for(0); }
  std::string name() const override { return "SHARED"; }

  /// The workload-wide memory tracker every unit runtime accounts into.
  const MemoryTracker& memory() const { return memory_; }

 private:
  // One plan cluster: ONE merged runtime (merged == true) or one dedicated
  // engine per query in query_ids order.
  struct Cluster {
    std::vector<size_t> query_ids;
    bool merged = false;
    std::vector<std::unique_ptr<GretaEngine>> engines;
  };

  struct Route {
    size_t cluster = 0;
    size_t slot = 0;  // index within the cluster's query_ids
  };

  SharedWorkloadEngine() = default;

  GretaEngine* EngineFor(const Cluster& cluster, size_t slot) const;
  size_t EngineSlot(const Cluster& cluster, size_t slot) const;

  SharingPlan plan_;
  // Declared before clusters_: the unit engines hold pointers into the
  // tracker (EngineOptions::memory, "must outlive the engine"), so it must
  // be destroyed after them.
  MemoryTracker memory_;
  std::vector<Cluster> clusters_;
  std::vector<Route> routes_;
  size_t events_processed_ = 0;
  EventBatch row_scratch_;  // reused one-row batch of Process(e)
  mutable EngineStats stats_;
};

}  // namespace greta::sharing

#endif  // GRETA_SHARING_SHARED_ENGINE_H_
