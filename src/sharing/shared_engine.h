#ifndef GRETA_SHARING_SHARED_ENGINE_H_
#define GRETA_SHARING_SHARED_ENGINE_H_

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "sharing/adaptive_planner.h"
#include "sharing/sharing_planner.h"

namespace greta::sharing {

/// Options of the shared workload runtime: the engine options are applied
/// uniformly to every unit runtime (semantics, counter mode and window
/// limits are workload-level properties here), the sharing options drive
/// the initial share/no-share plan, and the adaptive options turn the
/// plan-once pipeline into an observe -> re-plan loop (adaptive_planner.h).
///
/// `engine.memory`, when set, becomes the PARENT of the workload tracker:
/// the workload still accounts its own point-in-time peak, and every
/// allocation also rolls up into the caller's tracker (src/runtime/ sharded
/// execution aggregates per-shard workloads this way).
struct SharedEngineOptions {
  EngineOptions engine;
  SharingOptions sharing;
  AdaptiveOptions adaptive;
  /// Shard index stamped on this workload's telemetry series and lifecycle
  /// traces (`{shard="i",...}` labels); sharded runtimes (src/runtime/)
  /// pass their shard id so per-cluster gauges of different shards stay
  /// distinct series. Single-shard callers leave it 0.
  size_t telemetry_shard = 0;
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
/// cost model rejects run as dedicated per-query engines.
///
/// Adaptive re-planning (options.adaptive.enabled): the plan is no longer
/// baked in at construction. Every shareable cluster with a finite window
/// carries an AdaptiveClusterPlanner fed from the unit runtimes' per-window
/// observations (EngineInterface::TakeWindowObservations); when the
/// observed rates say the other mode wins by the hysteresis margin, the
/// cluster MIGRATES between one merged runtime and per-query dedicated
/// runtimes. A migration never copies graph state: at decision time
/// (watermark `T`) fresh engines are built and take over all windows
/// starting at or after `w_split = ceil(T / slide)`, while the old engines
/// keep running until every window starting before the boundary has closed
/// (the parallel HANDOVER, at most union-WITHIN ticks of double
/// processing), then retire. Rows are routed by window id — old engines
/// own `wid < w_split`, new engines `wid >= w_split` — so results stay
/// bit-identical to static execution.
///
/// Every engine of a cluster, old or new, emits query q's window w at q's
/// OWN close close_q(w), and nothing is held back during a handover. The
/// per-query order still holds: the cluster has one slide, so window ids
/// agree across engines, and for w < w_split
/// close_q(w) <= close_q(w_split - 1) < close_q(w_split). Every row range
/// and watermark reaches the retiring engines before the live ones, so
/// all of q's old rows are emitted before its first new row, and once the
/// clock passes close_q(w) every row of q's window w has been emitted.
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

  /// Columnar ingest: hands each row range of the batch to every retiring
  /// unit runtime, then every live one (GretaEngine::ProcessRows). Under
  /// adaptive re-planning the batch is split at the first row with
  /// `time >= adapt_wake_` and the adaptation step runs there, so
  /// observations and migrations land at exactly the row a one-event-at-a-
  /// time loop would take them; results do not depend on batch size.
  Status ProcessBatch(const EventBatch& batch) override;
  Status Flush() override;

  /// Watermark hook (src/runtime/): forwards to every unit runtime — see
  /// GretaEngine::AdvanceWatermark. Also drives the adaptation loop:
  /// observation steps complete and migrations start/retire at watermark
  /// boundaries, so per-shard adaptation is deterministic in the shard's
  /// event/watermark sequence.
  Status AdvanceWatermark(Ts now);

  /// All queries' pending rows, concatenated in query-id order.
  std::vector<ResultRow> TakeResults() override;

  /// Pending rows of one query of the workload.
  std::vector<ResultRow> TakeResults(size_t query_id);

  /// Workload-level per-window observations, grouped per cluster (one
  /// block of ascending window ids per cluster): window ids are relative
  /// to each cluster's own grid and never merged across clusters; events
  /// are de-duplicated (max) only within a cluster, structural counters
  /// summed.
  std::vector<WindowObservation> TakeWindowObservations() override;

  /// The latest-closing grid `query_id`'s rows can EVER be emitted on: the
  /// query's own window. Dedicated, exact-shared and partial units all emit
  /// a query's window at its own close, and an adaptive handover releases
  /// both generations' rows at that close too (class comment). External
  /// drivers (runtime/ResultMerger) gate deterministic emission on this.
  WindowSpec emission_window_bound(size_t query_id) const;

  /// Sums RecomputeTrackedBytes over unit runtimes (accounting invariant
  /// tests; must equal memory().current_bytes() when quiescent).
  size_t RecomputeTrackedBytes() const;

  /// Push-style delivery for EVERY query of the workload: `callback` fires
  /// with the workload query index for each result row the moment the
  /// engine owning its window closes it, during a migration handover too;
  /// the per-query (window, group) order is preserved across migrations
  /// (class comment).
  void set_result_callback(
      std::function<void(size_t query_id, const ResultRow& row)> callback);

  size_t num_queries() const { return routes_.size(); }
  const SharingPlan& sharing_plan() const { return plan_; }
  const AggPlan& agg_plan_for(size_t query_id) const;

  /// Per-query EXPLAIN ANALYZE tallies for every query of the workload, in
  /// query-id order: the owning unit runtime's tallies (cluster-attributed
  /// under sharing — see QueryExecStats) plus any in-flight handover
  /// engine's and the retired accumulator's, so migrations never lose
  /// observed work. O(queries); read at snapshot points, not per event.
  std::vector<QueryExecStats> query_exec_stats() const;

  /// Adaptation telemetry, one entry per plan cluster (in cluster order):
  /// current mode, applied migrations, observed rates and cost estimates.
  /// Clusters outside the loop (dedicated-only, unbounded windows,
  /// adaptation disabled) report zero migrations and their static mode.
  std::vector<AdaptationStats> adaptation_states() const;

  /// Total applied migrations across all clusters.
  size_t total_migrations() const;

  /// Aggregated stats: events counted once; vertices/edges/work and kernel
  /// coverage summed over LIVE unit runtimes plus the retired accumulator
  /// (engines retired by migrations keep their cumulative work — no
  /// counters are lost or double-counted when engines are created or
  /// retired mid-run);
  /// peak_bytes is the true point-in-time workload peak from the shared
  /// MemoryTracker, NOT a sum of per-unit peaks reached at different times.
  const EngineStats& stats() const override;
  const AggPlan& agg_plan() const override { return agg_plan_for(0); }
  std::string name() const override { return "SHARED"; }

  /// The workload-wide memory tracker every unit runtime accounts into.
  const MemoryTracker& memory() const { return memory_; }

 private:
  // Aggregation of unit observations for one window-grid step: events are
  // de-duplicated with max() (every engine of a cluster routes the same
  // relevant events), structural counters summed.
  struct PendingObservation {
    size_t events = 0;
    size_t vertices = 0;
    size_t edges = 0;
  };

  // One plan cluster's live execution state. The engines vector holds ONE
  // merged runtime (merged == true) or one dedicated engine per query in
  // query_ids order; during a handover the outgoing engines live in
  // `retiring` until every window they own has closed.
  struct ClusterState {
    size_t index = 0;  // position in the sharing plan (telemetry labels)
    std::vector<size_t> query_ids;
    bool merged = false;
    bool partial = false;  // merged unit built via CreatePartial
    std::vector<std::unique_ptr<GretaEngine>> engines;

    // Adaptation (nullopt: cluster is outside the re-planning loop).
    std::optional<AdaptiveClusterPlanner> planner;
    WindowSpec bound_window;  // union window: max WITHIN, shared slide
    bool obs_started = false;
    WindowId next_obs_wid = 0;
    std::unordered_map<WindowId, PendingObservation> obs_pending;

    // Handover state.
    std::vector<std::unique_ptr<GretaEngine>> retiring;
    bool retiring_merged = false;
    WindowId split_wid = 0;
    Ts retire_at = kMaxTs;
    size_t generation = 0;  // bumped per migration (callback routing)

    size_t migrations = 0;
    EngineStats retired_stats;  // cumulative counters of retired engines
    // Per-slot EXPLAIN tallies of retired engines (query_ids order),
    // accumulated by RetireOld alongside retired_stats.
    std::vector<QueryExecStats> retired_query_stats;

    // Per-cluster telemetry series (null when disarmed): execution mode
    // (0 = merged, 1 = dedicated) and the calibrated cost-model
    // coefficient, labeled {shard=,cluster=}.
    telemetry::Gauge* tm_mode = nullptr;
    telemetry::Gauge* tm_qhat = nullptr;

    bool handover_active() const { return !retiring.empty(); }
  };

  struct Route {
    size_t cluster = 0;
    size_t slot = 0;  // index within the cluster's query_ids
  };

  SharedWorkloadEngine() = default;

  Status BuildClusterEngines(ClusterState* cluster, bool merged,
                             std::vector<std::unique_ptr<GretaEngine>>* out);
  GretaEngine* EngineFor(const ClusterState& cluster, size_t slot) const;
  size_t EngineSlot(const ClusterState& cluster, size_t slot) const;
  void WireCluster(ClusterState* cluster);
  void AdaptStep(Ts now);
  void ObserveCluster(ClusterState* cluster, Ts now);
  Status StartMigration(ClusterState* cluster, ClusterMode target, Ts now);
  void RetireOld(ClusterState* cluster);
  void RecordWorkloadObservation(const WindowObservation& obs);

  const Catalog* catalog_ = nullptr;
  SharingPlan plan_;
  std::vector<QuerySpec> specs_;  // cloned workload (migrations recompile)
  EngineOptions unit_options_;    // memory rewired to memory_
  AdaptiveOptions adaptive_options_;
  bool adaptive_enabled_ = false;

  // Declared before clusters_: the unit engines hold pointers into the
  // tracker (EngineOptions::memory, "must outlive the engine"), so it must
  // be destroyed after them.
  MemoryTracker memory_;
  std::vector<std::unique_ptr<ClusterState>> clusters_;
  std::vector<Route> routes_;
  // Rows drained from retiring/new engines at handover completion, per
  // query, released ahead of live-engine rows (window order preserved).
  std::vector<std::vector<ResultRow>> holdover_;
  std::function<void(size_t, const ResultRow&)> callback_;
  size_t events_processed_ = 0;
  EventBatch row_scratch_;  // reused one-row batch of Process(e)
  Ts adapt_wake_ = kMaxTs;  // next time AdaptStep has work to do
  bool adapt_initialized_ = false;
  std::deque<WindowObservation> workload_obs_;
  mutable EngineStats stats_;

  // Workload-level telemetry (null when disarmed): applied migrations and
  // the planner lifecycle trace, stamped with the shard label/field.
  telemetry::Counter* tm_migrations_ = nullptr;
  // Workload observations dropped by the undrained-backlog cap (the same
  // series GretaEngine feeds for its own cap).
  telemetry::Counter* tm_obs_evicted_ = nullptr;
  telemetry::TraceRing* tm_trace_ = nullptr;
  uint16_t tm_shard_ = 0;
  void EmitClusterTrace(telemetry::TraceKind kind, const ClusterState& cluster,
                        Ts now) const;
};

}  // namespace greta::sharing

#endif  // GRETA_SHARING_SHARED_ENGINE_H_
