#ifndef GRETA_RUNTIME_SHARDED_RUNTIME_H_
#define GRETA_RUNTIME_SHARDED_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/memory.h"
#include "core/engine.h"
#include "runtime/health.h"
#include "runtime/result_merger.h"
#include "runtime/shard_router.h"
#include "runtime/spsc_queue.h"
#include "sharing/shared_engine.h"

namespace greta::runtime {

/// Options of the sharded parallel runtime.
struct ShardedOptions {
  /// Requested shard count; clamped to 1 when the workload has no common
  /// partition key (ShardRouter).
  size_t num_shards = 1;
  /// Events per ingest batch: a shard's pending events are enqueued to its
  /// SPSC queue once this many accumulate, or earlier when the stream
  /// crosses a window close (every shard's batch is pushed then, so the
  /// window is emitted at its close), on a heartbeat, or on Flush.
  size_t batch_size = 256;
  /// Per-shard ingest queue capacity, in batches; a full queue blocks the
  /// router (backpressure).
  size_t queue_capacity = 16;
  /// Every this many routed events the router flushes EVERY shard's pending
  /// batch (watermark-only for idle shards). Emission follows window
  /// closes, which run the same flush-all; the heartbeat is the backstop
  /// that keeps idle shards' clocks and the lag gauges fresh through long
  /// stretches between closes. 0 disables the backstop only.
  size_t heartbeat_events = 1024;
  /// Per-shard workload options. `engine.memory` is overwritten (each shard
  /// accounts into its own tracker, rolled up workload-wide).
  sharing::SharedEngineOptions workload;
};

/// Sharded parallel runtime: one workload executed across N shards
/// in-process, each shard owning a private engine over the full workload
/// and receiving the slice of the stream that hashes to it.
///
///   Process(e) ── ShardRouter ──> per-shard SPSC batch queues
///                                   │ (one worker thread per shard)
///                                   ▼
///                    GretaEngine / SharedWorkloadEngine per shard
///                    (own pane arenas, own MemoryTracker, rolled up)
///                                   │ rows + ingest clock
///                                   ▼
///            ResultMerger: low-watermark-gated deterministic merge
///
/// Because the shard key is (a prefix of) every query's partition key,
/// trends never span shards and each shard computes exactly the rows of its
/// partitions; the merger recombines them in deterministic (window, group)
/// order identical to single-threaded execution (see result_merger.h for
/// the floating-point caveat on SUM/AVG).
///
/// EngineInterface contract: Process() in non-decreasing time order;
/// TakeResults() drains merged rows whose windows the low watermark has
/// passed, every query concatenated in query order; Flush() blocks until
/// every shard drained its queue and flushed its engine. Workers never
/// touch the caller's thread; Process/Flush/TakeResults must come from one
/// driver thread at a time.
class ShardedRuntime : public EngineInterface {
 public:
  static StatusOr<std::unique_ptr<ShardedRuntime>> Create(
      const Catalog* catalog, const std::vector<QuerySpec>& workload,
      const ShardedOptions& options = {});

  ~ShardedRuntime() override;

  Status Process(const Event& e) override;
  /// Columnar ingest: routes the batch row-wise into per-shard columnar
  /// pending batches (no per-event Event materialization on the router
  /// side); shard workers then feed whole batches to their engine's native
  /// batch path. Row-for-row equivalent to calling Process on each row.
  Status ProcessBatch(const EventBatch& batch) override;
  Status Flush() override;

  /// Merged rows of every query whose windows are fully closed across all
  /// shards, concatenated in query order.
  std::vector<ResultRow> TakeResults() override;

  /// Merged ready rows of one query.
  std::vector<ResultRow> TakeResults(size_t query_id);

  size_t num_queries() const { return merger_->num_queries(); }
  /// Effective shard count (1 when the workload is not partitionable).
  size_t num_shards() const { return shards_.size(); }
  bool partitioned() const { return router_.partitioned(); }
  const ShardRouter& router() const { return router_; }

  /// The grid query `query_id`'s rows are released on (the merger's
  /// gate), and the query's own window. Every execution mode gates on the
  /// query's own window, so the two agree.
  const WindowSpec& emission_window(size_t query_id) const {
    return merger_->emission_window(query_id);
  }
  const WindowSpec& query_window(size_t query_id) const {
    return query_windows_[query_id];
  }

  /// Minimum over shard ingest clocks — emission is gated on it.
  Ts low_watermark() const { return merger_->low_watermark(); }

  /// Workload-wide memory roll-up (every shard's tracker is its child).
  const MemoryTracker& memory() const { return total_memory_; }
  /// Shard-local tracker (children of memory()).
  const MemoryTracker& shard_memory(size_t shard) const;
  /// Re-derives shard `shard`'s tracked bytes by walking its engine.
  /// Only valid while the runtime is quiescent (after Flush, before the
  /// next Process) — the walk is not synchronized with the shard worker.
  size_t RecomputeShardTrackedBytes(size_t shard) const;

  /// Always 0: every plan cluster runs the engines built at Create for the
  /// whole run, so no cluster ever switches plans. The method stays because
  /// the end-to-end benchmark (bench/e2e/greta_bench.cc) reports it as
  /// `sharing.migrations`.
  size_t TotalMigrations() const { return 0; }

  /// Ingest-queue pressure counters of shard `shard`, maintained inside the
  /// SPSC channel itself (readable any time, any thread).
  struct ShardQueueStats {
    size_t capacity = 0;
    /// Max occupancy (batches) ever observed right after a router push.
    size_t depth_high_watermark = 0;
    /// Router pushes that parked on a full ring (backpressure episodes).
    size_t producer_stalls = 0;
  };
  ShardQueueStats shard_queue_stats(size_t shard) const;

  /// One stall-detector observation over every shard (merger-published
  /// clocks + queue occupancy + producer stalls — all any-thread-safe
  /// reads). Stateful: a stall needs two consecutive observations with a
  /// frozen clock and a non-empty queue (see runtime/health.h), so the
  /// /healthz handler converges after two polls. Thread-safe.
  HealthReport CheckHealth();

  /// Per-query EXPLAIN ANALYZE tallies summed across shards, from the
  /// snapshots each worker refreshes after its last processed batch (same
  /// discipline as stats()). Every shard closes the same window grid over
  /// its slice, so windows_closed is the across-shard sum of closes and
  /// structural counters sum exactly like EngineStats. Thread-safe.
  std::vector<QueryExecStats> WorkloadQueryExecStats() const;

  /// The sharing plan compiled for every shard's workload runtime
  /// (immutable after Create; identical across shards), or nullptr for
  /// single-query workloads. Carries the planner's per-cluster cost
  /// ESTIMATES that EXPLAIN ANALYZE joins against observed work.
  const sharing::SharingPlan* sharing_plan() const;

  /// Test hook: wedges shard `shard`'s worker (it parks after its next
  /// queue pop, holding the batch unprocessed, clock frozen) until
  /// unpaused. Drives the stall detector's unhealthy path in tests.
  void SetShardPausedForTest(size_t shard, bool paused);

  /// Aggregated stats: events counted at the router; vertices / edges /
  /// work and kernel coverage summed over per-shard snapshots (taken by
  /// each worker after its last processed batch); peak_bytes from the
  /// workload roll-up tracker.
  const EngineStats& stats() const override;
  const AggPlan& agg_plan() const override { return merger_->agg_plan(0); }
  const AggPlan& agg_plan_for(size_t query_id) const {
    return merger_->agg_plan(query_id);
  }
  std::string name() const override { return "SHARDED"; }

 private:
  // The unit shipped through a shard's SPSC queue. `events` is columnar:
  // the router appends rows column-wise and the worker hands the whole
  // batch to the engine's native batch path. A default-constructed batch
  // with empty events is a watermark-only heartbeat.
  struct Batch {
    EventBatch events;
    Ts watermark = kMinTs;
    bool flush = false;
  };

  struct Shard {
    std::unique_ptr<MemoryTracker> memory;  // child of total_memory_
    // Exactly one of the two engines is set: a plain GRETA runtime for
    // single-query workloads, the sharing-planned workload runtime else.
    std::unique_ptr<GretaEngine> greta;
    std::unique_ptr<sharing::SharedWorkloadEngine> shared;
    std::unique_ptr<SpscQueue<Batch>> queue;
    EventBatch pending;  // router side, pre-batch (columnar)
    std::mutex snapshot_mu;
    EngineStats stats_snapshot;
    Status error = Status::Ok();  // guarded by snapshot_mu
    // Worker-refreshed observability snapshots (guarded by snapshot_mu):
    // read by HTTP scrape threads, never by the hot path.
    std::vector<QueryExecStats> query_stats_snapshot;

    // Test hook (SetShardPausedForTest): worker parks after its next pop.
    std::atomic<bool> paused{false};
    // Arrival tick of the newest batch this worker finished processing
    // (0 until a stamped batch arrives) — real-clock watermark lag input.
    std::atomic<uint64_t> processed_arrival_ns{0};

    // Telemetry series (null when disarmed), mirrored by the router at
    // batch-flush granularity; tm_stalls_seen tracks the last mirrored
    // cumulative stall count (router thread only).
    telemetry::Gauge* tm_depth_hwm = nullptr;
    telemetry::Counter* tm_stalls = nullptr;
    telemetry::Histogram* tm_batch_events = nullptr;
    telemetry::Histogram* tm_e2e = nullptr;  // arrival -> emit, worker side
    size_t tm_stalls_seen = 0;
  };

  ShardedRuntime() = default;

  void DrainLoop(size_t shard_index);
  // Stages drained rows with the merger; returns how many rows were staged
  // (the e2e latency recorder only samples batches that emitted).
  size_t DrainShardResults(size_t shard_index, Shard* shard);
  // Appends one routed event (and its arrival tick when non-zero) to its
  // shard(s)' pending batch, flushing any batch that reached batch_size.
  // Shared by Process and ProcessBatch.
  void RouteOne(const EventRef& e, uint64_t arrival_ns);
  // Same, with the routing decision (ShardOf's result) precomputed —
  // ProcessBatch resolves the whole batch up front through the router's
  // bulk-finalized ShardOfRows and feeds the decisions here row by row.
  void DeliverRouted(const EventRef& e, uint64_t arrival_ns, int target);
  // Per routed row: runs FlushAllShards when the row crossed a window
  // close (clock_ >= next_close_) or the heartbeat count came due.
  void MaybeHeartbeat();
  // The one flush-all, shared by close crossings and heartbeats: pushes
  // every shard's pending batch stamped with clock_ (watermark-only for
  // idle shards), resets the heartbeat count, recomputes next_close_ and
  // refreshes the watermark telemetry.
  void FlushAllShards();
  // Earliest close strictly after clock_ over every query's emission grid
  // (the merger's gating grids); kMaxTs when every window is unbounded.
  Ts NextWindowClose() const;
  void FlushShardBatch(size_t shard_index, bool flush);
  Status FirstShardError() const;
  // Updates the watermark-lag gauge and emits a kWatermarkAdvance trace
  // when the low watermark moved (flush-all / Flush granularity).
  void TelemetryHeartbeat();

  const Catalog* catalog_ = nullptr;
  ShardRouter router_;
  ShardedOptions options_;
  std::vector<int> route_scratch_;  // per-row ShardOfRows decisions

  // Workers reference shards_ and merger_: the destructor closes every
  // queue and joins workers_ before any member is destroyed.
  MemoryTracker total_memory_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ResultMerger> merger_;
  std::vector<WindowSpec> query_windows_;  // per query, from its spec

  // Router-side stream state.
  Ts clock_ = kMinTs;
  bool saw_events_ = false;
  size_t events_since_heartbeat_ = 0;
  Ts next_close_ = kMaxTs;  // see NextWindowClose
  size_t events_processed_ = 0;

  // Flush rendezvous.
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  size_t flush_acks_ = 0;
  size_t flush_target_ = 0;

  std::atomic<bool> any_error_{false};
  std::atomic<bool> shutting_down_{false};  // releases paused workers
  mutable EngineStats stats_;

  // Stall-detector state (mutex: /healthz scrapes may overlap).
  std::mutex health_mu_;
  StallDetector stall_detector_;

  // Runtime-wide telemetry (null when disarmed).
  telemetry::Gauge* tm_watermark_lag_ = nullptr;
  telemetry::Gauge* tm_watermark_lag_ns_ = nullptr;  // real-clock lag
  telemetry::Gauge* tm_merger_holdback_ = nullptr;
  telemetry::TraceRing* tm_trace_ = nullptr;
  Ts tm_last_low_wm_ = kMinTs;  // router thread only
  // Stamp arrivals at the router when telemetry wants e2e latency even if
  // the caller's batches carry no arrival column.
  bool tm_stamp_arrivals_ = false;

  // One DrainLoop per shard, running until its queue is closed; declared
  // last, after everything the loops touch.
  std::vector<std::thread> workers_;
};

}  // namespace greta::runtime

#endif  // GRETA_RUNTIME_SHARDED_RUNTIME_H_
