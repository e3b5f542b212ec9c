#ifndef GRETA_RUNTIME_RESULT_MERGER_H_
#define GRETA_RUNTIME_RESULT_MERGER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/engine_interface.h"
#include "query/query.h"

namespace greta::runtime {

/// Watermark-gated deterministic merge of per-shard result rows.
///
/// Every shard runs the SAME compiled plan over its slice of the stream, so
/// for one (query, window) each shard independently emits rows for the
/// groups whose partitions it owns; groups whose partitions span shards
/// appear on several (the partition key may extend the GROUP-BY key with
/// equivalence attributes). The merger:
///
///  1. collects rows staged by each shard's pinned worker (one lightly
///     contended mutex per shard — worker and harvester only);
///  2. gates emission on the LOW WATERMARK, the minimum over per-shard
///     ingest clocks published AFTER the shard staged everything it will
///     ever emit up to that clock — a window is merged only once every
///     shard's clock passed its close time on the query's emission grid;
///  3. merges a ready window's rows group-wise via AggOutputs::Merge in
///     ascending shard order, sorts with the engines' own SortRows, and
///     appends to the per-query ready queue in ascending window order.
///
/// The result is the single-threaded engine's emission order — (window,
/// group) ascending per query — independent of shard count and thread
/// timing. Counts (exact or modular) are bit-identical to single-threaded
/// execution because counter addition is associative and commutative;
/// MIN/MAX likewise; floating-point SUM/AVG can differ in the last ulp
/// because summation order over partitions differs (the single engine's own
/// partition iteration order is hash-map dependent too).
class ResultMerger {
 public:
  /// `emission_windows[q]` is the grid on which query q's unit runtime
  /// emits (its own window, under adaptive re-planning too);
  /// `agg_plans[q]` drives the group-wise merge.
  ResultMerger(size_t num_shards, std::vector<WindowSpec> emission_windows,
               std::vector<AggPlan> agg_plans);

  // --- shard-worker side (shard s's pinned worker only) ---

  /// Stages rows of `query` emitted by shard `shard`.
  void Stage(size_t shard, size_t query, std::vector<ResultRow> rows);

  /// Publishes shard `shard`'s ingest clock. Contract: every row the shard
  /// will ever emit for windows closing at or before `clock` has been
  /// staged first. kMaxTs after the shard flushed.
  void PublishClock(size_t shard, Ts clock);

  // --- caller side (the runtime's driver thread) ---

  /// Harvests staged rows and merges every window the low watermark has
  /// passed. Call before TakeReady.
  void Merge();

  /// Everything staged is final (all shards acked Flush): merge it all,
  /// including unbounded-window rows.
  void MarkFlushed();

  /// New events follow a Flush: windows are gated by clocks again.
  void ClearFlushed();

  /// Drains query `q`'s merged rows (ascending window, SortRows order).
  std::vector<ResultRow> TakeReady(size_t query);

  bool HasReady() const;

  size_t num_queries() const { return emission_windows_.size(); }
  const AggPlan& agg_plan(size_t query) const { return agg_plans_[query]; }
  const WindowSpec& emission_window(size_t query) const {
    return emission_windows_[query];
  }

  /// Minimum over published shard clocks (kMinTs before any publication).
  Ts low_watermark() const;

  /// Shard `shard`'s last published ingest clock (kMinTs before any
  /// publication). Lock-free; readable from any thread — the stall
  /// detector compares consecutive reads to spot a frozen shard.
  Ts shard_clock(size_t shard) const {
    return stages_[shard]->clock.load(std::memory_order_acquire);
  }

  /// Windows currently held back awaiting the low watermark, summed over
  /// queries (driver thread only; current as of the last Merge call) — the
  /// merger's hold-back depth.
  size_t pending_windows() const {
    size_t n = 0;
    for (const auto& per_query : pending_) n += per_query.size();
    return n;
  }

 private:
  struct ShardStage {
    std::mutex mu;
    std::vector<std::vector<ResultRow>> per_query;
    std::atomic<Ts> clock{kMinTs};
  };

  size_t num_shards_;
  std::vector<WindowSpec> emission_windows_;
  std::vector<AggPlan> agg_plans_;
  std::vector<std::unique_ptr<ShardStage>> stages_;

  // Driver-thread state: rows bucketed per (query, window, shard) awaiting
  // the low watermark, and the per-query ready queues.
  std::vector<std::map<WindowId, std::vector<std::vector<ResultRow>>>>
      pending_;
  std::vector<std::vector<ResultRow>> ready_;
  bool flushed_ = false;
};

}  // namespace greta::runtime

#endif  // GRETA_RUNTIME_RESULT_MERGER_H_
