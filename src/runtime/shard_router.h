#ifndef GRETA_RUNTIME_SHARD_ROUTER_H_
#define GRETA_RUNTIME_SHARD_ROUTER_H_

#include <string>
#include <vector>

#include "common/catalog.h"
#include "common/event.h"
#include "common/event_batch.h"
#include "common/simd.h"
#include "common/status.h"
#include "core/plan.h"
#include "query/query.h"

namespace greta::runtime {

/// Routes events to shards by hashing the workload's partition key — the
/// same GROUP-BY / equivalence attributes the engine's per-type route table
/// partitions the stream on (GretaEngine::RouteRun), resolved here once per
/// workload via the planner so the two can never disagree.
///
/// The shard key is the INTERSECTION of every query's partition key
/// attributes (order taken from query 0). Fixing a query's full partition
/// key fixes the shard key, so each (query, partition) lives on exactly one
/// shard and trends never span shards — the correctness condition for
/// partition-parallel execution (GRETA Section 7 / EAGr graph sharding).
///
/// Per event type, the decision is compiled into a dense table:
///  - the type carries every shard-key attribute  -> hash to one shard;
///  - the type misses some (e.g. Halt lacks `sector`) -> broadcast to all
///    shards, mirroring the engine's broadcast routing — each shard's
///    engine delivers it to its own matching partitions;
///  - the type is used by no query                -> drop.
///
/// When the intersection is empty (some query declares no GROUP-BY and no
/// equivalence attributes), the stream cannot be partitioned: the router
/// clamps to ONE shard and ShardOf returns 0 for every relevant event
/// (ExplainPlan prints the matching "sharding:" note per plan).
class ShardRouter {
 public:
  /// ShardOf sentinel: event type used by no query — skip it entirely.
  static constexpr int kDrop = -1;
  /// ShardOf sentinel: deliver to every shard (type lacks shard-key attrs).
  static constexpr int kBroadcast = -2;

  /// An empty router (routes nothing); assign from Create's result.
  ShardRouter() = default;

  /// Compiles the router for `workload` (each query is planned once to
  /// resolve its partition keys and relevant types, reusing the engine's
  /// own resolution rules). `num_shards` is clamped to 1 when the workload
  /// has no common partition key.
  static StatusOr<ShardRouter> Create(const std::vector<QuerySpec>& workload,
                                      const Catalog& catalog,
                                      size_t num_shards,
                                      const EngineOptions& options = {});

  /// Shard index for `e`, or kDrop / kBroadcast. Takes a borrowed view, so
  /// an owning `Event` and an `EventBatch` row route identically.
  int ShardOf(const EventRef& e) const {
    if (static_cast<size_t>(e.type) >= routes_.size() ||
        !routes_[e.type].relevant) {
      return kDrop;
    }
    if (num_shards_ == 1) return 0;
    const TypeRoute& route = routes_[e.type];
    if (!route.full) return kBroadcast;
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (AttrId id : route.ids) {
      h = h * 1099511628211ULL ^ e.attr(id).Hash();
    }
    // Avalanche finalizer (splitmix64): key values are often small and
    // correlated (sector = company % k), and the modulo below keeps only
    // the low bits — without mixing, whole shards can end up empty.
    return static_cast<int>(simd::SplitMix(h) % num_shards_);
  }

  /// Batch variant of ShardOf: writes one decision per row of `batch` into
  /// `out[0..batch.size())` — exactly ShardOf(batch.ref(i)) for every row.
  /// The per-key mixing stays scalar (it walks variant-typed Values), but
  /// the splitmix64 avalanche finalization runs as one bulk column pass
  /// (simd::SplitMixBulk) over all hashed rows at once. Reuses internal
  /// scratch, so calls must come from one thread at a time (the ingest
  /// thread).
  void ShardOfRows(const EventBatch& batch, int* out) const;

  /// Effective shard count (1 when the workload is not partitionable).
  size_t num_shards() const { return num_shards_; }

  /// False: no common partition key; everything routes to shard 0.
  bool partitioned() const { return partitioned_; }

  /// The shard-key attribute names (empty when not partitioned).
  const std::vector<std::string>& shard_key_attrs() const {
    return shard_key_attrs_;
  }

  /// Human-readable routing summary for examples and debug output.
  std::string ToString(const Catalog& catalog) const;

 private:
  struct TypeRoute {
    bool relevant = false;
    bool full = false;           // carries every shard-key attribute
    std::vector<AttrId> ids;     // positions of shard-key attrs in schema
  };

  size_t num_shards_ = 1;
  bool partitioned_ = false;
  std::vector<std::string> shard_key_attrs_;
  std::vector<TypeRoute> routes_;  // indexed by TypeId
  // ShardOfRows scratch: pre-finalization hashes of the rows that need one
  // (dense, so the bulk kernel runs gap-free) and their row indices.
  mutable std::vector<uint64_t> hash_scratch_;
  mutable std::vector<uint32_t> row_scratch_;
};

}  // namespace greta::runtime

#endif  // GRETA_RUNTIME_SHARD_ROUTER_H_
