#include "runtime/shard_router.h"

#include <algorithm>

namespace greta::runtime {

StatusOr<ShardRouter> ShardRouter::Create(
    const std::vector<QuerySpec>& workload, const Catalog& catalog,
    size_t num_shards, const EngineOptions& options) {
  if (workload.empty()) {
    return Status::InvalidArgument("sharded runtime needs at least one query");
  }
  if (num_shards == 0) num_shards = 1;

  // Plan each query once to resolve its partition-key attributes and the
  // set of event types it touches — the exact resolution the engine's route
  // table uses (planner.cc), so router and engine partition identically.
  std::vector<std::vector<std::string>> per_query_keys;
  std::vector<TypeId> relevant_types;
  per_query_keys.reserve(workload.size());
  for (const QuerySpec& spec : workload) {
    StatusOr<std::unique_ptr<ExecPlan>> plan =
        BuildPlan(spec, catalog, options);
    if (!plan.ok()) return plan.status();
    per_query_keys.push_back(plan.value()->key_attrs);
    for (const auto& [type, ids] : plan.value()->key_attr_ids) {
      (void)ids;
      relevant_types.push_back(type);
    }
  }

  // Shard key = intersection of every query's partition key, in query 0's
  // order (deterministic across runs and shard counts).
  ShardRouter router;
  for (const std::string& attr : per_query_keys[0]) {
    bool everywhere = true;
    for (size_t q = 1; q < per_query_keys.size(); ++q) {
      if (std::find(per_query_keys[q].begin(), per_query_keys[q].end(),
                    attr) == per_query_keys[q].end()) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) router.shard_key_attrs_.push_back(attr);
  }

  router.partitioned_ = !router.shard_key_attrs_.empty();
  router.num_shards_ = router.partitioned_ ? num_shards : 1;

  for (TypeId type : relevant_types) {
    if (static_cast<size_t>(type) >= router.routes_.size()) {
      router.routes_.resize(type + 1);
    }
    TypeRoute& route = router.routes_[type];
    if (route.relevant) continue;  // resolved for an earlier query
    route.relevant = true;
    route.full = true;
    const EventTypeDef& def = catalog.type(type);
    for (const std::string& attr : router.shard_key_attrs_) {
      AttrId id = def.FindAttr(attr);
      route.ids.push_back(id);
      route.full &= (id != kInvalidAttr);
    }
  }
  return router;
}

void ShardRouter::ShardOfRows(const EventBatch& batch, int* out) const {
  const size_t n = batch.size();
  hash_scratch_.clear();
  row_scratch_.clear();
  for (size_t i = 0; i < n; ++i) {
    const TypeId type = batch.type(i);
    if (static_cast<size_t>(type) >= routes_.size() ||
        !routes_[type].relevant) {
      out[i] = kDrop;
      continue;
    }
    if (num_shards_ == 1) {
      out[i] = 0;
      continue;
    }
    const TypeRoute& route = routes_[type];
    if (!route.full) {
      out[i] = kBroadcast;
      continue;
    }
    const EventRef e = batch.ref(i);
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (AttrId id : route.ids) {
      h = h * 1099511628211ULL ^ e.attr(id).Hash();
    }
    hash_scratch_.push_back(h);
    row_scratch_.push_back(static_cast<uint32_t>(i));
  }
  if (hash_scratch_.empty()) return;
  simd::SplitMixBulk(hash_scratch_.data(), hash_scratch_.size());
  for (size_t k = 0; k < hash_scratch_.size(); ++k) {
    out[row_scratch_[k]] =
        static_cast<int>(hash_scratch_[k] % num_shards_);
  }
}

std::string ShardRouter::ToString(const Catalog& catalog) const {
  std::string out = "shards: " + std::to_string(num_shards_);
  if (!partitioned_) {
    out += " (no common partition key; all events route to shard 0)";
    return out;
  }
  out += "; shard key:";
  for (const std::string& attr : shard_key_attrs_) out += " " + attr;
  for (size_t t = 0; t < routes_.size(); ++t) {
    if (!routes_[t].relevant) continue;
    out += "\n  " + catalog.type(static_cast<TypeId>(t)).name + ": ";
    out += routes_[t].full ? "hashed" : "broadcast (lacks shard-key attrs)";
  }
  return out;
}

}  // namespace greta::runtime
