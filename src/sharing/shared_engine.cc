#include "sharing/shared_engine.h"

#include <iterator>

namespace greta::sharing {

StatusOr<std::unique_ptr<SharedWorkloadEngine>> SharedWorkloadEngine::Create(
    const Catalog* catalog, const std::vector<QuerySpec>& workload,
    const SharedEngineOptions& options) {
  // Partial sharing leans on skip-till-any-match semantics (the restricted
  // semantics tie per-event bookkeeping to one query's structure); other
  // semantics fall back to exact sharing + dedicated runtimes.
  SharingOptions sharing = options.sharing;
  if (options.engine.semantics != Semantics::kSkipTillAnyMatch) {
    sharing.enable_partial_sharing = false;
  }
  StatusOr<SharingPlan> plan = PlanSharing(workload, *catalog, sharing);
  if (!plan.ok()) return plan.status();

  auto engine =
      std::unique_ptr<SharedWorkloadEngine>(new SharedWorkloadEngine());
  engine->plan_ = std::move(plan).value();
  engine->routes_.resize(workload.size());

  // Every unit runtime accounts into the workload-wide tracker so
  // stats().peak_bytes is a true point-in-time peak. A caller-provided
  // tracker becomes the parent: the workload keeps its own accounting and
  // rolls every allocation up (sharded runtimes aggregate shards this way).
  engine->memory_.set_parent(options.engine.memory);
  EngineOptions unit_options = options.engine;
  unit_options.memory = &engine->memory_;

  // One merged runtime for a shared cluster, else one engine per query.
  auto build = [&](const QueryCluster& cluster,
                   std::vector<std::unique_ptr<GretaEngine>>* out) -> Status {
    if (cluster.shared) {
      std::vector<const QuerySpec*> specs;
      specs.reserve(cluster.query_ids.size());
      for (size_t q : cluster.query_ids) specs.push_back(&workload[q]);
      StatusOr<std::unique_ptr<GretaEngine>> unit =
          cluster.partial
              ? GretaEngine::CreatePartial(catalog, specs, unit_options)
              : GretaEngine::CreateMulti(catalog, specs, unit_options);
      if (!unit.ok()) return unit.status();
      out->push_back(std::move(unit).value());
      return Status::Ok();
    }
    for (size_t q : cluster.query_ids) {
      StatusOr<std::unique_ptr<GretaEngine>> unit =
          GretaEngine::Create(catalog, workload[q], unit_options);
      if (!unit.ok()) return unit.status();
      out->push_back(std::move(unit).value());
    }
    return Status::Ok();
  };

  engine->clusters_.reserve(engine->plan_.clusters.size());
  for (size_t ci = 0; ci < engine->plan_.clusters.size(); ++ci) {
    QueryCluster& cluster = engine->plan_.clusters[ci];
    Cluster c;
    c.query_ids = cluster.query_ids;
    Status s = build(cluster, &c.engines);
    if (!s.ok()) {
      if (cluster.partial && s.code() == StatusCode::kUnsupported) {
        // A partial cluster the merged planner cannot execute (e.g. the
        // union window exceeds the per-event window limit) degrades to
        // dedicated runtimes instead of failing the workload. Any other
        // error means the pooling and the plan builder disagree — a bug
        // that must surface, not be silently papered over.
        cluster.shared = false;
        c.engines.clear();
        s = build(cluster, &c.engines);
      }
      if (!s.ok()) return s;
    }
    c.merged = cluster.shared;
    for (size_t slot = 0; slot < c.query_ids.size(); ++slot) {
      engine->routes_[c.query_ids[slot]] = {ci, slot};
    }
    engine->clusters_.push_back(std::move(c));
  }
  return engine;
}

GretaEngine* SharedWorkloadEngine::EngineFor(const Cluster& cluster,
                                             size_t slot) const {
  return cluster.merged ? cluster.engines[0].get()
                        : cluster.engines[slot].get();
}

size_t SharedWorkloadEngine::EngineSlot(const Cluster& cluster,
                                        size_t slot) const {
  return cluster.merged ? slot : 0;
}

void SharedWorkloadEngine::set_result_callback(
    std::function<void(size_t query_id, const ResultRow& row)> callback) {
  for (const Cluster& c : clusters_) {
    for (size_t slot = 0; slot < c.query_ids.size(); ++slot) {
      std::function<void(const ResultRow&)> push;
      if (callback) {
        push = [callback, qid = c.query_ids[slot]](const ResultRow& row) {
          callback(qid, row);
        };
      }
      EngineFor(c, slot)->set_result_callback(EngineSlot(c, slot),
                                              std::move(push));
    }
  }
}

Status SharedWorkloadEngine::Process(const Event& e) {
  row_scratch_.clear();
  row_scratch_.Append(e);
  return ProcessBatch(row_scratch_);
}

Status SharedWorkloadEngine::ProcessBatch(const EventBatch& batch) {
  if (!batch.time_ordered()) {
    return Status::InvalidArgument(
        "events must arrive in-order by timestamp (Section 2)");
  }
  for (Cluster& c : clusters_) {
    for (std::unique_ptr<GretaEngine>& unit : c.engines) {
      Status s = unit->ProcessBatch(batch);
      if (!s.ok()) return s;
    }
  }
  events_processed_ += batch.size();
  return Status::Ok();
}

Status SharedWorkloadEngine::Flush() {
  for (Cluster& c : clusters_) {
    for (std::unique_ptr<GretaEngine>& unit : c.engines) {
      Status s = unit->Flush();
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

Status SharedWorkloadEngine::AdvanceWatermark(Ts now) {
  for (Cluster& c : clusters_) {
    for (std::unique_ptr<GretaEngine>& unit : c.engines) {
      Status s = unit->AdvanceWatermark(now);
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

WindowSpec SharedWorkloadEngine::emission_window_bound(
    size_t query_id) const {
  GRETA_CHECK(query_id < routes_.size());
  const Route& route = routes_[query_id];
  const Cluster& c = clusters_[route.cluster];
  const ExecPlan& plan = EngineFor(c, route.slot)->plan();
  // A partial unit emits each query on its own window.
  if (plan.partial.has_value()) {
    return plan.partial->windows[EngineSlot(c, route.slot)];
  }
  return plan.window;
}

size_t SharedWorkloadEngine::RecomputeTrackedBytes() const {
  size_t bytes = 0;
  for (const Cluster& c : clusters_) {
    for (const std::unique_ptr<GretaEngine>& unit : c.engines) {
      bytes += unit->RecomputeTrackedBytes();
    }
  }
  return bytes;
}

std::vector<ResultRow> SharedWorkloadEngine::TakeResults() {
  std::vector<ResultRow> all;
  for (size_t q = 0; q < routes_.size(); ++q) {
    std::vector<ResultRow> rows = TakeResults(q);
    all.insert(all.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  return all;
}

std::vector<ResultRow> SharedWorkloadEngine::TakeResults(size_t query_id) {
  GRETA_CHECK(query_id < routes_.size());
  const Route& route = routes_[query_id];
  const Cluster& c = clusters_[route.cluster];
  return EngineFor(c, route.slot)->TakeResultsFor(EngineSlot(c, route.slot));
}

const AggPlan& SharedWorkloadEngine::agg_plan_for(size_t query_id) const {
  GRETA_CHECK(query_id < routes_.size());
  const Route& route = routes_[query_id];
  const Cluster& c = clusters_[route.cluster];
  const ExecPlan& plan = EngineFor(c, route.slot)->plan();
  return plan.query_aggs.empty() ? plan.agg
                                 : plan.query_aggs[EngineSlot(c, route.slot)];
}

std::vector<QueryExecStats> SharedWorkloadEngine::query_exec_stats() const {
  std::vector<QueryExecStats> out(routes_.size());
  for (size_t qid = 0; qid < routes_.size(); ++qid) {
    const Route& route = routes_[qid];
    const Cluster& c = clusters_[route.cluster];
    const std::vector<QueryExecStats>& unit =
        EngineFor(c, route.slot)->query_exec_stats();
    const size_t slot = EngineSlot(c, route.slot);
    if (slot < unit.size()) out[qid] = unit[slot];  // empty before 1st close
    out[qid].query_id = qid;
  }
  return out;
}

const EngineStats& SharedWorkloadEngine::stats() const {
  // Build the aggregate in a local and publish it in one assignment — the
  // mutable member never holds a half-accumulated state.
  EngineStats total;
  total.events_processed = events_processed_;
  for (const Cluster& c : clusters_) {
    for (const std::unique_ptr<GretaEngine>& unit : c.engines) {
      total.AddWork(unit->stats());
    }
  }
  // Peak memory comes from the shared tracker: summing per-unit peaks would
  // add maxima reached at different times and overstate the workload peak.
  total.peak_bytes = memory_.peak_bytes();
  stats_ = total;
  return stats_;
}

}  // namespace greta::sharing
