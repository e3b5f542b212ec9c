#include "sharing/shared_engine.h"

#include <algorithm>
#include <map>

#include "storage/window.h"
#include "telemetry/telemetry.h"

namespace greta::sharing {

namespace {

#if GRETA_TELEMETRY
// Mode gauge encoding: 0 = merged (one shared runtime), 1 = dedicated.
double ModeGaugeValue(bool merged) { return merged ? 0.0 : 1.0; }
#endif

// Static shape of the observed-rate cost model (adaptive_planner.h).
// Per-edge-window work units: a dedicated engine pays one scan/predicate
// step plus one aggregate cell per edge-window over its OWN window range;
// the merged runtime pays one scan step plus its cell row — n cells for an
// exact cluster, one snapshot plus one fold per attribute-aggregating
// query for a partial cluster — over the UNION range.
ClusterShape ComputeShape(const std::vector<size_t>& query_ids, bool partial,
                          const WindowSpec& bound,
                          const std::vector<QuerySpec>& specs) {
  ClusterShape shape;
  shape.num_queries = query_ids.size();
  shape.dedicated_passes = static_cast<double>(query_ids.size());
  const double ku = static_cast<double>(MaxWindowsPerEvent(bound));
  double merged_cells;
  if (partial) {
    size_t folds = 0;
    for (size_t q : query_ids) {
      bool has_attr_agg = false;
      for (const AggSpec& agg : specs[q].aggs) {
        has_attr_agg |= (agg.kind != AggKind::kCountStar);
      }
      folds += has_attr_agg ? 1 : 0;
    }
    merged_cells = 1.0 + static_cast<double>(folds);
  } else {
    merged_cells = static_cast<double>(query_ids.size());
  }
  shape.merged_quad = (1.0 + merged_cells) * ku * ku;
  shape.dedicated_quad = 0.0;
  for (size_t q : query_ids) {
    const double kq =
        static_cast<double>(MaxWindowsPerEvent(specs[q].window));
    shape.dedicated_quad += 2.0 * kq * kq;
  }
  return shape;
}

}  // namespace

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
  engine->catalog_ = catalog;
  engine->plan_ = std::move(plan).value();
  engine->routes_.resize(workload.size());
  engine->holdover_.resize(workload.size());
  engine->specs_.reserve(workload.size());
  for (const QuerySpec& spec : workload) {
    engine->specs_.push_back(spec.Clone());
  }
  engine->adaptive_options_ = options.adaptive;

  // Every unit runtime accounts into the workload-wide tracker so
  // stats().peak_bytes is a true point-in-time peak. A caller-provided
  // tracker becomes the parent: the workload keeps its own accounting and
  // rolls every allocation up (sharded runtimes aggregate shards this way).
  engine->memory_.set_parent(options.engine.memory);
  engine->unit_options_ = options.engine;
  engine->unit_options_.memory = &engine->memory_;

#if GRETA_TELEMETRY
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  engine->tm_shard_ = static_cast<uint16_t>(options.telemetry_shard);
  engine->tm_migrations_ = reg.CounterIf(telemetry::Labeled(
      "greta_sharing_migrations_total", "shard", options.telemetry_shard));
  engine->tm_obs_evicted_ =
      reg.CounterIf("greta_window_observations_evicted_total");
  engine->tm_trace_ = reg.TraceIf();
#endif

  for (size_t ci = 0; ci < engine->plan_.clusters.size(); ++ci) {
    QueryCluster& cluster = engine->plan_.clusters[ci];
    auto cs = std::make_unique<ClusterState>();
    cs->index = ci;
    cs->query_ids = cluster.query_ids;
    cs->merged = cluster.shared;
    cs->partial = cluster.partial;
    Status s = engine->BuildClusterEngines(cs.get(), cs->merged,
                                           &cs->engines);
    if (!s.ok()) {
      if (cluster.partial && s.code() == StatusCode::kUnsupported) {
        // A partial cluster the merged planner cannot execute (e.g. the
        // union window exceeds the per-event window limit) degrades to
        // dedicated runtimes instead of failing the workload. Any other
        // error means the pooling and the plan builder disagree — a bug
        // that must surface, not be silently papered over.
        cluster.shared = false;
        cs->merged = false;
        cs->partial = false;
        cs->engines.clear();
        s = engine->BuildClusterEngines(cs.get(), false, &cs->engines);
      }
      if (!s.ok()) return s;
    }

    // Adaptive eligibility: a shareable cluster of >= 2 queries over
    // bounded, equal-slide windows. Everything else stays on its static
    // plan (there is either no alternative mode or no safe boundary).
    if (options.adaptive.enabled && cluster.shared &&
        cs->query_ids.size() >= 2) {
      bool windows_ok = true;
      Ts slide = 0;
      Ts max_within = 0;
      for (size_t q : cs->query_ids) {
        const WindowSpec& w = engine->specs_[q].window;
        if (w.unbounded() || w.slide <= 0) {
          windows_ok = false;
          break;
        }
        if (slide == 0) slide = w.slide;
        windows_ok &= (w.slide == slide);
        max_within = std::max(max_within, w.within);
      }
      if (windows_ok) {
        cs->bound_window = WindowSpec::Sliding(max_within, slide);
        ClusterShape shape = ComputeShape(cs->query_ids, cs->partial,
                                          cs->bound_window, engine->specs_);
        cs->planner.emplace(shape, ClusterMode::kMerged, options.adaptive);
        engine->adaptive_enabled_ = true;
      }
    }

#if GRETA_TELEMETRY
    cs->tm_mode = reg.GaugeIf(telemetry::Labeled(
        "greta_sharing_cluster_mode", "shard", options.telemetry_shard,
        "cluster", ci));
    GRETA_TM_SET(cs->tm_mode, ModeGaugeValue(cs->merged));
    if (cs->planner.has_value()) {
      cs->tm_qhat = reg.GaugeIf(telemetry::Labeled(
          "greta_sharing_q_hat", "shard", options.telemetry_shard, "cluster",
          ci));
    }
#endif

    for (size_t slot = 0; slot < cs->query_ids.size(); ++slot) {
      engine->routes_[cs->query_ids[slot]] = {ci, slot};
    }
    engine->clusters_.push_back(std::move(cs));
  }
  return engine;
}

// One lifecycle trace entry for cluster `c`: the payload convention is
// wid = split window (handover) or next observation window, a = mode
// (0 merged / 1 dedicated), b = applied migrations, x/y = the cost model's
// latest merged/dedicated estimates (edge-op units per grid step).
void SharedWorkloadEngine::EmitClusterTrace(telemetry::TraceKind kind,
                                            const ClusterState& c,
                                            Ts now) const {
#if GRETA_TELEMETRY
  if (tm_trace_ == nullptr) return;
  telemetry::TraceEvent e;
  e.kind = kind;
  e.shard = tm_shard_;
  e.cluster = static_cast<uint32_t>(c.index);
  e.ts = now;
  e.wid = static_cast<int64_t>(c.handover_active() ? c.split_wid
                                                   : c.next_obs_wid);
  e.a = c.merged ? 0 : 1;
  e.b = c.migrations;
  if (c.planner.has_value()) {
    const AdaptationStats& s = c.planner->stats();
    e.x = s.cost_merged;
    e.y = s.cost_dedicated;
  }
  tm_trace_->Emit(e);
#else
  (void)kind;
  (void)c;
  (void)now;
#endif
}

Status SharedWorkloadEngine::BuildClusterEngines(
    ClusterState* cluster, bool merged,
    std::vector<std::unique_ptr<GretaEngine>>* out) {
  if (merged) {
    std::vector<const QuerySpec*> specs;
    specs.reserve(cluster->query_ids.size());
    for (size_t q : cluster->query_ids) specs.push_back(&specs_[q]);
    StatusOr<std::unique_ptr<GretaEngine>> unit =
        cluster->partial
            ? GretaEngine::CreatePartial(catalog_, specs, unit_options_)
            : GretaEngine::CreateMulti(catalog_, specs, unit_options_);
    if (!unit.ok()) return unit.status();
    out->push_back(std::move(unit).value());
    return Status::Ok();
  }
  for (size_t q : cluster->query_ids) {
    StatusOr<std::unique_ptr<GretaEngine>> unit =
        GretaEngine::Create(catalog_, specs_[q], unit_options_);
    if (!unit.ok()) return unit.status();
    out->push_back(std::move(unit).value());
  }
  return Status::Ok();
}

GretaEngine* SharedWorkloadEngine::EngineFor(const ClusterState& cluster,
                                             size_t slot) const {
  return cluster.merged ? cluster.engines[0].get()
                        : cluster.engines[slot].get();
}

size_t SharedWorkloadEngine::EngineSlot(const ClusterState& cluster,
                                        size_t slot) const {
  return cluster.merged ? slot : 0;
}

void SharedWorkloadEngine::set_result_callback(
    std::function<void(size_t query_id, const ResultRow& row)> callback) {
  callback_ = std::move(callback);
  for (std::unique_ptr<ClusterState>& cluster : clusters_) {
    WireCluster(cluster.get());
  }
}

void SharedWorkloadEngine::WireCluster(ClusterState* cluster) {
  if (!callback_) return;
  // Push-delivery discipline across migrations: each engine fires only for
  // the windows it owns — the retiring generation wid < split, the live one
  // wid >= split — the moment it closes them; everything else is a
  // boundary remnant and is dropped. Per query, the old engines' rows still
  // come first: see the ordering argument on the class comment. `gen`
  // freezes the engine's role: engines keep their wrapper when they move
  // from live to retiring.
  auto wire = [this, cluster](GretaEngine* engine, size_t engine_slot,
                              size_t qid, size_t gen) {
    engine->set_result_callback(
        engine_slot, [this, cluster, qid, gen](const ResultRow& row) {
          if (!callback_) return;
          const bool live = gen == cluster->generation;
          if (live != (row.wid >= cluster->split_wid)) return;
          callback_(qid, row);
        });
  };
  for (size_t slot = 0; slot < cluster->query_ids.size(); ++slot) {
    wire(EngineFor(*cluster, slot), EngineSlot(*cluster, slot),
         cluster->query_ids[slot], cluster->generation);
  }
  for (size_t i = 0; i < cluster->retiring.size(); ++i) {
    const size_t old_gen = cluster->generation - 1;
    if (cluster->retiring_merged) {
      for (size_t slot = 0; slot < cluster->query_ids.size(); ++slot) {
        wire(cluster->retiring[0].get(), slot, cluster->query_ids[slot],
             old_gen);
      }
      break;
    }
    wire(cluster->retiring[i].get(), 0, cluster->query_ids[i], old_gen);
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
  const std::vector<Ts>& times = batch.times();
  size_t i = 0;
  while (i < batch.size()) {
    size_t j = batch.size();
    if (adaptive_enabled_) {
      // Adaptation steps run before the first row at or past the wake time,
      // once every unit has processed every earlier row — exactly where a
      // row-at-a-time loop would take them. No step runs inside [i, j), so
      // handover state (and push-callback routing) is fixed per range.
      if (!adapt_initialized_ || times[i] >= adapt_wake_) AdaptStep(times[i]);
      j = std::lower_bound(times.begin() + i + 1, times.end(), adapt_wake_) -
          times.begin();
    }
    for (std::unique_ptr<ClusterState>& cluster : clusters_) {
      for (std::unique_ptr<GretaEngine>& unit : cluster->retiring) {
        Status s = unit->ProcessRows(batch, i, j);
        if (!s.ok()) return s;
      }
      for (std::unique_ptr<GretaEngine>& unit : cluster->engines) {
        Status s = unit->ProcessRows(batch, i, j);
        if (!s.ok()) return s;
      }
    }
    events_processed_ += j - i;
    i = j;
  }
  return Status::Ok();
}

Status SharedWorkloadEngine::Flush() {
  for (std::unique_ptr<ClusterState>& cluster : clusters_) {
    for (std::unique_ptr<GretaEngine>& unit : cluster->retiring) {
      Status s = unit->Flush();
      if (!s.ok()) return s;
    }
    for (std::unique_ptr<GretaEngine>& unit : cluster->engines) {
      Status s = unit->Flush();
      if (!s.ok()) return s;
    }
    // Flush emits every window up to the stream watermark on old and new
    // engines alike, so the handover has nothing left to wait for.
    if (cluster->handover_active()) RetireOld(cluster.get());
  }
  return Status::Ok();
}

Status SharedWorkloadEngine::AdvanceWatermark(Ts now) {
  if (adaptive_enabled_ && adapt_initialized_ && now >= adapt_wake_) {
    AdaptStep(now);
  }
  for (std::unique_ptr<ClusterState>& cluster : clusters_) {
    for (std::unique_ptr<GretaEngine>& unit : cluster->retiring) {
      Status s = unit->AdvanceWatermark(now);
      if (!s.ok()) return s;
    }
    for (std::unique_ptr<GretaEngine>& unit : cluster->engines) {
      Status s = unit->AdvanceWatermark(now);
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

void SharedWorkloadEngine::AdaptStep(Ts now) {
  if (!adapt_initialized_) {
    for (std::unique_ptr<ClusterState>& cluster : clusters_) {
      if (!cluster->planner.has_value()) continue;
      cluster->next_obs_wid = FirstWindowOf(now, cluster->bound_window);
      cluster->obs_started = true;
    }
    adapt_initialized_ = true;
  }
  adapt_wake_ = kMaxTs;
  for (std::unique_ptr<ClusterState>& cluster : clusters_) {
    ClusterState* c = cluster.get();
    if (!c->planner.has_value()) continue;
    // Close every due window first so the observations below are current:
    // identical to what Process(e at `now`) would do before routing.
    for (std::unique_ptr<GretaEngine>& unit : c->retiring) {
      unit->AdvanceWatermark(now);
    }
    for (std::unique_ptr<GretaEngine>& unit : c->engines) {
      unit->AdvanceWatermark(now);
    }
    if (c->handover_active() && now >= c->retire_at) RetireOld(c);

    ObserveCluster(c, now);
    GRETA_TM_SET(c->tm_qhat, c->planner->stats().q_hat);

    if (!c->handover_active()) {
      ClusterMode target = c->planner->Decide();
      ClusterMode current =
          c->merged ? ClusterMode::kMerged : ClusterMode::kDedicated;
      EmitClusterTrace(telemetry::TraceKind::kPlanDecision, *c, now);
      if (target != current) {
        // A failed rebuild here would mean the same specs that compiled at
        // Create no longer compile — surface it loudly rather than limp on
        // with a half-migrated cluster.
        Status s = StartMigration(c, target, now);
        GRETA_CHECK(s.ok());
      }
    }

    Ts wake = WindowCloseTime(c->next_obs_wid, c->bound_window);
    if (c->handover_active()) wake = std::min(wake, c->retire_at);
    adapt_wake_ = std::min(adapt_wake_, wake);
  }
}

void SharedWorkloadEngine::ObserveCluster(ClusterState* c, Ts now) {
  // Only LIVE engines feed the planner: during a handover the retiring
  // engines process the same events again, and counting that transient
  // double work would distort the calibration right after a migration.
  for (std::unique_ptr<GretaEngine>& unit : c->engines) {
    for (const WindowObservation& obs : unit->TakeWindowObservations()) {
      if (obs.wid < c->next_obs_wid) continue;  // stale (handover remnant)
      PendingObservation& p = c->obs_pending[obs.wid];
      p.events = std::max(p.events, obs.events_routed);
      p.vertices += obs.vertices_created;
      p.edges += obs.edges_traversed;
    }
  }
  while (c->obs_started &&
         WindowCloseTime(c->next_obs_wid, c->bound_window) <= now) {
    WindowObservation step;
    step.wid = c->next_obs_wid;
    step.close_time = WindowCloseTime(c->next_obs_wid, c->bound_window);
    auto it = c->obs_pending.find(c->next_obs_wid);
    if (it != c->obs_pending.end()) {
      step.events_routed = it->second.events;
      step.vertices_created = it->second.vertices;
      step.edges_traversed = it->second.edges;
      c->obs_pending.erase(it);
    }
    c->planner->Observe(step);
    RecordWorkloadObservation(step);
    ++c->next_obs_wid;
  }
}

Status SharedWorkloadEngine::StartMigration(ClusterState* c,
                                            ClusterMode target, Ts now) {
  const Ts slide = c->bound_window.slide;
  // First window starting at or after `now`: the new engines own it and
  // everything later; the old engines own everything before it.
  const WindowId split = now <= 0 ? 0 : (now + slide - 1) / slide;

  std::vector<std::unique_ptr<GretaEngine>> fresh;
  const bool to_merged = (target == ClusterMode::kMerged);
  Status s = BuildClusterEngines(c, to_merged, &fresh);
  if (!s.ok()) return s;

  c->retiring = std::move(c->engines);
  c->retiring_merged = c->merged;
  c->engines = std::move(fresh);
  c->merged = to_merged;
  c->split_wid = split;
  c->retire_at =
      split >= 1 ? WindowCloseTime(split - 1, c->bound_window) : now;
  ++c->generation;
  ++c->migrations;
  c->planner->OnMigrationApplied(target);
  GRETA_TM_ADD(tm_migrations_, 1);
  GRETA_TM_SET(c->tm_mode, ModeGaugeValue(c->merged));
  EmitClusterTrace(telemetry::TraceKind::kMigrationStart, *c, now);
  WireCluster(c);
  if (now >= c->retire_at) RetireOld(c);
  return Status::Ok();
}

void SharedWorkloadEngine::RetireOld(ClusterState* c) {
  // 1. Final snapshot of the outgoing engines' cumulative work (the
  //    stats() contract: counters of retired engines are kept, not lost).
  for (std::unique_ptr<GretaEngine>& unit : c->retiring) {
    unit->RefreshStats();
    c->retired_stats.AddWork(unit->stats());
  }
  // Same contract for the per-slot EXPLAIN tallies.
  if (c->retired_query_stats.size() < c->query_ids.size()) {
    c->retired_query_stats.resize(c->query_ids.size());
  }
  for (size_t slot = 0; slot < c->query_ids.size(); ++slot) {
    const GretaEngine* old_unit = c->retiring_merged
                                      ? c->retiring[0].get()
                                      : c->retiring[slot].get();
    const size_t old_slot = c->retiring_merged ? slot : 0;
    const std::vector<QueryExecStats>& qstats = old_unit->query_exec_stats();
    if (old_slot >= qstats.size()) continue;  // never closed a window
    QueryExecStats& acc = c->retired_query_stats[slot];
    const QueryExecStats& s = qstats[old_slot];
    acc.windows_closed += s.windows_closed;
    acc.events_routed += s.events_routed;
    acc.vertices_created += s.vertices_created;
    acc.edges_traversed += s.edges_traversed;
    acc.rows_emitted += s.rows_emitted;
    acc.emit_ns += s.emit_ns;
  }
  // 2. Drain the outgoing engines' remaining rows; they own wid < split.
  //    (Push callbacks for these fired at window close already.)
  auto drain_old = [this, c](GretaEngine* unit, size_t engine_slot,
                             size_t qid) {
    for (ResultRow& row : unit->TakeResultsFor(engine_slot)) {
      if (row.wid < c->split_wid) holdover_[qid].push_back(std::move(row));
    }
  };
  for (size_t slot = 0; slot < c->query_ids.size(); ++slot) {
    if (c->retiring_merged) {
      drain_old(c->retiring[0].get(), slot, c->query_ids[slot]);
    } else {
      drain_old(c->retiring[slot].get(), 0, c->query_ids[slot]);
    }
  }
  EmitClusterTrace(telemetry::TraceKind::kMigrationFinish, *c,
                   c->retire_at == kMaxTs ? 0 : c->retire_at);
  c->retiring.clear();
  c->retire_at = kMaxTs;
  // 3. Queue the new engines' undrained rows (wid >= split) behind the old
  //    ones and discard boundary remnants, so a later handover finds only
  //    rows its split can route. Their push callbacks fired at close.
  for (size_t slot = 0; slot < c->query_ids.size(); ++slot) {
    const size_t qid = c->query_ids[slot];
    GretaEngine* unit = EngineFor(*c, slot);
    for (ResultRow& row : unit->TakeResultsFor(EngineSlot(*c, slot))) {
      if (row.wid >= c->split_wid) holdover_[qid].push_back(std::move(row));
    }
  }
}

WindowSpec SharedWorkloadEngine::emission_window_bound(
    size_t query_id) const {
  GRETA_CHECK(query_id < routes_.size());
  const Route& route = routes_[query_id];
  const ClusterState& c = *clusters_[route.cluster];
  const ExecPlan& plan = EngineFor(c, route.slot)->plan();
  // A partial unit emits each query on its own window.
  if (plan.partial.has_value()) {
    return plan.partial->windows[EngineSlot(c, route.slot)];
  }
  return plan.window;
}

size_t SharedWorkloadEngine::RecomputeTrackedBytes() const {
  size_t bytes = 0;
  for (const std::unique_ptr<ClusterState>& cluster : clusters_) {
    for (const std::unique_ptr<GretaEngine>& unit : cluster->retiring) {
      bytes += unit->RecomputeTrackedBytes();
    }
    for (const std::unique_ptr<GretaEngine>& unit : cluster->engines) {
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
  ClusterState& c = *clusters_[route.cluster];
  std::vector<ResultRow> out = std::move(holdover_[query_id]);
  holdover_[query_id].clear();
  if (c.handover_active()) {
    // Old engines own wid < split and the new ones wid >= split; every old
    // row of this query is emitted before any new one (class comment), so
    // old-then-new keeps the per-query window order.
    GretaEngine* old_unit = c.retiring_merged ? c.retiring[0].get()
                                              : c.retiring[route.slot].get();
    const size_t old_slot = c.retiring_merged ? route.slot : 0;
    for (ResultRow& row : old_unit->TakeResultsFor(old_slot)) {
      if (row.wid < c.split_wid) out.push_back(std::move(row));
    }
  }
  GretaEngine* unit = EngineFor(c, route.slot);
  for (ResultRow& row : unit->TakeResultsFor(EngineSlot(c, route.slot))) {
    if (row.wid >= c.split_wid) out.push_back(std::move(row));
  }
  return out;
}

std::vector<WindowObservation>
SharedWorkloadEngine::TakeWindowObservations() {
  // One block of entries per cluster, each ascending in window id.
  // Window ids are relative to EACH cluster's own grid — clusters with
  // different windows are never merged by raw id (their wids denote
  // different time ranges), and events are de-duplicated (max) only
  // WITHIN a cluster, whose engines route the same relevant events.
  std::vector<WindowObservation> out;
  if (adaptive_enabled_) {
    // Planner clusters' completed grid steps were recorded by AdaptStep.
    out.assign(workload_obs_.begin(), workload_obs_.end());
    workload_obs_.clear();
  }
  for (std::unique_ptr<ClusterState>& cluster : clusters_) {
    if (cluster->planner.has_value() && adaptive_enabled_) continue;
    std::map<WindowId, WindowObservation> merged;
    for (std::unique_ptr<GretaEngine>& unit : cluster->engines) {
      for (const WindowObservation& obs : unit->TakeWindowObservations()) {
        WindowObservation& m = merged[obs.wid];
        m.wid = obs.wid;
        m.close_time = std::max(m.close_time, obs.close_time);
        m.events_routed = std::max(m.events_routed, obs.events_routed);
        m.vertices_created += obs.vertices_created;
        m.edges_traversed += obs.edges_traversed;
      }
    }
    for (auto& [wid, obs] : merged) {
      (void)wid;
      out.push_back(obs);
    }
  }
  return out;
}

void SharedWorkloadEngine::RecordWorkloadObservation(
    const WindowObservation& obs) {
  constexpr size_t kMaxUndrained = 256;
  if (workload_obs_.size() >= kMaxUndrained) {
    workload_obs_.pop_front();
    GRETA_TM_ADD(tm_obs_evicted_, 1);
  }
  workload_obs_.push_back(obs);
}

const AggPlan& SharedWorkloadEngine::agg_plan_for(size_t query_id) const {
  GRETA_CHECK(query_id < routes_.size());
  const Route& route = routes_[query_id];
  const ClusterState& c = *clusters_[route.cluster];
  const ExecPlan& plan = EngineFor(c, route.slot)->plan();
  return plan.query_aggs.empty() ? plan.agg
                                 : plan.query_aggs[EngineSlot(c, route.slot)];
}

std::vector<QueryExecStats> SharedWorkloadEngine::query_exec_stats() const {
  std::vector<QueryExecStats> out(routes_.size());
  auto accumulate = [](QueryExecStats* acc, const QueryExecStats& s) {
    acc->windows_closed += s.windows_closed;
    acc->events_routed += s.events_routed;
    acc->vertices_created += s.vertices_created;
    acc->edges_traversed += s.edges_traversed;
    acc->rows_emitted += s.rows_emitted;
    acc->emit_ns += s.emit_ns;
  };
  for (size_t qid = 0; qid < routes_.size(); ++qid) {
    const Route& route = routes_[qid];
    const ClusterState& c = *clusters_[route.cluster];
    QueryExecStats& acc = out[qid];
    acc.query_id = qid;
    const std::vector<QueryExecStats>& live =
        EngineFor(c, route.slot)->query_exec_stats();
    const size_t live_slot = EngineSlot(c, route.slot);
    if (live_slot < live.size()) accumulate(&acc, live[live_slot]);
    if (c.handover_active()) {
      const GretaEngine* old_unit = c.retiring_merged
                                        ? c.retiring[0].get()
                                        : c.retiring[route.slot].get();
      const size_t old_slot = c.retiring_merged ? route.slot : 0;
      const std::vector<QueryExecStats>& old = old_unit->query_exec_stats();
      if (old_slot < old.size()) accumulate(&acc, old[old_slot]);
    }
    if (route.slot < c.retired_query_stats.size()) {
      accumulate(&acc, c.retired_query_stats[route.slot]);
    }
  }
  return out;
}

std::vector<AdaptationStats> SharedWorkloadEngine::adaptation_states() const {
  std::vector<AdaptationStats> out;
  out.reserve(clusters_.size());
  for (const std::unique_ptr<ClusterState>& cluster : clusters_) {
    if (cluster->planner.has_value()) {
      out.push_back(cluster->planner->stats());
    } else {
      AdaptationStats s;
      s.mode = cluster->merged ? ClusterMode::kMerged
                               : ClusterMode::kDedicated;
      out.push_back(s);
    }
  }
  return out;
}

size_t SharedWorkloadEngine::total_migrations() const {
  size_t n = 0;
  for (const std::unique_ptr<ClusterState>& cluster : clusters_) {
    n += cluster->migrations;
  }
  return n;
}

const EngineStats& SharedWorkloadEngine::stats() const {
  // Build the aggregate in a local and publish it in one assignment — the
  // mutable member never holds a half-accumulated state.
  EngineStats total;
  total.events_processed = events_processed_;
  for (const std::unique_ptr<ClusterState>& cluster : clusters_) {
    total.AddWork(cluster->retired_stats);
    for (const std::unique_ptr<GretaEngine>& unit : cluster->retiring) {
      total.AddWork(unit->stats());
    }
    for (const std::unique_ptr<GretaEngine>& unit : cluster->engines) {
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
