#include "core/engine.h"

#include <algorithm>
#include <chrono>

#include "common/simd.h"
#include "storage/window.h"

namespace greta {

StatusOr<std::unique_ptr<GretaEngine>> GretaEngine::Create(
    const Catalog* catalog, const QuerySpec& spec,
    const EngineOptions& options) {
  StatusOr<std::unique_ptr<ExecPlan>> plan =
      BuildPlan(spec, *catalog, options);
  if (!plan.ok()) return plan.status();
  return std::unique_ptr<GretaEngine>(
      new GretaEngine(catalog, std::move(plan).value(), options));
}

StatusOr<std::unique_ptr<GretaEngine>> GretaEngine::CreateMulti(
    const Catalog* catalog, const std::vector<const QuerySpec*>& specs,
    const EngineOptions& options) {
  StatusOr<std::unique_ptr<ExecPlan>> plan =
      BuildSharedPlan(specs, *catalog, options);
  if (!plan.ok()) return plan.status();
  return std::unique_ptr<GretaEngine>(
      new GretaEngine(catalog, std::move(plan).value(), options));
}

StatusOr<std::unique_ptr<GretaEngine>> GretaEngine::CreatePartial(
    const Catalog* catalog, const std::vector<const QuerySpec*>& specs,
    const EngineOptions& options) {
  StatusOr<std::unique_ptr<ExecPlan>> plan =
      BuildPartialSharedPlan(specs, *catalog, options);
  if (!plan.ok()) return plan.status();
  return std::unique_ptr<GretaEngine>(
      new GretaEngine(catalog, std::move(plan).value(), options));
}

GretaEngine::GretaEngine(const Catalog* catalog,
                         std::unique_ptr<ExecPlan> plan,
                         const EngineOptions& options)
    : catalog_(catalog), plan_(std::move(plan)), options_(options) {
  if (options_.memory != nullptr) memory_ = options_.memory;
  emitted_.resize(plan_->num_queries());
  // Emission grids: a partial plan emits each slot on its own window; the
  // slots whose window is the union stay on the union grid with every
  // other plan's slots.
  for (size_t q = 0; q < plan_->num_queries(); ++q) {
    const WindowSpec& w =
        plan_->partial.has_value() ? plan_->partial->windows[q] : plan_->window;
    if (w.within == plan_->window.within) {
      union_slots_.push_back(q);
      continue;
    }
    auto grid = std::find_if(
        early_grids_.begin(), early_grids_.end(),
        [&w](const EmitGrid& g) { return g.window.within == w.within; });
    if (grid == early_grids_.end()) {
      early_grids_.push_back({w, {}, 0});
      grid = early_grids_.end() - 1;
    }
    grid->slots.push_back(q);
  }
  for (const auto& [type, ids] : plan_->key_attr_ids) {
    if (static_cast<size_t>(type) >= route_table_.size()) {
      route_table_.resize(type + 1, nullptr);
    }
    route_table_[type] = &ids;
  }
#if GRETA_TELEMETRY
  // Arm the instruments once; the hot path only tests cached pointers.
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  tm_.events_routed = reg.CounterIf("greta_core_events_routed_total");
  tm_.vertices_created = reg.CounterIf("greta_core_vertices_created_total");
  tm_.edges_traversed = reg.CounterIf("greta_core_edges_traversed_total");
  tm_.windows_closed = reg.CounterIf("greta_core_windows_closed_total");
  tm_.emit_ns = reg.HistogramIf("greta_core_window_emit_ns");
  tm_.pane_bytes = reg.GaugeIf("greta_core_pane_bytes");
  tm_.trace = reg.TraceIf();
  for (const AlternativePlan& alt : plan_->alternatives) {
    for (const GraphPlan& gp : alt.graphs) {
      ++kernel_per_delivery_[static_cast<size_t>(gp.kernel)];
    }
  }
  static constexpr const char* kKernelSeries[3] = {
      "greta_core_kernel_dispatch_total{kernel=\"count_modular\"}",
      "greta_core_kernel_dispatch_total{kernel=\"count_exact\"}",
      "greta_core_kernel_dispatch_total{kernel=\"generic\"}",
  };
  for (size_t k = 0; k < 3; ++k) {
    if (kernel_per_delivery_[k] > 0) {
      tm_.kernel_dispatch[k] = reg.CounterIf(kKernelSeries[k]);
    }
  }
  static constexpr const char* kBatchFallbackSeries
      [GretaGraph::kNumBatchFallbackReasons] = {
          "greta_core_batch_fallback_rows_total{reason=\"disabled\"}",
          "greta_core_batch_fallback_rows_total{reason=\"semantics\"}",
          "greta_core_batch_fallback_rows_total{reason=\"negation\"}",
          "greta_core_batch_fallback_rows_total{reason=\"bounds\"}",
      };
  for (size_t r = 0; r < GretaGraph::kNumBatchFallbackReasons; ++r) {
    tm_.batch_fallback[r] = reg.CounterIf(kBatchFallbackSeries[r]);
  }
  static constexpr const char* kBatchStrategySeries
      [GretaGraph::kNumBatchStrategies] = {
          "greta_core_batch_rows_total{strategy=\"shared_fold\"}",
          "greta_core_batch_rows_total{strategy=\"suffix_merge\"}",
          "greta_core_batch_rows_total{strategy=\"per_event\"}",
      };
  for (size_t r = 0; r < GretaGraph::kNumBatchStrategies; ++r) {
    tm_.batch_strategy[r] = reg.CounterIf(kBatchStrategySeries[r]);
  }
#endif
}

GretaEngine::~GretaEngine() {
  // Partition map overhead is charged to the (possibly shared) tracker at
  // GetOrCreatePartition; the pane stores release their own bytes on
  // destruction, but the partition overhead must be released here or a
  // workload-wide tracker would keep stale bytes after this engine is
  // destroyed while the tracker lives on.
  for (const auto& [key, partition] : partitions_) {
    (void)partition;
    memory_->Release(sizeof(Partition) + key.size() * sizeof(Value));
  }
}

size_t GretaEngine::num_queries() const { return plan_->num_queries(); }

Status GretaEngine::Process(const Event& e) {
  row_scratch_.clear();
  row_scratch_.Append(e);
  return ProcessBatch(row_scratch_);
}

Status GretaEngine::ProcessBatch(const EventBatch& batch) {
  const size_t end = batch.size();
  if (end == 0) return Status::Ok();
  if (!batch.time_ordered() || (saw_events_ && batch.time(0) < watermark_)) {
    return Status::InvalidArgument(
        "events must arrive in-order by timestamp (Section 2)");
  }
  if (!next_close_valid_ && !plan_->window.unbounded()) {
    next_close_ = FirstWindowOf(batch.time(0), plan_->window);
    for (EmitGrid& g : early_grids_) {
      g.next = FirstWindowOf(batch.time(0), g.window);
    }
    next_close_valid_ = true;
  }
  // One watermark advance and one routing pass per equal-timestamp run; the
  // per-partition row groups then reach the graphs through InsertBatch.
  const Ts* times = batch.times().data();
  size_t i = 0;
  while (i < end) {
    const Ts ts = batch.time(i);
    size_t j = simd::RunSplit(times, i, end);
    AdvanceTime(ts);
    watermark_ = ts;
    saw_events_ = true;
    stats_.events_processed += j - i;
    RouteRun(batch, i, j);
    i = j;
  }
  // peak_bytes is monotone, so one refresh after the batch observes the
  // same peak the scalar per-event refresh would.
  stats_.peak_bytes = memory_->peak_bytes();
  return Status::Ok();
}

Status GretaEngine::AdvanceWatermark(Ts now) {
  if (saw_events_ && now <= watermark_) return Status::Ok();
  AdvanceTime(now);
  if (saw_events_) watermark_ = now;
  return Status::Ok();
}

void GretaEngine::AdvanceTime(Ts now) { CloseWindowsUpTo(now); }

void GretaEngine::CloseWindowsUpTo(Ts now) {
  if (plan_->window.unbounded() || !next_close_valid_) return;
  // Shorter member windows close first: their rows leave now, while the
  // window's results stay in the graphs until the union close releases
  // them (PartialFold::End clamps each query's accumulation to its own
  // WITHIN, so nothing later lands in an emitted window).
  for (EmitGrid& g : early_grids_) {
    for (; WindowCloseTime(g.next, g.window) <= now; ++g.next) {
      EmitRows(g.next, g.slots);
    }
  }
  bool closed_any = false;
  while (WindowCloseTime(next_close_, plan_->window) <= now) {
    EmitWindow(next_close_);
    ++next_close_;
    closed_any = true;
  }
  if (closed_any) {
    for (auto& [key, partition] : partitions_) {
      (void)key;
      for (AltRuntime& alt : partition->alts) {
        for (std::unique_ptr<GretaGraph>& g : alt.graphs) g->Purge(now);
      }
    }
    // Broadcast events older than one window length can no longer share a
    // window with any future partition member.
    while (!broadcast_buffer_.empty() &&
           broadcast_buffer_.front().event.time + plan_->window.within <=
               now) {
      broadcast_buffer_.pop_front();
    }
    GRETA_TM_SET(tm_.pane_bytes,
                 static_cast<double>(memory_->current_bytes()));
    GRETA_TM(if (tm_.trace != nullptr) {
      telemetry::TraceEvent e;
      e.kind = telemetry::TraceKind::kPanePurge;
      e.ts = now;
      e.a = memory_->current_bytes();
      tm_.trace->Emit(e);
    });
  }
}

void GretaEngine::EmitRows(WindowId wid, const std::vector<size_t>& slots) {
  // Close-to-emit latency: this call IS the span between a window closing
  // (watermark passes its close time on the slots' grid) and its rows being
  // handed to callbacks / the emit queues. Measured unconditionally (two
  // clock reads per call) because the per-query EXPLAIN tallies need it
  // even when the metric registry is disarmed; EmitWindow attributes the
  // spans to the closing window.
  const uint64_t emit_start_ns = telemetry::SteadyNowNs();
  const size_t nq = plan_->num_queries();
  if (query_stats_.size() < nq) {
    query_stats_.resize(nq);
    for (size_t q = 0; q < nq; ++q) query_stats_[q].query_id = q;
  }
  const bool all_slots = slots.size() == nq;
  std::vector<std::unordered_map<std::vector<Value>, AggOutputs, ValueVecHash,
                                 ValueVecEq>>
      merged(nq);
  for (auto& [key, partition] : partitions_) {
    std::vector<AggOutputs> accs(nq);
    if (plan_->groups.size() <= 1) {
      // Disjoint alternatives sum (one term group); every query slot is
      // collected in the same structural pass.
      if (!plan_->groups.empty()) {
        for (int idx : plan_->groups[0].alternative_indices) {
          GretaGraph* graph = partition->alts[idx].graphs[0].get();
          if (all_slots) {
            graph->CollectWindowAll(wid, &accs);
          } else {
            for (size_t q : slots) graph->CollectWindow(wid, q, &accs[q]);
          }
        }
      }
    } else {
      // Conjunction: product over term groups of each group's total count
      // (Section 9; COUNT(*) only, enforced by the planner for every query
      // of a shared cluster — so all slots carry the same product).
      BigUInt product(1);
      bool all_nonzero = true;
      for (const TermGroupPlan& group : plan_->groups) {
        AggOutputs group_acc;
        for (int idx : group.alternative_indices) {
          partition->alts[idx].graphs[0]->CollectWindow(wid, &group_acc);
        }
        if (!group_acc.any || group_acc.count.IsZero()) {
          all_nonzero = false;
          break;
        }
        product = product.Mul(group_acc.count.ToBig());
      }
      if (all_nonzero) {
        for (size_t q : slots) {
          accs[q].count = Counter::FromBig(product, plan_->mode);
          accs[q].any = true;
        }
      }
    }
    for (size_t q : slots) {
      if (!accs[q].any) continue;
      const AggPlan& qagg = plan_->query_aggs.empty() ? plan_->agg
                                                      : plan_->query_aggs[q];
      std::vector<Value> group(key.begin(),
                               key.begin() + plan_->num_group_attrs);
      auto [it, inserted] = merged[q].try_emplace(std::move(group));
      (void)inserted;
      it->second.Merge(accs[q], qagg);
    }
  }

  for (size_t q : slots) {
    std::vector<ResultRow> rows;
    rows.reserve(merged[q].size());
    for (auto& [group, outputs] : merged[q]) {
      ResultRow row;
      row.wid = wid;
      row.group = group;
      row.aggs = std::move(outputs);
      rows.push_back(std::move(row));
    }
    SortRows(&rows);
    query_stats_[q].rows_emitted += rows.size();
    emit_rows_pending_ += rows.size();
    const bool has_callback =
        q < result_callbacks_.size() && result_callbacks_[q];
    for (ResultRow& row : rows) {
      if (has_callback) result_callbacks_[q](row);
      emitted_[q].push_back(std::move(row));
    }
  }
  emit_ns_pending_ += telemetry::SteadyNowNs() - emit_start_ns;
}

void GretaEngine::EmitWindow(WindowId wid) {
  EmitRows(wid, union_slots_);

  // Release per-window state and, in the same walk, sum the cumulative
  // graph counters for the per-close deltas.
  size_t total_vertices = 0;
  size_t total_edges = 0;
  [[maybe_unused]] uint64_t batch_fb[GretaGraph::kNumBatchFallbackReasons] = {
      0, 0, 0, 0};
  [[maybe_unused]] uint64_t batch_st[GretaGraph::kNumBatchStrategies] = {0, 0,
                                                                         0};
  for (auto& [key, partition] : partitions_) {
    (void)key;
    for (AltRuntime& alt : partition->alts) {
      for (std::unique_ptr<GretaGraph>& g : alt.graphs) {
        g->ForgetWindow(wid);
        total_vertices += g->total_vertices();
        total_edges += g->edges_traversed();
        for (size_t r = 0; r < GretaGraph::kNumBatchFallbackReasons; ++r) {
          batch_fb[r] += g->batch_fallback_rows()[r];
        }
        for (size_t r = 0; r < GretaGraph::kNumBatchStrategies; ++r) {
          batch_st[r] += g->batch_strategy_rows()[r];
        }
      }
      for (std::unique_ptr<NegationLink>& link : alt.links) {
        link->ForgetWindow(wid);
      }
    }
  }

  const size_t events_routed = close_events_routed_;
  const size_t vertices_created = total_vertices - close_prev_vertices_;
  const size_t edges_traversed = total_edges - close_prev_edges_;
  close_events_routed_ = 0;
  close_prev_vertices_ = total_vertices;
  close_prev_edges_ = total_edges;

  // Per-query EXPLAIN ANALYZE tallies: the per-close deltas attributed to
  // every query slot of the (possibly merged) runtime. Plain members,
  // one pass per window close. Emission spans and rows count every EmitRows
  // call since the previous close (a partial plan's shorter grids run
  // ahead of this one).
  const uint64_t emit_span_ns = emit_ns_pending_;
  [[maybe_unused]] const size_t rows_emitted = emit_rows_pending_;
  emit_ns_pending_ = 0;
  emit_rows_pending_ = 0;
  for (QueryExecStats& qs : query_stats_) {
    qs.windows_closed += 1;
    qs.events_routed += events_routed;
    qs.vertices_created += vertices_created;
    qs.edges_traversed += edges_traversed;
    qs.emit_ns += emit_span_ns;
  }

#if GRETA_TELEMETRY
  GRETA_TM_ADD(tm_.windows_closed, 1);
  GRETA_TM_ADD(tm_.events_routed, events_routed);
  GRETA_TM_ADD(tm_.vertices_created, vertices_created);
  GRETA_TM_ADD(tm_.edges_traversed, edges_traversed);
  const uint64_t deliveries = tm_deliveries_ - tm_prev_deliveries_;
  tm_prev_deliveries_ = tm_deliveries_;
  for (size_t k = 0; k < 3; ++k) {
    if (tm_.kernel_dispatch[k] != nullptr) {
      tm_.kernel_dispatch[k]->Add(kernel_per_delivery_[k] * deliveries);
    }
  }
  // Batch coverage: cumulative graph counters -> per-close deltas, plus the
  // engine-side negation rows (scalar schedule; attributed per close too).
  batch_fb[static_cast<size_t>(GretaGraph::BatchFallbackReason::kNegation)] +=
      batch_negation_rows_;
  for (size_t r = 0; r < GretaGraph::kNumBatchFallbackReasons; ++r) {
    const uint64_t delta = batch_fb[r] - tm_prev_batch_fallback_[r];
    tm_prev_batch_fallback_[r] = batch_fb[r];
    if (delta != 0) GRETA_TM_ADD(tm_.batch_fallback[r], delta);
  }
  for (size_t r = 0; r < GretaGraph::kNumBatchStrategies; ++r) {
    const uint64_t delta = batch_st[r] - tm_prev_batch_strategy_[r];
    tm_prev_batch_strategy_[r] = batch_st[r];
    if (delta != 0) GRETA_TM_ADD(tm_.batch_strategy[r], delta);
  }
  if (tm_.emit_ns != nullptr) {
    tm_.emit_ns->Record(emit_span_ns);
  }
  if (tm_.trace != nullptr) {
    telemetry::TraceEvent e;
    e.kind = telemetry::TraceKind::kWindowClose;
    e.ts = WindowCloseTime(wid, plan_->window);
    e.wid = static_cast<int64_t>(wid);
    e.a = rows_emitted;
    e.b = vertices_created;
    tm_.trace->Emit(e);
  }
#endif
}

void GretaEngine::RouteRun(const EventBatch& batch, size_t begin, size_t end) {
  // Filters irrelevant types and partitions the run's rows on the plan's
  // key attributes; rows landing in the same partition are grouped (epoch
  // slots, no per-run hash map) so each partition sees one InsertBatch call
  // per run. Row order is preserved within every group, and groups of
  // distinct partitions touch disjoint state, so delivery order across
  // groups is immaterial.
  ++route_epoch_;
  run_groups_used_ = 0;
  auto group_row = [&](Partition* p, size_t row) {
    if (p->group_epoch != route_epoch_) {
      if (run_groups_used_ == run_groups_.size()) run_groups_.emplace_back();
      RunGroup& g = run_groups_[run_groups_used_];
      g.partition = p;
      g.rows.clear();
      p->group_epoch = route_epoch_;
      p->group_slot = static_cast<uint32_t>(run_groups_used_);
      ++run_groups_used_;
    }
    run_groups_[p->group_slot].rows.push_back(static_cast<uint32_t>(row));
  };

  for (size_t i = begin; i < end; ++i) {
    const TypeId type = batch.type(i);
    if (static_cast<size_t>(type) >= route_table_.size() ||
        route_table_[type] == nullptr) {
      continue;  // Irrelevant type.
    }
    ++close_events_routed_;
    const std::vector<AttrId>& ids = *route_table_[type];

    bool full = true;
    for (AttrId id : ids) full &= (id != kInvalidAttr);

    if (full) {
      const EventRef ref = batch.ref(i);
      route_key_.clear();
      for (AttrId id : ids) route_key_.push_back(ref.attr(id));
      Partition* p = GetOrCreatePartition(route_key_, ref.seq);
      GRETA_TM(++tm_deliveries_);
      group_row(p, i);
      continue;
    }

    // Broadcast routing: the type lacks some key attributes (e.g. Accident
    // has a segment but no vehicle in Q3). Group the row into every
    // partition that agrees on the attributes it does carry, and buffer it
    // for partitions created later. The replay in GetOrCreatePartition
    // delivers buffered rows immediately, which stays ordered: a new
    // partition's group only holds rows at or after its creating event.
    BroadcastEvent b;
    b.event = batch.ToEvent(i);
    b.has_attr.resize(ids.size());
    b.key_values.resize(ids.size());
    for (size_t a = 0; a < ids.size(); ++a) {
      b.has_attr[a] = (ids[a] != kInvalidAttr);
      if (b.has_attr[a]) b.key_values[a] = b.event.attr(ids[a]);
    }
    for (auto& [key, partition] : partitions_) {
      if (BroadcastMatches(b, key)) {
        GRETA_TM(++tm_deliveries_);
        group_row(partition.get(), i);
      }
    }
    broadcast_buffer_.push_back(std::move(b));
  }

  for (size_t g = 0; g < run_groups_used_; ++g) {
    DeliverBatchToPartition(run_groups_[g].partition, batch,
                            run_groups_[g].rows);
  }
}

bool GretaEngine::BroadcastMatches(const BroadcastEvent& b,
                                   const std::vector<Value>& key) const {
  for (size_t i = 0; i < b.has_attr.size(); ++i) {
    if (b.has_attr[i] && !(b.key_values[i] == key[i])) return false;
  }
  return true;
}

GretaEngine::Partition* GretaEngine::GetOrCreatePartition(
    const std::vector<Value>& key, SeqNo upto) {
  auto it = partitions_.find(key);
  if (it != partitions_.end()) return it->second.get();

  auto partition = std::make_unique<Partition>();
  partition->alts.reserve(plan_->alternatives.size());
  for (const AlternativePlan& alt_plan : plan_->alternatives) {
    AltRuntime alt;
    for (const GraphPlan& gp : alt_plan.graphs) {
      alt.graphs.push_back(
          std::make_unique<GretaGraph>(&gp, plan_.get(), memory_));
    }
    // Wire negation links: negative graph i reports into the graph it
    // invalidates (its parent), per its placement case.
    for (size_t i = 1; i < alt_plan.graphs.size(); ++i) {
      const GraphPlan& gp = alt_plan.graphs[i];
      GretaGraph* parent = alt.graphs[gp.parent].get();
      const GretaTemplate& parent_templ =
          alt_plan.graphs[gp.parent].templ;
      int transition = -1;
      if (gp.link_kind == NegationKind::kBetween) {
        transition = parent_templ.FindTransition(gp.prev_state, gp.foll_state);
      }
      auto link = std::make_unique<NegationLink>(gp.link_kind, transition,
                                                 gp.foll_state);
      alt.graphs[i]->SetOutLink(link.get());
      switch (gp.link_kind) {
        case NegationKind::kBetween:
          parent->AttachTransitionLink(transition, link.get());
          break;
        case NegationKind::kTrailing:
          parent->AttachGraphLink(link.get());
          break;
        case NegationKind::kLeading:
          parent->AttachFollowLink(link.get());
          break;
        case NegationKind::kNone:
          GRETA_CHECK(false);
      }
      alt.links.push_back(std::move(link));
    }
    partition->alts.push_back(std::move(alt));
  }

  Partition* raw = partition.get();
  partitions_.emplace(key, std::move(partition));
  memory_->Add(sizeof(Partition) + key.size() * sizeof(Value));

  // Replay buffered broadcast events that precede the creating event.
  EventBatch replay;
  std::vector<uint32_t> rows;
  for (const BroadcastEvent& b : broadcast_buffer_) {
    if (b.event.seq >= upto) break;
    if (BroadcastMatches(b, key)) {
      rows.push_back(static_cast<uint32_t>(replay.size()));
      replay.Append(b.event);
    }
  }
  if (!rows.empty()) {
    GRETA_TM(tm_deliveries_ += rows.size());
    DeliverBatchToPartition(raw, replay, rows);
  }
  return raw;
}

void GretaEngine::DeliverBatchToPartition(Partition* p,
                                          const EventBatch& batch,
                                          const std::vector<uint32_t>& rows) {
  for (AltRuntime& alt : p->alts) {
    if (alt.graphs.size() == 1) {
      // No negation: the whole row group goes through the (possibly
      // amortized) batch insert. Alternatives hold disjoint graph state, so
      // alt-major order is equivalent to the scalar event-major order.
      alt.graphs[0]->InsertBatch(batch, rows.data(), rows.size());
      continue;
    }
    // Negation: keep the scalar per-event schedule, event by event. Negative
    // graphs go first (reverse order): purely cosmetic, since barriers are
    // time-based and order-independent, but it mirrors the paper's
    // scheduler, which runs the graphs a graph depends on first. The
    // graphs' own InsertBatch never runs here, so the fallback is tallied
    // engine-side.
    batch_negation_rows_ += rows.size();
    for (uint32_t row : rows) {
      const EventRef ref = batch.ref(row);
      for (size_t g = alt.graphs.size(); g-- > 0;) {
        alt.graphs[g]->Insert(ref);
      }
    }
  }
}

Status GretaEngine::Flush() {
  if (!saw_events_) return Status::Ok();
  if (plan_->window.unbounded()) {
    if (!flushed_unbounded_) {
      EmitWindow(0);
      flushed_unbounded_ = true;
    }
  } else if (next_close_valid_) {
    WindowId last = LastWindowOf(watermark_, plan_->window);
    for (EmitGrid& g : early_grids_) {
      for (; g.next <= last; ++g.next) EmitRows(g.next, g.slots);
    }
    while (next_close_ <= last) {
      EmitWindow(next_close_);
      ++next_close_;
    }
  }
  RefreshAggregateStats();
  return Status::Ok();
}

std::vector<ResultRow> GretaEngine::TakeResults() {
  // EngineInterface contract: drain everything. For a multi-query runtime
  // that is every query slot in query order — otherwise rows of slots
  // 1..n-1 would accumulate unbounded behind a generic harness.
  //
  // Refreshing the aggregate stats walks every partition's graphs, and
  // harnesses drain after every event — skip it while there is nothing to
  // drain (Flush() refreshes unconditionally, so final stats are exact).
  bool any = false;
  for (const std::vector<ResultRow>& rows : emitted_) any |= !rows.empty();
  if (!any) return {};
  RefreshAggregateStats();
  std::vector<ResultRow> out = std::move(emitted_[0]);
  emitted_[0].clear();
  for (size_t q = 1; q < emitted_.size(); ++q) {
    out.insert(out.end(), std::make_move_iterator(emitted_[q].begin()),
               std::make_move_iterator(emitted_[q].end()));
    emitted_[q].clear();
  }
  return out;
}

size_t GretaEngine::RecomputeTrackedBytes() const {
  size_t bytes = 0;
  for (const auto& [key, partition] : partitions_) {
    bytes += sizeof(Partition) + key.size() * sizeof(Value);
    for (const AltRuntime& alt : partition->alts) {
      for (const std::unique_ptr<GretaGraph>& g : alt.graphs) {
        bytes += g->RecomputeTrackedBytes();
      }
    }
  }
  return bytes;
}

std::vector<ResultRow> GretaEngine::TakeResultsFor(size_t q) {
  GRETA_CHECK(q < emitted_.size());
  if (emitted_[q].empty()) return {};
  RefreshAggregateStats();
  std::vector<ResultRow> out = std::move(emitted_[q]);
  emitted_[q].clear();
  return out;
}

void GretaEngine::RefreshAggregateStats() {
  size_t vertices = 0;
  size_t edges = 0;
  size_t batch_fast = 0;
  size_t batch_fallback = batch_negation_rows_;
  for (const auto& [key, partition] : partitions_) {
    (void)key;
    for (const AltRuntime& alt : partition->alts) {
      for (const std::unique_ptr<GretaGraph>& g : alt.graphs) {
        vertices += g->total_vertices();
        edges += g->edges_traversed();
        for (size_t r = 0; r < GretaGraph::kNumBatchStrategies; ++r) {
          batch_fast += g->batch_strategy_rows()[r];
        }
        for (size_t r = 0; r < GretaGraph::kNumBatchFallbackReasons; ++r) {
          batch_fallback += g->batch_fallback_rows()[r];
        }
      }
    }
  }
  stats_.vertices_stored = vertices;
  stats_.edges_traversed = edges;
  stats_.work_units = edges;
  stats_.peak_bytes = memory_->peak_bytes();
  stats_.batch_rows_fast = batch_fast;
  stats_.batch_rows_fallback = batch_fallback;
}

}  // namespace greta
