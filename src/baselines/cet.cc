#include "baselines/cet.h"

#include <deque>

#include "core/plan.h"

namespace greta {

namespace {

// One materialized (sub-)trend ending at some vertex: CET shares the prefix
// structurally (prev pointer) and carries the trend's running aggregates so
// extension is O(1). 40 bytes each — and there are exponentially many.
struct TrendCell {
  int32_t prev = -1;     // index of the prefix cell (-1: trend start)
  int32_t vertex = -1;   // graph vertex this cell appends
  uint32_t occurrences = 0;  // target-type events so far
  float pad = 0.0f;
  double min = kAggInf;
  double max = -kAggInf;
  double sum = 0.0;
};

}  // namespace

StatusOr<std::unique_ptr<CetEngine>> CetEngine::Create(
    const Catalog* catalog, const QuerySpec& spec,
    const TwoStepOptions& options) {
  EngineOptions popts;
  popts.counter_mode = options.counter_mode;
  popts.semantics = options.semantics;
  popts.max_windows_per_event = options.max_windows_per_event;
  StatusOr<std::unique_ptr<ExecPlan>> plan = BuildPlan(spec, *catalog, popts);
  if (!plan.ok()) return plan.status();
  return std::unique_ptr<CetEngine>(new CetEngine(
      catalog, std::move(plan).value(), options, "CET"));
}

namespace {

// Count-only fast path: sub-trends still materialize one cell each (that is
// CET's defining cost), but the cell carries no aggregate payload.
struct SlimCell {
  int32_t prev = -1;
  int32_t vertex = -1;
};

}  // namespace

bool CetEngine::AggregateCountOnly(const BuiltGraph& core, Ts end_barrier,
                                   WorkBudget* budget, AggOutputs* out) {
  const AggPlan& agg = agg_plan();
  std::deque<SlimCell> arena;
  std::vector<std::pair<size_t, size_t>> spans(core.vertices.size());
  for (size_t i = 0; i < core.vertices.size(); ++i) {
    const ExVertex& v = core.vertices[i];
    size_t begin = arena.size();
    if (v.is_start) {
      arena.push_back(SlimCell{-1, static_cast<int32_t>(i)});
    }
    for (int32_t u : v.preds) {
      auto [ub, ue] = spans[u];
      if (!budget->Charge(ue - ub)) return false;
      for (size_t c = ub; c < ue; ++c) {
        arena.push_back(SlimCell{static_cast<int32_t>(c),
                                 static_cast<int32_t>(i)});
      }
    }
    spans[i] = {begin, arena.size()};
    memory()->Add((arena.size() - begin) * sizeof(SlimCell));
    if (v.is_end && v.event->time >= end_barrier) {
      for (size_t c = begin; c < arena.size(); ++c) {
        out->count.AddOne(agg.mode);
      }
      out->any = out->any || begin < arena.size();
    }
  }
  memory()->Release(arena.size() * sizeof(SlimCell));
  return true;
}

bool CetEngine::AggregateAlternative(
    const std::vector<BuiltGraph>& graphs,
    const std::vector<InvalidationIndex>& indexes, WorkBudget* budget,
    AggOutputs* out) {
  const BuiltGraph& core = graphs[0];
  Ts end_barrier = PositiveEndBarrier(graphs, indexes);
  const AggPlan& agg = agg_plan();
  if (!agg.need_type_count && !agg.need_min && !agg.need_max &&
      !agg.need_sum) {
    return AggregateCountOnly(core, end_barrier, budget, out);
  }

  // Cell arena (deque: stable, no exponential reallocation copies) plus
  // per-vertex [begin, end) spans. Vertices are in insertion order, so
  // predecessors' cells are complete before extension.
  std::deque<TrendCell> arena;
  std::vector<std::pair<size_t, size_t>> spans(core.vertices.size());
  const bool want_target = agg.need_type_count || agg.need_min ||
                           agg.need_max || agg.need_sum;

  auto extend = [&](const TrendCell* prefix, int32_t vertex_idx) {
    TrendCell cell;
    if (prefix != nullptr) {
      cell = *prefix;
      cell.prev = 0;  // Structural link; index value unused for aggregation.
    }
    cell.vertex = vertex_idx;
    if (want_target) {
      const Event& e = *core.vertices[vertex_idx].event;
      if (e.type == agg.target_type) {
        ++cell.occurrences;
        double attr = agg.target_attr == kInvalidAttr
                          ? 0.0
                          : e.attr(agg.target_attr).ToDouble();
        if (attr < cell.min) cell.min = attr;
        if (attr > cell.max) cell.max = attr;
        cell.sum += attr;
      }
    }
    arena.push_back(cell);
  };

  size_t uncharged = 0;
  // One budget unit per materialized sub-trend cell, checked in chunks so a
  // single explosive vertex cannot overshoot the budget by much.
  auto charge_chunked = [&]() -> bool {
    if (++uncharged < 4096) return true;
    bool ok = budget->Charge(uncharged);
    uncharged = 0;
    return ok;
  };

  for (size_t i = 0; i < core.vertices.size(); ++i) {
    const ExVertex& v = core.vertices[i];
    size_t begin = arena.size();
    if (v.is_start) {
      extend(nullptr, static_cast<int32_t>(i));
      if (!charge_chunked()) return false;
    }
    for (int32_t u : v.preds) {
      auto [ub, ue] = spans[u];
      for (size_t c = ub; c < ue; ++c) {
        extend(&arena[c], static_cast<int32_t>(i));
        if (!charge_chunked()) return false;
      }
    }
    spans[i] = {begin, arena.size()};
    memory()->Add((arena.size() - begin) * sizeof(TrendCell));

    if (v.is_end && v.event->time >= end_barrier) {
      for (size_t c = begin; c < arena.size(); ++c) {
        const TrendCell& cell = arena[c];
        out->count.AddOne(agg.mode);
        if (agg.need_type_count) {
          out->type_count.Add(Counter(cell.occurrences), agg.mode);
        }
        if (agg.need_min && cell.min < out->min) out->min = cell.min;
        if (agg.need_max && cell.max > out->max) out->max = cell.max;
        if (agg.need_sum) out->sum += cell.sum;
        out->any = true;
      }
    }
  }
  memory()->Release(arena.size() * sizeof(TrendCell));
  return true;
}

}  // namespace greta
