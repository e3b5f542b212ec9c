#include "baselines/flink_flat.h"

#include <algorithm>

#include "core/plan.h"

namespace greta {

StatusOr<std::unique_ptr<FlinkFlatEngine>> FlinkFlatEngine::Create(
    const Catalog* catalog, const QuerySpec& spec,
    const TwoStepOptions& options) {
  EngineOptions popts;
  popts.counter_mode = options.counter_mode;
  popts.semantics = options.semantics;
  popts.max_windows_per_event = options.max_windows_per_event;
  StatusOr<std::unique_ptr<ExecPlan>> plan = BuildPlan(spec, *catalog, popts);
  if (!plan.ok()) return plan.status();
  return std::unique_ptr<FlinkFlatEngine>(new FlinkFlatEngine(
      catalog, std::move(plan).value(), options, "Flink-flat"));
}

bool FlinkFlatEngine::AggregateAlternative(
    const std::vector<BuiltGraph>& graphs,
    const std::vector<InvalidationIndex>& indexes, WorkBudget* budget,
    AggOutputs* out) {
  const BuiltGraph& core = graphs[0];
  Ts end_barrier = PositiveEndBarrier(graphs, indexes);

  // Determine L, the longest possible match: longest path from any START
  // vertex. Edges point to later-inserted vertices, so a reverse sweep is a
  // topological DP.
  size_t n = core.vertices.size();
  std::vector<int64_t> longest(n, 1);
  for (size_t i = n; i-- > 0;) {
    for (int32_t w : core.vertices[i].succs) {
      longest[i] = std::max(longest[i], 1 + longest[w]);
    }
  }
  int64_t max_len = 0;
  for (size_t i = 0; i < n; ++i) {
    if (core.vertices[i].is_start) max_len = std::max(max_len, longest[i]);
  }

  // One fixed-length sequence query per length: depth-bounded DFS that
  // materializes every matched sequence (retained until the window is
  // done, as a real sequence-query workload would).
  size_t materialized_bytes = 0;
  std::vector<int32_t> path;
  std::vector<std::pair<int32_t, size_t>> stack;
  for (int64_t len = 1; len <= max_len; ++len) {
    for (size_t i = 0; i < n; ++i) {
      if (!core.vertices[i].is_start) continue;
      path.clear();
      stack.clear();
      path.push_back(static_cast<int32_t>(i));
      stack.emplace_back(static_cast<int32_t>(i), 0);
      if (!budget->Charge(1)) return false;
      auto emit = [&](int32_t v) -> bool {
        const ExVertex& vx = core.vertices[v];
        if (static_cast<int64_t>(path.size()) != len || !vx.is_end ||
            vx.event->time < end_barrier) {
          return true;
        }
        if (!budget->Charge(path.size())) return false;
        // Each fixed-length query materializes its matched sequence as a
        // result object (retained until the window completes).
        std::vector<const Event*> sequence;
        sequence.reserve(path.size());
        for (int32_t idx : path) sequence.push_back(core.vertices[idx].event);
        do_not_elide_ = sequence.size();
        AccumulateTrend(core, path, out);
        size_t bytes = path.size() * sizeof(void*) + sizeof(void*);
        materialized_bytes += bytes;
        memory()->Add(bytes);
        return true;
      };
      if (!emit(static_cast<int32_t>(i))) return false;
      while (!stack.empty()) {
        auto& [v, next] = stack.back();
        const ExVertex& vx = core.vertices[v];
        if (static_cast<int64_t>(path.size()) < len &&
            next < vx.succs.size()) {
          int32_t w = vx.succs[next++];
          path.push_back(w);
          stack.emplace_back(w, 0);
          if (!budget->Charge(1)) return false;
          if (!emit(w)) return false;
        } else {
          stack.pop_back();
          path.pop_back();
        }
      }
    }
  }
  memory()->Release(materialized_bytes);
  return true;
}

}  // namespace greta
