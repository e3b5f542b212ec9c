#include "baselines/sase.h"

#include "core/plan.h"

namespace greta {

StatusOr<std::unique_ptr<SaseEngine>> SaseEngine::Create(
    const Catalog* catalog, const QuerySpec& spec,
    const TwoStepOptions& options) {
  EngineOptions popts;
  popts.counter_mode = options.counter_mode;
  popts.semantics = options.semantics;
  popts.max_windows_per_event = options.max_windows_per_event;
  StatusOr<std::unique_ptr<ExecPlan>> plan = BuildPlan(spec, *catalog, popts);
  if (!plan.ok()) return plan.status();
  return std::unique_ptr<SaseEngine>(new SaseEngine(
      catalog, std::move(plan).value(), options, "SASE"));
}

bool SaseEngine::AggregateAlternative(
    const std::vector<BuiltGraph>& graphs,
    const std::vector<InvalidationIndex>& indexes, WorkBudget* budget,
    AggOutputs* out) {
  const BuiltGraph& core = graphs[0];
  Ts end_barrier = PositiveEndBarrier(graphs, indexes);
  return EnumerateTrends(
      core, end_barrier, budget, [&](const std::vector<int32_t>& path) {
        // Two-step: SASE *constructs* each trend (a fresh match object per
        // result, as its NFA runs do) and only then aggregates it. This
        // per-trend materialization is exactly the cost CET's sub-trend
        // reuse avoids (Section 10.2).
        std::vector<const Event*> trend;
        trend.reserve(path.size());
        for (int32_t idx : path) {
          trend.push_back(core.vertices[idx].event);
        }
        benchmark_do_not_elide_ = trend.size();
        AccumulateTrend(core, path, out);
      });
}

}  // namespace greta
