#ifndef GRETA_CORE_PLAN_H_
#define GRETA_CORE_PLAN_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/catalog.h"
#include "core/aggregate.h"
#include "core/engine_interface.h"
#include "core/negation.h"
#include "predicate/classify.h"
#include "predicate/range.h"
#include "query/query.h"
#include "query/split.h"
#include "query/template.h"

namespace greta {

/// One edge predicate compiled onto a template transition.
struct EdgePredicatePlan {
  const Expr* expr = nullptr;               // owned by ExecPlan
  std::optional<RangeExtraction> range;     // tree range form, if extractable
  bool drives_sort_key = false;  // range query on the from-state's tree key
};

/// Per-state compilation: vertex predicates and the Vertex-Tree sort key.
struct StatePlan {
  TypeId type = kInvalidType;
  AttrId sort_attr = kInvalidAttr;  // kInvalidAttr: sort by time
  std::vector<const Expr*> local_preds;
  /// How many leading attribute values a stored vertex of this state keeps
  /// (1 + the highest attr id any scan-time residual edge predicate reads on
  /// the predecessor side). Sort-key-driving range predicates are enforced
  /// by the Vertex Tree and never re-evaluated, so their attributes are not
  /// stored; the common tree-indexed Kleene query stores zero attributes.
  uint16_t stored_attr_count = 0;
};

struct TransitionPlan {
  std::vector<EdgePredicatePlan> preds;
  /// The predicates a predecessor scan must re-evaluate: everything not
  /// already enforced by the Vertex Tree's key range. Derived from `preds`
  /// once sort keys are assigned, so the hot loop never tests the
  /// drives_sort_key/range flags (empty for fully tree-indexed queries).
  std::vector<const Expr*> residual_preds;
};

/// Combines every sort-key-driving range predicate of `tp` into one key
/// range over the predecessor tree, resolved against the new event. Shared
/// by the scalar insert kernels and the batch run kernels, so the two can
/// never disagree on a bound (the batch kernels' strategy choice — shared
/// fold vs suffix merge vs per-event fold — keys off these values).
inline KeyBounds CombineTransitionBounds(const TransitionPlan& tp,
                                         const EventView next) {
  KeyBounds bounds;
  for (const EdgePredicatePlan& ep : tp.preds) {
    if (!ep.drives_sort_key || !ep.range.has_value()) continue;
    KeyBounds b = ep.range->ComputeBounds(next);
    if (b.lo > bounds.lo || (b.lo == bounds.lo && b.lo_strict)) {
      bounds.lo = b.lo;
      bounds.lo_strict = b.lo_strict;
    }
    if (b.hi < bounds.hi || (b.hi == bounds.hi && b.hi_strict)) {
      bounds.hi = b.hi;
      bounds.hi_strict = b.hi_strict;
    }
  }
  return bounds;
}

/// Propagation kernel compiled for one graph at plan time from its AggPlan
/// flag set and CounterMode (see src/core/README.md for the dispatch table).
/// The kernels change only how aggregate state moves along an edge — every
/// structural decision (windows, barriers, pruning, semantics bookkeeping)
/// is identical across them, so results are bit-identical by construction.
enum class PropKernel : uint8_t {
  /// Every query slot is COUNT(*)-only and counters wrap mod 2^64: a
  /// (vertex, window, query) cell is one u64 count, and edge propagation is
  /// a tight u64 add over the contiguous (window, query) cell span, with no
  /// aggregate-flag tests and no promotion checks.
  kCountModular,
  /// COUNT(*)-only with exact counters: a cell is one Counter, added through
  /// its u64 fast path, promoting to BigUInt only at 64-bit overflow.
  kCountExact,
  /// Any attribute aggregate (COUNT(E)/MIN/MAX/SUM/AVG), negation barrier
  /// auxiliaries, or kernel specialization disabled: a cell is an AggCell,
  /// propagated through the flag-tested AggCell::AddPredecessor path.
  kGeneric,
};

/// Compilation of one sub-pattern (positive core or negative sub-pattern)
/// into its GRETA template plus predicate attachments. Negative sub-patterns
/// carry the link metadata that connects them to the graph they invalidate.
struct GraphPlan {
  GretaTemplate templ;
  std::vector<StatePlan> states;            // indexed by StateId
  std::vector<TransitionPlan> transitions;  // parallel to templ.transitions()
  bool negative = false;
  int parent = -1;                 // sub-pattern index this one invalidates
  NegationKind link_kind = NegationKind::kNone;
  StateId prev_state = kInvalidState;  // in the parent's template
  StateId foll_state = kInvalidState;  // in the parent's template
  AggPlan agg;  // query aggregates (positive) or barrier aux (negative)
  /// Query-indexed aggregate plans (multi-query shared execution,
  /// src/sharing/): one entry per query sharing this graph; aggs[0] == agg.
  /// Negative sub-pattern graphs keep a single barrier-aux entry — their
  /// count/max_start state is identical for every query of the cluster.
  std::vector<AggPlan> aggs;
  /// Propagation kernel dispatched once per graph (not branch-tested per
  /// edge per window per query). Chosen by the planner after all query
  /// slots' aggregate plans are known.
  PropKernel kernel = PropKernel::kGeneric;
};

/// One disjunction-free alternative: sub-pattern 0 is the positive core,
/// the rest are negative sub-patterns (possibly nested).
struct AlternativePlan {
  std::vector<GraphPlan> graphs;
};

/// Partial sharing of a common Kleene sub-pattern (Hamlet snapshot
/// propagation): layout of one merged template whose shared core prefix
/// feeds per-query continuation states.
///
/// The shared core propagates ONE structural snapshot per (vertex, window)
/// — the trend count, identical for every query because the core is each
/// query's pattern prefix and its predicates agree cluster-wide — while
/// queries whose aggregates need attribute components (SUM/MIN/MAX/COUNT(E))
/// fold them through a dedicated *fold slot* next to the snapshot. Window
/// ids share one grid (equal slide); per-query `within` values only change
/// which windows of a vertex are live for a query, never a live cell's
/// content, so the snapshot serves every window length at once.
struct PartialSharingPlan {
  size_t num_core_states = 0;  // merged-template states [0, n) are shared
  std::vector<int> state_owner;       // per state: query index, or -1 = core
  std::vector<int> transition_owner;  // per transition, same convention
  std::vector<StateId> end_states;    // per query: its END state
  std::vector<WindowSpec> windows;    // per query; ExecPlan::window = union
  /// Per query: index of its fold slot within a core vertex's cells
  /// (1 + slot, slot 0 is the snapshot), or -1 when COUNT-only.
  std::vector<int> fold_slots;
  std::vector<size_t> fold_queries;  // inverse: fold slot index - 1 -> query
  size_t num_fold_slots = 0;  // core cells per (vertex, window) = 1 + this
};

/// A term group of the final combination. The final COUNT is the product
/// over groups of the sum over each group's alternatives (Section 9):
/// a plain pattern is one group; `P1 & P2` contributes one group per side.
struct TermGroupPlan {
  std::vector<int> alternative_indices;
};

/// Fully compiled query, shared (read-only) by every partition's runtime.
struct ExecPlan {
  // Pattern machinery.
  std::vector<AlternativePlan> alternatives;
  std::vector<TermGroupPlan> groups;
  AggPlan agg;
  WindowSpec window;
  Semantics semantics = Semantics::kSkipTillAnyMatch;
  CounterMode mode = CounterMode::kExact;
  bool enable_pruning = true;
  bool enable_batch_kernels = true;

  // Partitioning: key attribute names = GROUP-BY attrs then the remaining
  // equivalence attrs; the first `num_group_attrs` form the output group.
  std::vector<std::string> key_attrs;
  size_t num_group_attrs = 0;
  // Per relevant type: positions of key attrs in its schema (kInvalidAttr
  // where the type lacks the attribute -> broadcast routing).
  std::unordered_map<TypeId, std::vector<AttrId>> key_attr_ids;

  std::vector<AggSpec> agg_specs;  // for rendering

  // Multi-query shared execution (src/sharing/): per-query aggregate plans
  // and specs. Size 1 for a plan built from a single QuerySpec; query 0 is
  // always the plan's primary query (query_aggs[0] == agg).
  std::vector<AggPlan> query_aggs;
  std::vector<std::vector<AggSpec>> query_agg_specs;

  // Set for plans built by BuildPartialSharedPlan: the merged-template
  // layout. ExecPlan::window is then the cluster's union window (max within,
  // shared slide); per-query windows live in partial->windows.
  std::optional<PartialSharingPlan> partial;

  size_t num_queries() const { return query_aggs.empty() ? 1 : query_aggs.size(); }

  // Keeps predicate expressions and split patterns alive for the plan's
  // lifetime (StatePlan/TransitionPlan hold raw pointers into these).
  std::vector<ExprPtr> owned_exprs;
  std::vector<SplitResult> owned_splits;

  bool HasNegation() const {
    for (const AlternativePlan& alt : alternatives) {
      if (alt.graphs.size() > 1) return true;
    }
    return false;
  }
};

class MemoryTracker;

/// Engine construction options. The plan builders read every field but
/// `memory`.
struct EngineOptions {
  CounterMode counter_mode = CounterMode::kExact;
  Semantics semantics = Semantics::kSkipTillAnyMatch;
  int max_windows_per_event = 64;
  /// Ablation knob: false disables Vertex-Tree range extraction, turning
  /// predecessor lookups into full scans with residual filtering
  /// (bench_paper's ablation-tree case compares the two; Section 7
  /// motivates the tree).
  bool enable_tree_ranges = true;
  /// Ablation knob: false disables invalid event pruning (Theorem 5.1
  /// tombstoning); results must be identical either way.
  bool enable_pruning = true;
  /// Ablation knob: false forces the generic propagation kernel everywhere,
  /// disabling the COUNT(*)-specialized fast paths. Results must be
  /// bit-identical either way (the kernel equivalence tests assert it).
  bool enable_specialized_kernels = true;
  /// Ablation knob: false makes ProcessBatch fall back to the scalar insert
  /// kernel per row, disabling the run-amortized batch fast path. Results
  /// must be bit-identical either way.
  bool enable_batch_kernels = true;
  /// External memory tracker shared across engines (multi-query runtimes,
  /// src/sharing/): when set, allocations are accounted there so the peak
  /// is a true point-in-time workload peak instead of a sum of per-engine
  /// peaks reached at different times. Must outlive the engine. Null: the
  /// engine tracks its own memory.
  MemoryTracker* memory = nullptr;
};

/// Compiles a QuerySpec: validates the pattern, expands sugar into disjoint
/// alternatives, splits off negative sub-patterns, builds templates,
/// classifies predicates and resolves partitioning attributes.
StatusOr<std::unique_ptr<ExecPlan>> BuildPlan(const QuerySpec& spec,
                                              const Catalog& catalog,
                                              const EngineOptions& options);

/// Compiles a cluster of *share-compatible* queries into one merged plan:
/// pattern, predicates, partitioning and window come from specs[0]; every
/// query contributes its own aggregate plan, stored query-indexed on the
/// positive graphs (GraphPlan::aggs) so one GRETA graph propagates all of
/// them in a single pass. Callers (the sharing planner) are responsible for
/// ensuring the specs agree on pattern/WHERE/keys/window; this function only
/// re-validates each query's aggregates.
StatusOr<std::unique_ptr<ExecPlan>> BuildSharedPlan(
    const std::vector<const QuerySpec*>& specs, const Catalog& catalog,
    const EngineOptions& options);

/// The Kleene-prefix core of a desugared, positive, disjunction-free
/// alternative: the pattern itself when it is `K+`, or the first child of a
/// SEQ whose first child is `K+`. Returns nullptr when the pattern has no
/// Kleene prefix (then it cannot join a partial-sharing cluster).
const Pattern* KleenePrefixCore(const Pattern& alt);

/// True when one classified WHERE conjunct constrains the shared Kleene
/// core — a vertex predicate on a core type or an edge predicate between
/// core types. Such conjuncts shape the partial-sharing snapshot and must
/// agree across a cluster; one definition serves both the sharing
/// planner's pooling key and BuildPartialSharedPlan's re-validation, so
/// the two can never drift apart.
bool IsCoreSnapshotPredicate(const ClassifiedPredicate& cp,
                             const std::vector<TypeId>& core_types);

/// Compiles a cluster of queries that share a common Kleene sub-pattern
/// prefix (the Hamlet-style *partial sharing* case) into one merged plan
/// carrying a PartialSharingPlan. Requirements, re-validated here:
///  - every pattern is positive, desugars to exactly one alternative, and
///    starts with the same Kleene core (equal template fingerprint);
///  - WHERE conjuncts touching core types agree across the cluster (they
///    shape the shared snapshot); suffix predicates are per query;
///  - equivalence and GROUP-BY attributes agree (shared partitioning);
///  - windows are all unbounded, or all bounded with equal slide (within
///    may differ: the plan window is the union, per-query ranges select
///    live windows);
///  - semantics is skip-till-any-match (the restricted semantics tie
///    bookkeeping to a single query's structure and are planned unshared).
StatusOr<std::unique_ptr<ExecPlan>> BuildPartialSharedPlan(
    const std::vector<const QuerySpec*>& specs, const Catalog& catalog,
    const EngineOptions& options);

}  // namespace greta

#endif  // GRETA_CORE_PLAN_H_
