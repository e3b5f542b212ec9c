#ifndef GRETA_CORE_GRETA_GRAPH_H_
#define GRETA_CORE_GRETA_GRAPH_H_

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "common/event_batch.h"
#include "common/memory.h"
#include "predicate/batch_filter.h"
#include "core/negation.h"
#include "core/plan.h"
#include "storage/pane.h"

namespace greta {

/// A vertex of the runtime GRETA graph: one matched event at one template
/// state, carrying one aggregate row per window it falls into (Definition 3
/// plus the sliding-window sharing of Section 6). Edges are never stored —
/// each edge is traversed exactly once while the aggregate of the new event
/// is computed (Section 7).
///
/// The vertex is a single flat struct with zero per-vertex heap
/// allocations: both side arrays live in the owning pane's arena and are
/// freed wholesale when the pane expires (Section 7 batch deletion).
///  - `cells` — the aggregate rows, one per window, each `stride` cells wide
///    (one per query slot under multi-query shared execution, src/sharing/;
///    snapshot plus fold cells under partial sharing). The cell type is the
///    one the graph's edge-fold policy stores: an 8-byte u64 count for
///    COUNT(*)-only modular graphs, a 16-byte Counter for exact ones, a
///    64-byte AggCell otherwise (src/core/README.md). The vertex does not
///    know the type; GretaGraph reads rows through its bound policy and
///    runs the cell destructors (for non-trivial types) before the pane
///    drops them.
///  - `attrs` — the stored-event payload: instead of a full Event copy the
///    vertex keeps time/seq plus only the leading attribute values scan-time
///    residual edge predicates read (StatePlan::stored_attr_count; zero for
///    tree-indexed queries).
struct GraphVertex {
  Ts time = 0;
  SeqNo seq = 0;
  void* cells = nullptr;        // pane-arena backed, num_wids * stride cells
  const Value* attrs = nullptr; // pane-arena backed; borrowed view
  uint64_t used_transitions = 0;  // skip-till-next-match bookkeeping
  WindowId first_wid = 0;
  StateId state = kInvalidState;
  int16_t num_wids = 0;
  int16_t stride = 1;  // cells per window row
  uint16_t num_attrs = 0;
  bool dead = false;  // tombstone (invalid event pruning)

  /// The stored-event attribute view for predicate evaluation.
  EventView view() const { return EventView(attrs, num_attrs); }

  bool InWindow(WindowId wid) const {
    return wid >= first_wid && wid < first_wid + num_wids;
  }
  /// The row of window `wid` (which must be in range), read as the graph's
  /// stored cell type.
  template <class Cell>
  Cell* row(WindowId wid) const {
    return static_cast<Cell*>(cells) +
           static_cast<size_t>(wid - first_wid) * stride;
  }
};

/// Runtime instantiation of one GRETA template for one stream partition
/// (Section 4.2 / Algorithm 2, generalized to occurrence-unique states and
/// per-window aggregate cells). Invalidation by negative sub-patterns
/// arrives through attached NegationLinks (Section 5.2).
///
/// The row and run insert kernels are written once and bound per graph to
/// one edge-fold policy — the plan's PropKernel, or partial sharing
/// (src/core/README.md) — instead of re-testing AggPlan flags per edge per
/// window per query. Memory accounting is incremental: the pane store
/// charges the shared MemoryTracker at its allocation sites, so inserts
/// never walk cells.
class GretaGraph {
 public:
  GretaGraph(const GraphPlan* plan, const ExecPlan* exec,
             MemoryTracker* memory);
  ~GretaGraph();

  GretaGraph(const GretaGraph&) = delete;
  GretaGraph& operator=(const GretaGraph&) = delete;

  /// Wiring (engine setup): barriers affecting this graph.
  void AttachTransitionLink(int transition_index, NegationLink* link);
  void AttachGraphLink(NegationLink* link);
  void AttachFollowLink(NegationLink* link);
  /// This graph is a negative sub-pattern reporting finished trends. Its
  /// plan carries the max_start auxiliary, so it stores AggCells.
  void SetOutLink(NegationLink* link) {
    GRETA_DCHECK(plan_->agg.need_max_start);
    out_link_ = link;
  }

  /// Processes one event (all matching states). Events of types outside the
  /// template are ignored. Takes a borrowed view — an owning `Event` or an
  /// `EventBatch` row converts implicitly.
  void Insert(const EventRef& e);

  /// Processes `n` batch rows (given by `rows`, ascending, non-decreasing
  /// timestamps). Equivalent to Insert(batch.ref(rows[i])) in order — rows
  /// are split into equal-timestamp runs and, when the plan qualifies
  /// (skip-till-any-match, no negation), each run goes through an amortized
  /// batch kernel: one window-range division per run, one B+-tree
  /// predecessor collection per (transition, run), and one of three
  /// propagation strategies per (state, run) — a shared fold when every run
  /// event resolves identical key bounds, a suffix-sum merge for
  /// non-uniform pure-lower bounds on order-insensitive aggregates, or a
  /// per-event fold over the collected entries that replays the scalar
  /// kernel's exact operation order (residual predicates, upper bounds,
  /// order-sensitive SUM). Sliding windows, every PropKernel, and partial
  /// sharing are all covered; results are bit-identical to the scalar path
  /// (the equivalence tests assert it).
  ///
  /// The graph first decomposes its often-read fast-predicate attributes
  /// (kMinProjectedAttrUses) into a group-dense typed projection over
  /// rows[0..n) (lane k = rows[k], so filter selections are consecutive
  /// positions and the kernels take contiguous loads, not gathers); the
  /// state filters, per-event key re-filters and modular COUNT folds then
  /// run through the column kernels (common/simd.h). Results are
  /// bit-identical to the row kernel.
  void InsertBatch(const EventBatch& batch, const uint32_t* rows, size_t n);

  /// Why batch rows took the row-wise path (row counts, cumulative).
  enum class BatchFallbackReason : uint8_t {
    kDisabled = 0,   // enable_batch_kernels = false
    kSemantics = 1,  // skip-till-next / contiguous
    kNegation = 2,   // negation links attached to this graph
    kBounds = 3,     // NaN key bound or NaN tree key in a run
  };
  static constexpr size_t kNumBatchFallbackReasons = 4;

  /// Which amortized strategy a (state, run) took (selected-row counts,
  /// cumulative; one row can be counted once per matching state).
  enum class BatchStrategy : uint8_t {
    kSharedFold = 0,   // uniform bounds: one fold shared by the whole run
    kSuffixMerge = 1,  // nested-suffix admission: one add per entry
    kPerEvent = 2,     // per-event fold over the shared collection
  };
  static constexpr size_t kNumBatchStrategies = 3;

  const size_t* batch_fallback_rows() const { return batch_fallback_rows_; }
  const size_t* batch_strategy_rows() const { return batch_strategy_rows_; }

  /// Adds this graph's final aggregate for `wid` into `out` (Theorem 4.3:
  /// the sum over END events). With trailing negation (Case 2) this scans
  /// the surviving END vertices instead of using the incremental result.
  /// `q` selects the query slot under shared multi-query execution.
  void CollectWindow(WindowId wid, AggOutputs* out) {
    CollectWindow(wid, 0, out);
  }
  void CollectWindow(WindowId wid, size_t q, AggOutputs* out);

  /// Collects every query slot in one pass (one barrier computation and one
  /// END-vertex scan total, not per query). `outs` must have one entry per
  /// query slot; results are accumulated into it.
  void CollectWindowAll(WindowId wid, std::vector<AggOutputs>* outs);

  /// Releases per-window state after the window was emitted.
  void ForgetWindow(WindowId wid);

  /// Batch-deletes panes no future window can reach (Section 7); their
  /// charged bytes are released from the tracker wholesale.
  void Purge(Ts watermark);

  size_t num_vertices() const { return panes_.size(); }
  size_t total_vertices() const { return total_vertices_; }
  size_t edges_traversed() const { return edges_; }
  size_t ApproxBytes() const;

  /// Re-derives the bytes this graph has charged to the MemoryTracker by
  /// walking every pane (accounting invariant tests only).
  size_t RecomputeTrackedBytes() const {
    return panes_.RecomputeApproxBytes();
  }

 private:
  // Edge-fold policies (greta_graph.cc): what the cell layout changes
  // between the insert paths — the stored cell type, the state's window and
  // cell stride, the fold of one predecessor row into the new vertex's row,
  // the vertex's own contribution, the END accumulation, and which run
  // strategies the layout admits. One per PropKernel for dedicated plans,
  // one for partial sharing (ExecPlan::partial). Every structural decision
  // lives in the kernels, so results are bit-identical across policies by
  // construction.
  template <PropKernel K>
  struct DedicatedFold;
  struct PartialFold;

  // Binds the kernels and stored-row readers of one policy: insert_fn_,
  // insert_run_fn_, collect_ends_fn_ and destroy_rows_.
  template <class Fold>
  void UseFold();

  // The row kernel: one event at one state, including negation barriers,
  // invalid-event pruning and the restricted semantics' bookkeeping (no-ops
  // under PartialFold, whose plans the planner restricts to
  // skip-till-any-match without negation).
  template <class Fold>
  bool InsertAtState(const EventRef& e, StateId s);

  // Moves `src_cells` (k * stride scratch cells) and the stored attribute
  // prefix of `e` into the arena of the pane covering e.time and inserts
  // the assembled vertex.
  template <class Cell>
  GraphVertex* StoreVertex(const EventRef& e, StateId s, WindowId first_wid,
                           int k, int stride, Cell* src_cells);

  // Applies the vertex's own contribution to every active window row of
  // `cells` (`active` null: every window; else one flag per window),
  // stores the vertex and, unless trailing negation defers it to window
  // close, accumulates the END results; `outs(c)` yields the result slots
  // of window first_wid + c.
  template <class Fold, class Outs>
  GraphVertex* FinishAndStore(const Fold& fold, const EventRef& e, StateId s,
                              bool is_start, WindowId first_wid, int k,
                              typename Fold::Cell* cells,
                              const uint8_t* active, Outs& outs);

  // Case-2 window close: accumulates query slots [q0, q0 + n) of the END
  // vertices that survive the trailing-negation barrier into outs[0, n).
  template <class Fold>
  void CollectEnds(WindowId wid, size_t q0, size_t n, AggOutputs* outs);

  // Batch fast path: true when every structural precondition holds for this
  // call (the plan-level part is precomputed in the constructor; negation
  // links attach after construction, so they are tested per call).
  bool BatchFastPathEligible() const {
    return batch_plan_ok_ && !has_negation_links_ && graph_links_.empty() &&
           follow_links_.empty() && out_link_ == nullptr;
  }

  // One equal-timestamp run of batch rows through the amortized run kernel.
  // Strategy is chosen per (state, run) from the resolved key bounds, the
  // plan's residual predicates and what the policy admits; NaN bounds/keys
  // fall back to the row kernel per (state, run), which is correct at that
  // granularity because same-timestamp insertions commute under
  // skip-till-any-match.
  template <class Fold>
  void InsertRunFast(const EventBatch& batch, const uint32_t* rows, size_t n,
                     Ts ts);

  // Selects the run rows of state `si`'s type that pass its local
  // predicates into run_sel_; returns their count.
  size_t SelectRunRows(const EventBatch& batch, const uint32_t* rows,
                       size_t n, size_t si);

  // How a (state, run)'s resolved key bounds look across its events.
  struct RunShape {
    bool uniform = true;        // bitwise-identical bounds per transition
    bool lower_only = true;     // no finite or strict upper bound anywhere
    bool has_residuals = false; // some transition has residual predicates
  };
  // Resolves per-(transition, event) key bounds of the m selected rows into
  // run_lo_/run_hi_/run_*_strict_ and run_tidx_. Returns false when a bound
  // is NaN.
  bool ResolveRunBounds(const EventBatch& batch, StateId s, size_t m,
                        RunShape* shape);
  // The resolved bounds of (transition t, event i) at `at` = t * m + i.
  KeyBounds RunBounds(size_t at) const {
    KeyBounds b;
    b.lo = run_lo_[at];
    b.hi = run_hi_[at];
    b.lo_strict = run_lo_strict_[at] != 0;
    b.hi_strict = run_hi_strict_[at] != 0;
    return b;
  }

  // Collects one predecessor-entry span per transition for a run: the
  // weakest bounds over the run's events, entries in pane-major ascending
  // key order (the scalar scan's order). Returns false when a NaN tree key
  // was seen — per-pane positional scans and value-based re-filtering only
  // agree on real keys, so such runs take the scalar kernel. `lo_time` is
  // the scan floor; spans are recorded in run_spans_ (nt + 1 offsets) and
  // entry views (for residual evaluation) in run_views_.
  template <class Cell>
  bool CollectRunEntries(const std::vector<StateId>& pred_states, Ts lo_time,
                         Ts ts, size_t m, bool lower_only, WindowId first_wid,
                         WindowId last_wid);

  // Per-event strategy: the dense entry keys and the prev-side predicate
  // columns.
  void BuildEntryLanes(size_t nt);

  // Per-event strategy: the entries of transition span `t` an event with
  // bounds `b` admits, then its compiled residual filter. Leaves the
  // surviving entry indices in run_filtered_; returns their count.
  size_t RefilterEntries(size_t t, const KeyBounds& b, const EventView& e_view);

  // Aggregate plan of query slot `q` (plans predating the multi-query
  // extension may leave GraphPlan::aggs empty; they have exactly one slot).
  const AggPlan& AggAt(size_t q) const {
    return plan_->aggs.empty() ? plan_->agg : plan_->aggs[q];
  }

  Ts TransitionBarrier(int transition_index, WindowId wid, Ts now);

  const GraphPlan* plan_;
  const ExecPlan* exec_;
  int num_queries_;  // query slots per (vertex, window): plan_->aggs.size()
  PaneStore<GraphVertex> panes_;
  // Row- and run-kernel dispatch and the stored-row readers, resolved once
  // by UseFold (the run kernel is only called when BatchFastPathEligible();
  // destroy_rows_ is null when the stored cell type is trivial).
  bool (GretaGraph::*insert_fn_)(const EventRef&, StateId) = nullptr;
  void (GretaGraph::*insert_run_fn_)(const EventBatch&, const uint32_t*,
                                     size_t, Ts) = nullptr;
  void (GretaGraph::*collect_ends_fn_)(WindowId, size_t, size_t,
                                       AggOutputs*) = nullptr;
  void (*destroy_rows_)(const GraphVertex&) = nullptr;
  // Rows under construction, in the bound policy's stored cell type (set
  // by UseFold): the row kernel's vertex, filled during the predecessor
  // scan and moved into the pane arena only if the vertex is actually
  // inserted (so rejected events never consume arena space), and the run
  // kernel's per-event rows and shared/suffix accumulators. Reused across
  // inserts.
  template <class Cell>
  struct RowScratch {
    std::vector<Cell> vertex;  // k * stride
    std::vector<Cell> run;     // per selected row: k * stride
    std::vector<Cell> acc;     // k * stride
  };
  std::variant<RowScratch<uint64_t>, RowScratch<Counter>, RowScratch<AggCell>>
      scratch_;
  template <class Cell>
  RowScratch<Cell>& Scratch() {
    return *std::get_if<RowScratch<Cell>>(&scratch_);
  }
  std::vector<uint8_t> window_active_;  // row kernel: Case-3 flag per window
  std::unordered_map<WindowId, std::vector<AggOutputs>> results_;
  std::vector<std::vector<NegationLink*>> transition_links_;
  std::vector<NegationLink*> graph_links_;   // Case 2: all transitions
  std::vector<NegationLink*> follow_links_;  // Case 3
  NegationLink* out_link_ = nullptr;
  SeqNo last_seen_seq_ = kMinSeq;  // contiguous semantics
  size_t edges_ = 0;
  size_t total_vertices_ = 0;
  bool single_window_;  // enables eager invalid-event pruning
  // Plan-level batch fast-path eligibility (constructor; see
  // BatchFastPathEligible) and whether any AttachTransitionLink happened.
  bool batch_plan_ok_ = false;
  bool has_negation_links_ = false;
  // Per-state compiled local-predicate filters and per-transition compiled
  // residual edge filters (built only when the plan qualifies for the batch
  // fast path).
  std::vector<CompiledVertexFilter> state_filters_;
  std::vector<CompiledEdgeFilter> edge_filters_;  // indexed by transition
  // Any query slot folds an order-sensitive double SUM (resolved once; the
  // suffix merge re-associates additions and is only valid without it).
  bool any_sum_ = false;
  // Batch observability (plain members like edges_; the engine flushes
  // deltas into telemetry at window close and sums them into EngineStats).
  size_t batch_fallback_rows_[kNumBatchFallbackReasons] = {0, 0, 0, 0};
  size_t batch_strategy_rows_[kNumBatchStrategies] = {0, 0, 0};
  // Per-InsertBatch group-dense projection over this call's row group
  // (built only when proj_attrs_ is non-empty). Lane k of group_proj_ is
  // batch row group_rows_[k]; run_base_ is the current run's offset into
  // the group, so run positions are consecutive lanes. Minimum kernel-pass
  // reads of a column (fast-pred uses across every state) before the graph
  // projects it; see the constructor's policy note.
  static constexpr size_t kMinProjectedAttrUses = 3;
  std::vector<AttrId> proj_attrs_;  // fast attrs passing the use threshold
  ColumnProjection group_proj_;
  const uint32_t* group_rows_ = nullptr;
  size_t run_base_ = 0;
  // InsertRunFast scratch, reused across runs to avoid per-run allocation.
  std::vector<uint32_t> run_sel_;        // batch rows selected at the state
  std::vector<uint32_t> run_pos_;        // their group_proj_ lane positions
  std::vector<double> run_lo_;           // per (transition, row): key bounds
  std::vector<double> run_hi_;
  std::vector<uint8_t> run_lo_strict_;
  std::vector<uint8_t> run_hi_strict_;
  std::vector<uint8_t> run_found_;       // per selected row: found_pred
  std::vector<uint32_t> run_order_;      // rows sorted by (lo desc)
  struct CollectedEntry {
    double key;
    const GraphVertex* u;
  };
  std::vector<CollectedEntry> run_entries_;  // all transitions, span-sliced
  std::vector<size_t> run_spans_;            // nt + 1 offsets into entries
  std::vector<EventView> run_views_;         // parallel to run_entries_
  std::vector<uint32_t> run_filtered_;       // per (event, transition) sel
  // Typed lanes over the collected entries (per-event strategy only): dense
  // keys for the range re-filter, dense modular counts for the fused count
  // fold, and per-transition prev-side predicate columns.
  std::vector<double> run_keys_;
  std::vector<uint64_t> run_counts_;
  std::vector<CompiledEdgeFilter::PrevColumns> run_prev_cols_;
  std::vector<int> run_tidx_;                // per transition: t_idx
  std::vector<std::vector<AggOutputs>*> run_outs_;  // per window result slot
  // One-entry cache for the per-END-insert results_[wid] hash lookup
  // (window ids advance monotonically, so consecutive END inserts hit the
  // same entry). Entries are stable across rehash (node-based map);
  // invalidated on ForgetWindow.
  WindowId results_cache_wid_ = 0;
  std::vector<AggOutputs>* results_cache_ = nullptr;

  std::vector<AggOutputs>* ResultsFor(WindowId wid) {
    if (results_cache_ != nullptr && results_cache_wid_ == wid) {
      return results_cache_;
    }
    std::vector<AggOutputs>& out = results_[wid];
    if (out.empty()) out.resize(num_queries_);
    results_cache_wid_ = wid;
    results_cache_ = &out;
    return &out;
  }
};

}  // namespace greta

#endif  // GRETA_CORE_GRETA_GRAPH_H_
