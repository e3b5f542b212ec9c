#include "core/greta_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>
#include <numeric>
#include <type_traits>

#include "common/simd.h"
#include "storage/window.h"

namespace greta {

namespace {

// The ids of the windows an event at time `t` falls into. Tumbling windows
// (within == slide) need one division.
void WindowRange(const WindowSpec& window, Ts t, WindowId* first,
                 WindowId* last) {
  if (!window.unbounded() && window.within == window.slide) {
    *first = *last = LastWindowOf(t, window);
  } else {
    *first = FirstWindowOf(t, window);
    *last = LastWindowOf(t, window);
  }
}

// Stored-cell readers shared by the policies and the Case-2 close walk. A
// row's first cell carries the structural trend count: it is the same in
// every query slot of a dedicated row, and it is partial sharing's
// snapshot slot.
bool ZeroCount(uint64_t c) { return c == 0; }
bool ZeroCount(const Counter& c) { return c.IsZero(); }
bool ZeroCount(const AggCell& c) { return c.count.IsZero(); }

// Adds one stored END cell of query slot `plan` into its window result. The
// count-only cells are added only after their row's count tested nonzero.
void AddEnd(uint64_t c, const AggPlan& /*plan*/, AggOutputs* out) {
  out->count.AddRaw(c);  // u64 cells are the modular kernel's
  out->any = true;
}
void AddEnd(const Counter& c, const AggPlan& plan, AggOutputs* out) {
  out->count.Add(c, plan.mode);
  out->any = true;
}
void AddEnd(const AggCell& c, const AggPlan& plan, AggOutputs* out) {
  out->AccumulateEnd(c, plan);
}

// The pane arenas never run destructors; for a non-trivial stored cell type
// (a promoted exact-mode Counter owns heap storage) the graph runs them on
// every vertex its panes drop.
template <class Cell>
void DestroyRows(const GraphVertex& v) {
  Cell* cells = static_cast<Cell*>(v.cells);
  const size_t n = static_cast<size_t>(v.num_wids) * v.stride;
  for (size_t i = 0; i < n; ++i) cells[i].~Cell();
}

}  // namespace

// Edge-fold policies. The insert kernels are written once; a policy
// supplies only what the cell layout changes: the stored cell type, the
// state's window and cell stride, the fold of one predecessor row (one
// window's cells) into the new vertex's row, the vertex's own contribution,
// the END accumulation, and which run strategies the layout admits. Predecessor scans, barriers,
// strategy selection, typed lanes and storage are shared, so every policy
// sees the same entries in the same order.

// Dedicated plans: a (vertex, window) row holds one cell per query slot and
// an edge adds the predecessor's row slot by slot. A cell holds only what
// the kernel reads: the COUNT(*)-only kernels store the bare trend count —
// a wrapping u64 (8 bytes, no flag tests, no promotion checks) or an exact
// Counter (16 bytes) — and the generic kernel a flag-tested AggCell.
template <PropKernel K>
struct GretaGraph::DedicatedFold {
  using Cell = std::conditional_t<
      K == PropKernel::kCountModular, uint64_t,
      std::conditional_t<K == PropKernel::kCountExact, Counter, AggCell>>;
  // The fused masked sum folds one u64 count per collected entry.
  static constexpr bool kFusedCount = K == PropKernel::kCountModular;

  DedicatedFold(const GretaGraph& graph, StateId s)
      : g(graph), nq(graph.num_queries_), is_end(graph.plan_->templ.IsEnd(s)) {}

  const WindowSpec& window() const { return g.exec_->window; }
  int stride() const { return nq; }
  // The suffix merge re-associates additions across events: exact for
  // counts, MIN and MAX, not for an order-sensitive double SUM.
  bool suffix_merge() const { return !g.any_sum_; }
  bool fused_count(int k) const { return kFusedCount && k == 1 && nq == 1; }

  void Edge(int /*t_idx*/, StateId /*p*/, const Cell* u, Cell* v) const {
    for (int q = 0; q < nq; ++q) {
      if constexpr (K == PropKernel::kCountModular) {
        v[q] += u[q];  // wrapping by design
      } else if constexpr (K == PropKernel::kCountExact) {
        v[q].Add(u[q], CounterMode::kExact);
      } else {
        v[q].AddPredecessor(u[q], g.AggAt(q));
      }
    }
  }

  void Finish(const EventRef& e, bool is_start, Cell* row) const {
    for (int q = 0; q < nq; ++q) {
      if constexpr (K == PropKernel::kCountModular) {
        if (is_start) ++row[q];
      } else if constexpr (K == PropKernel::kCountExact) {
        if (is_start) row[q].AddOne(CounterMode::kExact);
      } else {
        row[q].FinishVertex(e, is_start, g.AggAt(q));
      }
    }
  }

  template <class Outs>
  void End(const GraphVertex& v, Ts /*t*/, Outs& outs) const {
    if (!is_end) return;
    for (int c = 0; c < v.num_wids; ++c) {
      const Cell* row = v.row<Cell>(v.first_wid + c);
      if (ZeroCount(row[0])) continue;
      std::vector<AggOutputs>& out = outs(c);
      for (int q = 0; q < nq; ++q) AddEnd(row[q], g.AggAt(q), &out[q]);
    }
  }

  const GretaGraph& g;
  const int nq;
  const bool is_end;
};

// Partial sharing (ExecPlan::partial, Hamlet snapshot propagation) over a
// merged template. Shared-core vertices carry one structural snapshot cell
// per window (slot 0: the trend count, identical for every query) plus one
// fold cell per query that aggregates attributes; per-query continuation
// vertices carry a single full cell laid out over the owning query's own
// window range.
struct GretaGraph::PartialFold {
  using Cell = AggCell;
  static constexpr bool kFusedCount = false;

  PartialFold(const GretaGraph& graph, StateId state)
      : g(graph),
        partial(*graph.exec_->partial),
        s(state),
        owner(partial.state_owner[state]) {
    // The planner admits only skip-till-any-match clusters without
    // negation, so the row kernel's barrier, pruning and semantics
    // bookkeeping never fire under this policy.
    GRETA_DCHECK(g.exec_->semantics == Semantics::kSkipTillAnyMatch &&
                 !g.has_negation_links_ && g.graph_links_.empty() &&
                 g.follow_links_.empty() && g.out_link_ == nullptr);
  }

  // Core vertices span the cluster's union window range; a continuation
  // vertex spans its owner's own range (same slide, so the same window-id
  // grid — the per-query WITHIN only trims the front of the range).
  const WindowSpec& window() const {
    return owner < 0 ? g.exec_->window : partial.windows[owner];
  }
  int stride() const {
    return owner < 0 ? 1 + static_cast<int>(partial.num_fold_slots) : 1;
  }
  // Fold slots can carry order-sensitive SUM components, and snapshot
  // cells interleave with per-query folds: shared fold or per event only.
  bool suffix_merge() const { return false; }
  bool fused_count(int /*k*/) const { return false; }

  void Edge(int t_idx, StateId p, const AggCell* u, AggCell* v) const {
    const int t_owner = partial.transition_owner[t_idx];
    if (t_owner < 0) {
      // Core-internal edge: ONE snapshot propagation (the structural count
      // every query reads), plus the per-query folds.
      v[0].count.Add(u[0].count, g.exec_->mode);
      for (size_t f = 1; f <= partial.num_fold_slots; ++f) {
        v[f].AddPredecessorFold(u[f], g.AggAt(partial.fold_queries[f - 1]));
      }
      return;
    }
    // Query-owned edge (core hand-off or continuation-internal): only the
    // owner's aggregates move.
    const size_t q = static_cast<size_t>(t_owner);
    const AggPlan& qagg = g.AggAt(q);
    const int fold = partial.fold_slots[q];
    if (partial.state_owner[p] < 0) {
      // Hand-off: fold the shared snapshot into q's continuation.
      v[0].count.Add(u[0].count, qagg.mode);
      if (fold >= 0) v[0].AddPredecessorFold(u[fold], qagg);
    } else {
      v[0].AddPredecessor(u[0], qagg);
    }
  }

  // The merged start state is the shared Kleene core's start, shared by
  // every query; continuation states are never starts.
  void Finish(const EventRef& e, bool is_start, AggCell* row) const {
    if (owner >= 0) {
      row[0].FinishVertex(e, /*is_start=*/false, g.AggAt(owner));
      return;
    }
    if (is_start) row[0].count.AddOne(g.exec_->mode);
    for (size_t f = 1; f <= partial.num_fold_slots; ++f) {
      row[f].FinishVertexFold(e, row[0].count,
                              g.AggAt(partial.fold_queries[f - 1]));
    }
  }

  // Incremental final aggregates for every query whose END is this state.
  template <class Outs>
  void End(const GraphVertex& v, Ts t, Outs& outs) const {
    const WindowId first_wid = v.first_wid;
    const WindowId last_wid = first_wid + v.num_wids - 1;
    const size_t nq = g.plan_->aggs.size();
    for (size_t q = 0; q < nq; ++q) {
      if (partial.end_states[q] != s) continue;
      const AggPlan& qagg = g.AggAt(q);
      if (owner < 0) {
        // Core END (the query's whole pattern is the shared core): only the
        // windows live under q's own WITHIN read the snapshot.
        const WindowId q_first = FirstWindowOf(t, partial.windows[q]);
        const int fold = partial.fold_slots[q];
        for (WindowId w = std::max(first_wid, q_first); w <= last_wid; ++w) {
          const AggCell* snap = v.row<AggCell>(w);
          if (snap->count.IsZero()) continue;
          outs(static_cast<int>(w - first_wid))[q].AccumulateEndShared(
              snap->count, fold >= 0 ? snap + fold : nullptr, qagg);
        }
      } else {
        for (int c = 0; c < v.num_wids; ++c) {
          outs(c)[q].AccumulateEnd(*v.row<AggCell>(first_wid + c), qagg);
        }
      }
    }
  }

  const GretaGraph& g;
  const PartialSharingPlan& partial;
  const StateId s;
  const int owner;
};

template <class Fold>
void GretaGraph::UseFold() {
  using Cell = typename Fold::Cell;
  insert_fn_ = &GretaGraph::InsertAtState<Fold>;
  insert_run_fn_ = &GretaGraph::InsertRunFast<Fold>;
  collect_ends_fn_ = &GretaGraph::CollectEnds<Cell>;
  scratch_.emplace<RowScratch<Cell>>();
  if constexpr (!std::is_trivially_destructible_v<Cell>) {
    destroy_rows_ = &DestroyRows<Cell>;
  }
}

GretaGraph::GretaGraph(const GraphPlan* plan, const ExecPlan* exec,
                       MemoryTracker* memory)
    : plan_(plan),
      exec_(exec),
      num_queries_(plan->aggs.empty() ? 1
                                      : static_cast<int>(plan->aggs.size())),
      panes_(PaneSize(exec->window), plan->templ.num_states(), memory),
      single_window_(MaxWindowsPerEvent(exec->window) == 1) {
  transition_links_.resize(plan_->templ.transitions().size());
  // Kernel dispatch: resolved once per graph, not branch-tested per edge.
  if (exec_->partial.has_value()) {
    UseFold<PartialFold>();
  } else {
    switch (plan_->kernel) {
      case PropKernel::kCountModular:
        UseFold<DedicatedFold<PropKernel::kCountModular>>();
        break;
      case PropKernel::kCountExact:
        UseFold<DedicatedFold<PropKernel::kCountExact>>();
        break;
      case PropKernel::kGeneric:
        UseFold<DedicatedFold<PropKernel::kGeneric>>();
        break;
    }
  }

  // Plan-level batch fast-path eligibility (the link-dependent half lives in
  // BatchFastPathEligible, since negation links attach after construction).
  // The amortized kernel family relies only on the frozen-predecessor-set
  // property of strict trend order under skip-till-any-match — sliding
  // windows, every PropKernel, residual predicates and partial sharing are
  // all handled by strategy selection inside the run kernel (the planner
  // already restricts partial clusters to skip-till-any-match, so the
  // semantics test covers that path too).
  batch_plan_ok_ = exec_->enable_batch_kernels &&
                   exec_->semantics == Semantics::kSkipTillAnyMatch;
  for (size_t q = 0; q < static_cast<size_t>(num_queries_); ++q) {
    any_sum_ |= AggAt(q).need_sum;
  }
  if (batch_plan_ok_) {
    state_filters_.reserve(plan_->states.size());
    std::vector<AttrId> fast_uses;
    for (const StatePlan& sp : plan_->states) {
      state_filters_.emplace_back(sp.local_preds);
      state_filters_.back().AppendFastAttrUses(&fast_uses);
    }
    // Cost-based projection policy: decomposing a column costs one pass
    // over every group row, so it only pays when enough filter kernel
    // passes read it back (several predicates on the attr, or several
    // states of the same type re-filtering the same rows). Attrs below the
    // threshold keep the compiled scalar loops, which read the tagged
    // union in place for free.
    for (AttrId a : fast_uses) {
      size_t uses = 0;
      for (AttrId b : fast_uses) uses += b == a ? 1 : 0;
      bool seen = false;
      for (AttrId b : proj_attrs_) seen = seen || b == a;
      if (uses >= kMinProjectedAttrUses && !seen) proj_attrs_.push_back(a);
    }
    edge_filters_.reserve(plan_->transitions.size());
    for (const TransitionPlan& tp : plan_->transitions) {
      edge_filters_.emplace_back(tp.residual_preds);
    }
  }
}

GretaGraph::~GretaGraph() {
  if (destroy_rows_ != nullptr) panes_.ForEachVertex(destroy_rows_);
}

void GretaGraph::AttachTransitionLink(int transition_index,
                                      NegationLink* link) {
  GRETA_CHECK(transition_index >= 0 &&
              static_cast<size_t>(transition_index) <
                  transition_links_.size());
  transition_links_[transition_index].push_back(link);
  has_negation_links_ = true;
}

void GretaGraph::AttachGraphLink(NegationLink* link) {
  graph_links_.push_back(link);
}

void GretaGraph::AttachFollowLink(NegationLink* link) {
  follow_links_.push_back(link);
}

Ts GretaGraph::TransitionBarrier(int transition_index, WindowId wid, Ts now) {
  Ts barrier = kMinTs;
  for (NegationLink* link : transition_links_[transition_index]) {
    barrier = std::max(barrier, link->MaxStartBarrier(wid, now));
  }
  for (NegationLink* link : graph_links_) {
    barrier = std::max(barrier, link->MaxStartBarrier(wid, now));
  }
  return barrier;
}

void GretaGraph::Insert(const EventRef& e) {
  const std::vector<StateId>& states = plan_->templ.states_for_type(e.type);
  if (states.empty()) return;
  bool seen = false;
  for (StateId s : states) {
    seen |= (this->*insert_fn_)(e, s);
  }
  // Contiguous semantics: remember the newest event this graph has seen
  // (events failing vertex predicates "cannot be matched" and are skipped
  // under every semantics).
  if (seen) last_seen_seq_ = e.seq;
}

template <class Cell>
GraphVertex* GretaGraph::StoreVertex(const EventRef& e, StateId s,
                                     WindowId first_wid, int k, int stride,
                                     Cell* src_cells) {
  const StatePlan& sp = plan_->states[s];
  const int total = k * stride;

  // Move the finished source cells and the stored attribute prefix into
  // the arena of the pane that will own the vertex, then insert. The
  // following Insert() into the same pane picks up the arena growth for
  // incremental accounting.
  Arena* arena = panes_.ArenaFor(e.time);
  Cell* cells = arena->AllocateArray<Cell>(total);
  for (int i = 0; i < total; ++i) {
    new (&cells[i]) Cell(std::move(src_cells[i]));
  }
  uint16_t num_attrs = sp.stored_attr_count;
  GRETA_DCHECK(num_attrs <= e.num_attrs);
  if (num_attrs > e.num_attrs) {
    num_attrs = static_cast<uint16_t>(e.num_attrs);
  }
  const Value* attrs = nullptr;
  if (num_attrs > 0) {
    Value* copy = arena->AllocateArray<Value>(num_attrs);
    std::copy_n(e.attrs, num_attrs, copy);
    attrs = copy;
  }

  GraphVertex v;
  v.time = e.time;
  v.seq = e.seq;
  v.cells = cells;
  v.attrs = attrs;
  v.first_wid = first_wid;
  v.state = s;
  v.num_wids = static_cast<int16_t>(k);
  v.stride = static_cast<int16_t>(stride);
  v.num_attrs = num_attrs;

  double key = (sp.sort_attr == kInvalidAttr)
                   ? static_cast<double>(e.time)
                   : e.attr(sp.sort_attr).ToDouble();
  GraphVertex* stored =
      panes_.Insert(e.time, static_cast<size_t>(s), key, std::move(v));
  ++total_vertices_;
  return stored;
}

template <class Fold, class Outs>
GraphVertex* GretaGraph::FinishAndStore(const Fold& fold, const EventRef& e,
                                        StateId s, bool is_start,
                                        WindowId first_wid, int k,
                                        typename Fold::Cell* cells,
                                        const uint8_t* active, Outs& outs) {
  const int stride = fold.stride();
  for (int c = 0; c < k; ++c) {
    if (active != nullptr && active[c] == 0) continue;
    fold.Finish(e, is_start, cells + static_cast<size_t>(c) * stride);
  }
  GraphVertex* stored = StoreVertex(e, s, first_wid, k, stride, cells);
  // With trailing negation (Case 2) the final aggregate is collected at
  // window close from the surviving END vertices instead.
  if (graph_links_.empty()) fold.End(*stored, e.time, outs);
  return stored;
}

template <class Fold>
bool GretaGraph::InsertAtState(const EventRef& e, StateId s) {
  using Cell = typename Fold::Cell;
  const StatePlan& sp = plan_->states[s];
  for (const Expr* pred : sp.local_preds) {
    if (!pred->EvalVertex(e).Truthy()) return false;
  }

  const Fold fold(*this, s);
  const WindowSpec& window = fold.window();
  WindowId first_wid, last_wid;
  WindowRange(window, e.time, &first_wid, &last_wid);
  const int k = static_cast<int>(last_wid - first_wid + 1);
  GRETA_DCHECK(k >= 1);

  const int stride = fold.stride();
  std::vector<Cell>& scratch = Scratch<Cell>().vertex;
  scratch.assign(static_cast<size_t>(k) * stride, Cell());
  Cell* const cells = scratch.data();

  // Case-3 negation: windows in which a leading negative sub-pattern has
  // already finished reject new following-state events entirely. Activity is
  // a property of the pattern, so it is shared by every cell of the window.
  // An inactive window's row stays zero: it takes no edge and no finish, and
  // once stored its zero count bars it as a predecessor and at END.
  const uint8_t* active = nullptr;
  if (!follow_links_.empty()) {
    window_active_.assign(static_cast<size_t>(k), 1);
    bool any_active = false;
    for (int i = 0; i < k; ++i) {
      for (NegationLink* link : follow_links_) {
        if (link->foll_state() == s &&
            link->MinEndBarrier(first_wid + i, e.time) < e.time) {
          window_active_[i] = 0;
          break;
        }
      }
      any_active |= window_active_[i] != 0;
    }
    if (!any_active) return true;
    active = window_active_.data();
  }

  bool is_start = plan_->templ.IsStart(s);
  bool found_pred = false;

  const bool skip_till_next =
      exec_->semantics == Semantics::kSkipTillNextMatch;
  const bool contiguous = exec_->semantics == Semantics::kContiguous;

  for (StateId p : plan_->templ.pred_states(s)) {
    int t_idx = plan_->templ.FindTransition(p, s);
    GRETA_DCHECK(t_idx >= 0);
    const TransitionPlan& tp = plan_->transitions[t_idx];

    // Negation barriers per shared window (Cases 1 and 2).
    const bool has_barriers =
        !transition_links_[t_idx].empty() || !graph_links_.empty();
    std::vector<Ts> barrier;
    if (has_barriers) {
      barrier.resize(k);
      for (int i = 0; i < k; ++i) {
        barrier[i] = TransitionBarrier(t_idx, first_wid + i, e.time);
      }
    }

    // Key range on the predecessor tree from the sort-key predicates.
    KeyBounds bounds = CombineTransitionBounds(tp, e);

    Ts lo_time = window.unbounded() ? kMinTs : WindowStartTime(first_wid, window);
    const bool can_prune = exec_->enable_pruning && single_window_ &&
                           has_barriers &&
                           plan_->templ.succ_states(p).size() == 1;

    panes_.ScanBucket(lo_time, e.time, static_cast<size_t>(p), bounds,
                      [&](GraphVertex* u) {
      if (u->dead) return;
      if (u->time >= e.time) return;  // Strict trend order (Def. 1).
      if (contiguous && u->seq != last_seen_seq_) return;
      if (skip_till_next && ((u->used_transitions >> t_idx) & 1)) return;
      // Residual edge predicates (those not enforced by the key range).
      for (const Expr* pred : tp.residual_preds) {
        if (!pred->EvalEdge(u->view(), e).Truthy()) return;
      }
      WindowId lo_w = std::max(first_wid, u->first_wid);
      WindowId hi_w =
          std::min(last_wid, u->first_wid + WindowId{u->num_wids} - 1);
      if (lo_w > hi_w) return;
      bool contributed = false;
      bool barred_everywhere = has_barriers;
      for (WindowId w = lo_w; w <= hi_w; ++w) {
        // Connectivity (activity, count, barriers) is per (vertex, window)
        // and identical across the window's cells — only the propagated
        // aggregates differ, so the policy's edge fold sits inside the
        // structural checks.
        const Cell* urow = u->row<Cell>(w);
        if (ZeroCount(urow[0]) ||
            (active != nullptr && active[w - first_wid] == 0)) {
          barred_everywhere = false;
          continue;
        }
        if (has_barriers && u->time < barrier[w - first_wid]) continue;
        fold.Edge(t_idx, p, urow, cells + (w - first_wid) * stride);
        contributed = true;
        barred_everywhere = false;
        ++edges_;
      }
      if (contributed) {
        found_pred = true;
        if (skip_till_next) u->used_transitions |= uint64_t{1} << t_idx;
      } else if (barred_everywhere && can_prune && lo_w == u->first_wid &&
                 hi_w == u->first_wid + u->num_wids - 1) {
        // Invalid event pruning (Theorem 5.1): u can only ever connect via
        // this transition and is invalid in all its windows.
        u->dead = true;
      }
    });
  }

  if (!is_start && !found_pred) return true;  // Not inserted (Algorithm 2).

  auto outs = [&](int c) -> std::vector<AggOutputs>& {
    return *ResultsFor(first_wid + c);
  };
  GraphVertex* stored = FinishAndStore(fold, e, s, is_start, first_wid, k,
                                       cells, active, outs);

  // A negative sub-pattern reports its finished trends (SetOutLink: such a
  // graph carries max_start, so it stores AggCells).
  if constexpr (std::is_same_v<Cell, AggCell>) {
    if (out_link_ != nullptr && plan_->templ.IsEnd(s)) {
      for (int i = 0; i < k; ++i) {
        const AggCell* row = stored->row<AggCell>(first_wid + i);
        if (row->count.IsZero()) continue;
        out_link_->ReportTrendEnd(first_wid + i, e.time, row->max_start);
      }
    }
  }
  return true;
}

void GretaGraph::InsertBatch(const EventBatch& batch, const uint32_t* rows,
                             size_t n) {
  if (n == 0) return;
  if (!BatchFastPathEligible()) {
    const BatchFallbackReason reason =
        !exec_->enable_batch_kernels ? BatchFallbackReason::kDisabled
        : exec_->semantics != Semantics::kSkipTillAnyMatch
            ? BatchFallbackReason::kSemantics
            : BatchFallbackReason::kNegation;
    batch_fallback_rows_[static_cast<size_t>(reason)] += n;
    for (size_t i = 0; i < n; ++i) Insert(batch.ref(rows[i]));
    return;
  }
  // Decompose this group's fast-predicate attrs once, group-dense: lane k
  // holds batch row rows[k], so the per-run selections below are runs of
  // consecutive positions and the filter kernels load contiguously instead
  // of gathering partition-strided batch rows.
  if (!proj_attrs_.empty()) {
    group_proj_.ProjectRows(batch, proj_attrs_, rows, n);
  }
  group_rows_ = rows;
  // Split into equal-timestamp runs: within a run the strict trend order
  // (Def. 1, u.time < e.time) makes the predecessor set identical for every
  // event, so the run shares one collection and one window-id range.
  size_t i = 0;
  while (i < n) {
    Ts ts = batch.time(rows[i]);
    size_t j = i + 1;
    while (j < n && batch.time(rows[j]) == ts) ++j;
    run_base_ = i;
    (this->*insert_run_fn_)(batch, rows + i, j - i, ts);
    i = j;
  }
}

size_t GretaGraph::SelectRunRows(const EventBatch& batch, const uint32_t* rows,
                                 size_t n, size_t si) {
  const TypeId type = plan_->states[si].type;
  run_sel_.clear();
  if (!proj_attrs_.empty()) {
    // Select by consecutive projection lane, filter through the column
    // kernels, then map surviving positions back to batch rows.
    run_pos_.clear();
    for (size_t r = 0; r < n; ++r) {
      if (batch.type(rows[r]) == type) {
        run_pos_.push_back(static_cast<uint32_t>(run_base_ + r));
      }
    }
    if (run_pos_.empty()) return 0;
    const size_t m = state_filters_[si].Filter(
        batch, group_proj_, group_rows_, run_pos_.data(), run_pos_.size());
    run_sel_.resize(m);
    for (size_t k = 0; k < m; ++k) run_sel_[k] = group_rows_[run_pos_[k]];
    return m;
  }
  for (size_t r = 0; r < n; ++r) {
    if (batch.type(rows[r]) == type) run_sel_.push_back(rows[r]);
  }
  if (run_sel_.empty()) return 0;
  const size_t m =
      state_filters_[si].Filter(batch, run_sel_.data(), run_sel_.size());
  run_sel_.resize(m);
  return m;
}

bool GretaGraph::ResolveRunBounds(const EventBatch& batch, StateId s, size_t m,
                                  RunShape* shape) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<StateId>& pred_states = plan_->templ.pred_states(s);
  const size_t nt = pred_states.size();
  run_tidx_.resize(nt);
  run_lo_.assign(nt * m, -kInf);
  run_hi_.assign(nt * m, kInf);
  run_lo_strict_.assign(nt * m, 0);
  run_hi_strict_.assign(nt * m, 0);
  *shape = RunShape{};
  for (size_t t = 0; t < nt; ++t) {
    int t_idx = plan_->templ.FindTransition(pred_states[t], s);
    GRETA_DCHECK(t_idx >= 0);
    run_tidx_[t] = t_idx;
    const TransitionPlan& tp = plan_->transitions[t_idx];
    shape->has_residuals |= !tp.residual_preds.empty();
    for (size_t i = 0; i < m; ++i) {
      KeyBounds b = CombineTransitionBounds(tp, batch.view(run_sel_[i]));
      if (std::isnan(b.lo) || std::isnan(b.hi)) return false;
      const size_t at = t * m + i;
      run_lo_[at] = b.lo;
      run_hi_[at] = b.hi;
      run_lo_strict_[at] = b.lo_strict ? 1 : 0;
      run_hi_strict_[at] = b.hi_strict ? 1 : 0;
      shape->uniform &= b.lo == run_lo_[t * m] && b.hi == run_hi_[t * m] &&
                        run_lo_strict_[at] == run_lo_strict_[t * m] &&
                        run_hi_strict_[at] == run_hi_strict_[t * m];
      shape->lower_only &= b.hi == kInf && !b.hi_strict;
    }
  }
  return true;
}

template <class Cell>
bool GretaGraph::CollectRunEntries(const std::vector<StateId>& pred_states,
                                   Ts lo_time, Ts ts, size_t m,
                                   bool lower_only, WindowId first_wid,
                                   WindowId last_wid) {
  const size_t nt = pred_states.size();
  run_entries_.clear();
  run_spans_.assign(1, 0);
  bool nan_key = false;
  for (size_t t = 0; t < nt; ++t) {
    // The weakest per-event bounds over the run: the minimum lo / maximum hi,
    // preferring non-strict at ties, so the collection is a superset of every
    // event's own scan. Entries outside the run's window range or zero in
    // every shared window can never contribute to any run event and are
    // dropped here once instead of re-tested per event.
    const double* lo_col = run_lo_.data() + t * m;
    const uint8_t* lo_strict_col = run_lo_strict_.data() + t * m;
    KeyBounds collect;
    collect.lo = lo_col[0];
    collect.lo_strict = lo_strict_col[0] != 0;
    for (size_t i = 1; i < m; ++i) {
      if (lo_col[i] < collect.lo ||
          (lo_col[i] == collect.lo && !lo_strict_col[i])) {
        collect.lo = lo_col[i];
        collect.lo_strict = lo_strict_col[i] != 0;
      }
    }
    if (!lower_only) {
      const double* hi_col = run_hi_.data() + t * m;
      const uint8_t* hi_strict_col = run_hi_strict_.data() + t * m;
      collect.hi = hi_col[0];
      collect.hi_strict = hi_strict_col[0] != 0;
      for (size_t i = 1; i < m; ++i) {
        if (hi_col[i] > collect.hi ||
            (hi_col[i] == collect.hi && !hi_strict_col[i])) {
          collect.hi = hi_col[i];
          collect.hi_strict = hi_strict_col[i] != 0;
        }
      }
    }
    panes_.ScanBucketWithKey(
        lo_time, ts, static_cast<size_t>(pred_states[t]), collect,
        [&](double key, GraphVertex* u) {
          if (u->dead) return;
          if (u->time >= ts) return;  // Strict trend order (Def. 1).
          if (std::isnan(key)) {
            nan_key = true;
            return;
          }
          WindowId lo_w = std::max(first_wid, u->first_wid);
          WindowId hi_w =
              std::min(last_wid, u->first_wid + WindowId{u->num_wids} - 1);
          if (lo_w > hi_w) return;
          bool live = false;
          for (WindowId w = lo_w; w <= hi_w && !live; ++w) {
            live = !ZeroCount(*u->row<Cell>(w));
          }
          if (!live) return;
          run_entries_.push_back({key, u});
        });
    run_spans_.push_back(run_entries_.size());
  }
  if (nan_key) return false;
  run_views_.resize(run_entries_.size());
  for (size_t i = 0; i < run_entries_.size(); ++i) {
    run_views_[i] = run_entries_[i].u->view();
  }
  return true;
}

void GretaGraph::BuildEntryLanes(size_t nt) {
  const size_t num_entries = run_entries_.size();
  run_keys_.resize(num_entries);
  for (size_t j = 0; j < num_entries; ++j) {
    run_keys_[j] = run_entries_[j].key;
  }
  run_prev_cols_.resize(nt);
  for (size_t t = 0; t < nt; ++t) {
    const size_t begin = run_spans_[t];
    const size_t end = run_spans_[t + 1];
    const CompiledEdgeFilter& ef = edge_filters_[run_tidx_[t]];
    if (begin != end && ef.has_fast()) {
      ef.BuildPrevColumns(run_views_.data() + begin, end - begin,
                          &run_prev_cols_[t]);
    }
  }
}

size_t GretaGraph::RefilterEntries(size_t t, const KeyBounds& b,
                                   const EventView& e_view) {
  const size_t begin = run_spans_[t];
  const size_t end = run_spans_[t + 1];
  run_filtered_.resize(end - begin);
  size_t cnt = simd::RangeSelect(
      run_keys_.data(), static_cast<uint32_t>(begin),
      static_cast<uint32_t>(end), b.lo, b.lo_strict, b.hi, b.hi_strict,
      run_filtered_.data());
  const CompiledEdgeFilter& ef = edge_filters_[run_tidx_[t]];
  if (cnt != 0 && !ef.trivial()) {
    // Non-empty span (the caller skips empty ones): BuildEntryLanes built
    // the prev-side columns iff the filter has fast predicates.
    cnt = ef.has_fast()
              ? ef.Filter(e_view, run_views_.data(), run_prev_cols_[t],
                          static_cast<uint32_t>(begin), run_filtered_.data(),
                          cnt)
              : ef.Filter(e_view, run_views_.data(), run_filtered_.data(),
                          cnt);
  }
  return cnt;
}

template <class Fold>
void GretaGraph::InsertRunFast(const EventBatch& batch, const uint32_t* rows,
                               size_t n, Ts ts) {
  using Cell = typename Fold::Cell;
  RowScratch<Cell>& scratch = Scratch<Cell>();
  // last_seen_seq_ bookkeeping (contiguous semantics, unread on this path
  // but kept exact): the newest run event passing local predicates at any
  // state. Row indices ascend within a run, so a max over rows suffices.
  uint32_t last_seen_row = 0;
  bool any_seen = false;

  const size_t num_states = plan_->states.size();
  for (size_t si = 0; si < num_states; ++si) {
    const StateId s = static_cast<StateId>(si);

    // Selection vector: run rows of this state's type passing its local
    // predicates (column loops; see predicate/batch_filter.h).
    const size_t m = SelectRunRows(batch, rows, n, si);
    if (m == 0) continue;
    if (!any_seen || run_sel_.back() > last_seen_row) {
      last_seen_row = run_sel_.back();
      any_seen = true;
    }

    const Fold fold(*this, s);
    const WindowSpec& window = fold.window();
    WindowId first_wid, last_wid;
    WindowRange(window, ts, &first_wid, &last_wid);
    const int k = static_cast<int>(last_wid - first_wid + 1);
    GRETA_DCHECK(k >= 1);
    const Ts lo_time =
        window.unbounded() ? kMinTs : WindowStartTime(first_wid, window);
    const size_t stride = static_cast<size_t>(fold.stride());
    const size_t cell_stride = static_cast<size_t>(k) * stride;
    const std::vector<StateId>& pred_states = plan_->templ.pred_states(s);
    const size_t nt = pred_states.size();

    // Per-(transition, event) key bounds, and the run classification that
    // picks the strategy: `uniform` (every event resolves bitwise-identical
    // bounds), `lower_only` (no finite/strict upper bound anywhere) and
    // whether any transition carries residual predicates.
    RunShape shape;
    const bool real_bounds = ResolveRunBounds(batch, s, m, &shape);

    // Strategy ladder. SharedFold replays one scalar scan for the whole run
    // (valid for every policy, including order-sensitive SUM: identical
    // entries in identical order, and copying the folded row is bitwise).
    // SuffixMerge re-associates additions across events, so the policy
    // must admit it (order-insensitive aggregates), and it needs pure lower
    // bounds. PerEvent replays the scalar kernel's exact op order per event
    // over the shared collection and handles everything else.
    BatchStrategy strat;
    if (!shape.has_residuals && shape.uniform) {
      strat = BatchStrategy::kSharedFold;
    } else if (!shape.has_residuals && shape.lower_only &&
               fold.suffix_merge()) {
      strat = BatchStrategy::kSuffixMerge;
    } else {
      strat = BatchStrategy::kPerEvent;
    }

    // NaN bounds — and NaN tree keys under the collection-based strategies —
    // take the row kernel per (state, run): value-based re-filtering only
    // agrees with the tree's positional scans on real keys. Correct at this
    // granularity because same-timestamp insertions commute under
    // skip-till-any-match. Collection happens before any fold, so the
    // fallback discards cleanly.
    if (!real_bounds ||
        (strat != BatchStrategy::kSharedFold &&
         !CollectRunEntries<Cell>(pred_states, lo_time, ts, m,
                            strat == BatchStrategy::kSuffixMerge, first_wid,
                            last_wid))) {
      batch_fallback_rows_[static_cast<size_t>(
          BatchFallbackReason::kBounds)] += m;
      for (size_t i = 0; i < m; ++i) {
        InsertAtState<Fold>(batch.ref(run_sel_[i]), s);
      }
      continue;
    }

    scratch.run.assign(m * cell_stride, Cell());
    Cell* const run_cells = scratch.run.data();
    run_found_.assign(m, 0);

    if (strat == BatchStrategy::kSharedFold) {
      // Every event admits the same entries: fold the bucket once into an
      // accumulator row and copy it into each event's cells.
      scratch.acc.assign(cell_stride, Cell());
      Cell* const acc = scratch.acc.data();
      bool any_entry = false;
      size_t shared_edges = 0;
      for (size_t t = 0; t < nt; ++t) {
        const int t_idx = run_tidx_[t];
        const StateId p = pred_states[t];
        panes_.ScanBucket(
            lo_time, ts, static_cast<size_t>(p), RunBounds(t * m),
            [&](GraphVertex* u) {
              if (u->dead) return;
              if (u->time >= ts) return;  // Strict trend order (Def. 1).
              WindowId lo_w = std::max(first_wid, u->first_wid);
              WindowId hi_w = std::min(
                  last_wid, u->first_wid + WindowId{u->num_wids} - 1);
              if (lo_w > hi_w) return;
              for (WindowId w = lo_w; w <= hi_w; ++w) {
                const Cell* urow = u->row<Cell>(w);
                if (ZeroCount(urow[0])) continue;
                fold.Edge(t_idx, p, urow,
                          acc + static_cast<size_t>(w - first_wid) * stride);
                any_entry = true;
                ++shared_edges;
              }
            });
      }
      edges_ += shared_edges * m;
      if (any_entry) {
        for (size_t i = 0; i < m; ++i) {
          run_found_[i] = 1;
          Cell* vrow = run_cells + i * cell_stride;
          for (size_t c = 0; c < cell_stride; ++c) vrow[c] = acc[c];
        }
      }
    } else if (strat == BatchStrategy::kSuffixMerge) {
      for (size_t t = 0; t < nt; ++t) {
        const size_t begin = run_spans_[t];
        const size_t end = run_spans_[t + 1];
        if (begin == end) continue;
        const int t_idx = run_tidx_[t];
        const StateId p = pred_states[t];
        // Entries arrive pane-major: a sliding collection spanning panes is
        // not globally key-sorted, so sort on demand (unstable is fine —
        // equal keys are consumed all-or-none and these folds commute).
        CollectedEntry* const ents = run_entries_.data();
        const auto by_key = [](const CollectedEntry& a,
                               const CollectedEntry& b) {
          return a.key < b.key;
        };
        if (!std::is_sorted(ents + begin, ents + end, by_key)) {
          std::sort(ents + begin, ents + end, by_key);
        }

        // Events ordered by descending lo (strict before non-strict at
        // equal lo): admitted entry sets are then nested suffixes of the
        // key-sorted collection, so a single backwards two-pointer merge
        // accumulates each entry into the running fold exactly once. Each
        // event pays one add per cell for its whole admitted set instead
        // of one per edge.
        const double* lo_col = run_lo_.data() + t * m;
        const uint8_t* strict_col = run_lo_strict_.data() + t * m;
        run_order_.resize(m);
        std::iota(run_order_.begin(), run_order_.end(), 0u);
        std::sort(run_order_.begin(), run_order_.end(),
                  [&](uint32_t a, uint32_t b) {
                    if (lo_col[a] != lo_col[b]) return lo_col[a] > lo_col[b];
                    return strict_col[a] > strict_col[b];
                  });

        scratch.acc.assign(cell_stride, Cell());
        Cell* const acc = scratch.acc.data();
        size_t ei = end;  // Entries [ei, end) are consumed.
        for (size_t r = 0; r < m; ++r) {
          const uint32_t i = run_order_[r];
          const double lo = lo_col[i];
          const bool strict = strict_col[i] != 0;
          while (ei > begin) {
            const double key = ents[ei - 1].key;
            if (!(strict ? key > lo : key >= lo)) break;
            --ei;
            const GraphVertex* u = ents[ei].u;
            WindowId lo_w = std::max(first_wid, u->first_wid);
            WindowId hi_w =
                std::min(last_wid, u->first_wid + WindowId{u->num_wids} - 1);
            for (WindowId w = lo_w; w <= hi_w; ++w) {
              const Cell* urow = u->row<Cell>(w);
              if (ZeroCount(urow[0])) continue;
              fold.Edge(t_idx, p, urow,
                        acc + static_cast<size_t>(w - first_wid) * stride);
              // This entry is admitted by every event of rank >= r (their
              // lo bounds only weaken), i.e. it accounts for (m - r) edges.
              edges_ += m - r;
            }
          }
          if (ei == end) continue;  // Nothing admitted yet.
          run_found_[i] = 1;
          // The running fold enters the event as one predecessor row per
          // window: the policies that admit the suffix merge fold slot by
          // slot, so this is the same add per cell.
          Cell* vrow = run_cells + static_cast<size_t>(i) * cell_stride;
          for (int c = 0; c < k; ++c) {
            fold.Edge(t_idx, p, acc + c * stride, vrow + c * stride);
          }
        }
      }
    } else {
      // PerEvent: each event re-filters the shared collection by its own
      // bounds and the transition's compiled residual filter, then folds
      // the survivors in the scalar scan's exact order — bit-identical even
      // for SUM.
      //
      // Typed lanes: the entry keys are copied into a dense column once per
      // (state, run) so each event's re-filter is one range-select;
      // transitions with fast-shape residuals get prev-side predicate
      // columns; and where the policy allows it (the single-window modular
      // COUNT shape) transitions with no residuals fuse re-filter and fold
      // into one masked wrapping sum (associative, so lane order cannot
      // change the result).
      const bool fuse_counts = fold.fused_count(k);
      BuildEntryLanes(nt);
      if constexpr (Fold::kFusedCount) {
        if (fuse_counts) {
          // k == 1: the collection kept only entries live in THE window, so
          // this row exists and the fused fold adds the same nonzero counts
          // the scalar ZeroCount test admits.
          run_counts_.resize(run_entries_.size());
          for (size_t j = 0; j < run_entries_.size(); ++j) {
            run_counts_[j] = *run_entries_[j].u->row<Cell>(first_wid);
          }
        }
      }
      for (size_t i = 0; i < m; ++i) {
        const EventView e_view = batch.view(run_sel_[i]);
        Cell* vrow = run_cells + i * cell_stride;
        bool found = false;
        for (size_t t = 0; t < nt; ++t) {
          const size_t begin = run_spans_[t];
          const size_t end = run_spans_[t + 1];
          if (begin == end) continue;
          const int t_idx = run_tidx_[t];
          const KeyBounds b = RunBounds(t * m + i);
          if constexpr (Fold::kFusedCount) {
            if (fuse_counts && edge_filters_[t_idx].trivial()) {
              const simd::MaskedSum ms = simd::MaskedCountSum(
                  run_keys_.data(), run_counts_.data(),
                  static_cast<uint32_t>(begin), static_cast<uint32_t>(end),
                  b.lo, b.lo_strict, b.hi, b.hi_strict);
              if (ms.lanes != 0) {
                vrow[0] += ms.sum;  // wrapping by design
                found = true;
                edges_ += ms.lanes;
              }
              continue;
            }
          }
          const size_t cnt = RefilterEntries(t, b, e_view);
          for (size_t fj = 0; fj < cnt; ++fj) {
            const GraphVertex* u = run_entries_[run_filtered_[fj]].u;
            WindowId lo_w = std::max(first_wid, u->first_wid);
            WindowId hi_w =
                std::min(last_wid, u->first_wid + WindowId{u->num_wids} - 1);
            for (WindowId w = lo_w; w <= hi_w; ++w) {
              const Cell* urow = u->row<Cell>(w);
              if (ZeroCount(urow[0])) continue;
              fold.Edge(t_idx, pred_states[t], urow,
                        vrow + static_cast<size_t>(w - first_wid) * stride);
              found = true;
              ++edges_;
            }
          }
        }
        run_found_[i] = found ? 1 : 0;
      }
    }
    batch_strategy_rows_[static_cast<size_t>(strat)] += m;

    // Finish + store, in arrival order. Bulk-reserve the pane arena first so
    // the stores bump-allocate without mid-run chunk growth. Every stored
    // cell type and Value is 8-byte aligned with a size that is a multiple
    // of 8, so the stores pack without padding: one alignment slack covers
    // the whole run.
    const bool is_start = plan_->templ.IsStart(s);
    size_t stored_count = 0;
    if (is_start) {
      stored_count = m;
    } else {
      for (size_t i = 0; i < m; ++i) stored_count += run_found_[i];
    }
    if (stored_count == 0) continue;
    static_assert(alignof(Cell) == 8 && alignof(Value) == 8);
    panes_.ArenaFor(ts)->Reserve(
        stored_count * (cell_stride * sizeof(Cell) +
                        plan_->states[si].stored_attr_count * sizeof(Value)) +
        alignof(std::max_align_t));
    run_outs_.assign(static_cast<size_t>(k), nullptr);
    auto outs = [&](int c) -> std::vector<AggOutputs>& {
      if (run_outs_[c] == nullptr) run_outs_[c] = ResultsFor(first_wid + c);
      return *run_outs_[c];
    };
    for (size_t i = 0; i < m; ++i) {
      if (!is_start && !run_found_[i]) continue;
      FinishAndStore(fold, batch.ref(run_sel_[i]), s, is_start, first_wid, k,
                     run_cells + i * cell_stride, nullptr, outs);
    }
  }

  if (any_seen) last_seen_seq_ = batch.seq(last_seen_row);
}

void GretaGraph::CollectWindow(WindowId wid, size_t q, AggOutputs* out) {
  if (graph_links_.empty()) {
    auto it = results_.find(wid);
    if (it != results_.end()) out->Merge(it->second[q], AggAt(q));
    return;
  }
  (this->*collect_ends_fn_)(wid, q, 1, out);
}

void GretaGraph::CollectWindowAll(WindowId wid, std::vector<AggOutputs>* outs) {
  const size_t nq = static_cast<size_t>(num_queries_);
  GRETA_DCHECK(outs->size() == nq);
  if (graph_links_.empty()) {
    auto it = results_.find(wid);
    if (it == results_.end()) return;
    for (size_t q = 0; q < nq; ++q) {
      (*outs)[q].Merge(it->second[q], AggAt(q));
    }
    return;
  }
  // The barrier and the surviving-END-vertex walk are query-independent:
  // run them once, read every query slot.
  (this->*collect_ends_fn_)(wid, 0, nq, outs->data());
}

template <class Cell>
void GretaGraph::CollectEnds(WindowId wid, size_t q0, size_t n,
                             AggOutputs* outs) {
  // Trailing negation (Case 2): only END vertices whose trends finished
  // after the last negative trend started survive (Figure 8(a)).
  Ts barrier = kMinTs;
  for (NegationLink* link : graph_links_) {
    barrier = std::max(barrier, link->CloseMaxStart(wid));
  }
  StateId end_state = plan_->templ.end_state();
  panes_.ScanBucketAll(static_cast<size_t>(end_state), [&](GraphVertex* u) {
    if (u->dead || !u->InWindow(wid) || u->time < barrier) return;
    const Cell* row = u->row<Cell>(wid);
    if (ZeroCount(row[0])) return;
    for (size_t i = 0; i < n; ++i) AddEnd(row[q0 + i], AggAt(q0 + i), &outs[i]);
  });
}

void GretaGraph::ForgetWindow(WindowId wid) {
  if (results_cache_ != nullptr && results_cache_wid_ == wid) {
    results_cache_ = nullptr;
  }
  results_.erase(wid);
}

void GretaGraph::Purge(Ts watermark) {
  if (exec_->window.unbounded()) return;
  Ts cutoff = WindowStartTime(FirstWindowOf(watermark, exec_->window),
                              exec_->window);
  // Wholesale pane deletion: the pane store releases each dropped pane's
  // charged bytes in one step (no per-vertex accounting walk).
  if (destroy_rows_ != nullptr) {
    panes_.PurgeBefore(cutoff, destroy_rows_);
  } else {
    panes_.PurgeBefore(cutoff);
  }
}

size_t GretaGraph::ApproxBytes() const {
  size_t bytes = panes_.ApproxBytes();
  bytes += results_.size() *
           (sizeof(WindowId) + num_queries_ * sizeof(AggOutputs) + 16);
  return bytes;
}

}  // namespace greta
