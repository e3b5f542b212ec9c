#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>

#include "core/plan.h"
#include "predicate/classify.h"
#include "storage/window.h"

namespace greta {

namespace {

// True when no trend can be matched by both patterns: one pattern requires
// an event type the other can never contain (Section 9 combination — the
// planner only sums alternatives it can prove disjoint, so the
// inclusion-exclusion term Cij is zero by construction).
bool ProvablyDisjoint(const Pattern& a, const Pattern& b) {
  auto contains = [](const std::vector<TypeId>& v, TypeId t) {
    return std::find(v.begin(), v.end(), t) != v.end();
  };
  std::vector<TypeId> req_a = a.RequiredTypes();
  std::vector<TypeId> pos_b = b.CollectTypes(/*include_negated=*/false);
  for (TypeId t : req_a) {
    if (!contains(pos_b, t)) return true;
  }
  std::vector<TypeId> req_b = b.RequiredTypes();
  std::vector<TypeId> pos_a = a.CollectTypes(/*include_negated=*/false);
  for (TypeId t : req_b) {
    if (!contains(pos_a, t)) return true;
  }
  return false;
}

Status CheckPairwiseDisjoint(const std::vector<PatternPtr>& alts,
                             const Catalog& catalog) {
  for (size_t i = 0; i < alts.size(); ++i) {
    for (size_t j = i + 1; j < alts.size(); ++j) {
      if (!ProvablyDisjoint(*alts[i], *alts[j])) {
        return Status::Unsupported(
            "cannot prove disjunction alternatives disjoint: '" +
            alts[i]->ToString(catalog) + "' and '" +
            alts[j]->ToString(catalog) +
            "' may match the same trend; disjunctions of overlapping "
            "patterns are not supported");
      }
    }
  }
  return Status::Ok();
}

// The kind of a comparison operand when the schema or a literal fixes it;
// kNull when it does not (arithmetic, nested comparisons, null literals).
Value::Kind OperandKind(const Expr& e, const Catalog& catalog) {
  if (e.op() == ExprOp::kConst) return e.const_value().kind();
  if (e.op() != ExprOp::kAttr && e.op() != ExprOp::kNextAttr) {
    return Value::Kind::kNull;
  }
  const AttrRef& ref = e.attr_ref();
  if (ref.type < 0 || static_cast<size_t>(ref.type) >= catalog.num_types()) {
    return Value::Kind::kNull;
  }
  const std::vector<AttributeDef>& attrs = catalog.type(ref.type).attrs;
  if (ref.attr < 0 || static_cast<size_t>(ref.attr) >= attrs.size()) {
    return Value::Kind::kNull;
  }
  return attrs[ref.attr].kind;
}

// Rejects `<`, `<=`, `>`, `>=` between a string and a number anywhere in
// `e`: strings and numbers have no common order (Value::Compare asserts
// on the pair). Equality stays legal; it is simply false.
Status CheckOrderingKinds(const Expr& e, const Catalog& catalog) {
  switch (e.op()) {
    case ExprOp::kConst:
    case ExprOp::kAttr:
    case ExprOp::kNextAttr:
      return Status::Ok();
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe: {
      const Value::Kind l = OperandKind(e.lhs(), catalog);
      const Value::Kind r = OperandKind(e.rhs(), catalog);
      const auto numeric = [](Value::Kind k) {
        return k == Value::Kind::kInt || k == Value::Kind::kDouble;
      };
      if ((l == Value::Kind::kStr && numeric(r)) ||
          (numeric(l) && r == Value::Kind::kStr)) {
        return Status::InvalidArgument(
            "cannot order a string against a number: '" +
            e.ToString(catalog) + "'");
      }
      break;
    }
    default:
      break;
  }
  Status lhs = CheckOrderingKinds(e.lhs(), catalog);
  if (!lhs.ok()) return lhs;
  return CheckOrderingKinds(e.rhs(), catalog);
}

// Flattens a top-level conjunction chain into its sides.
void CollectConjuncts(const Pattern& p, std::vector<const Pattern*>* out) {
  if (p.op() == PatternOp::kAnd) {
    CollectConjuncts(*p.children()[0], out);
    CollectConjuncts(*p.children()[1], out);
  } else {
    out->push_back(&p);
  }
}

// Builds the GraphPlan skeleton (template + link resolution) for one
// alternative's split result.
Status BuildGraphPlans(const SplitResult& split, const Catalog& catalog,
                       const AggPlan& agg, CounterMode mode,
                       AlternativePlan* alt) {
  size_t num_subs = 1 + split.negatives.size();
  alt->graphs.resize(num_subs);

  for (size_t i = 0; i < num_subs; ++i) {
    GraphPlan& gp = alt->graphs[i];
    const Pattern& pattern =
        (i == 0) ? *split.positive : *split.negatives[i - 1].pattern;
    StatusOr<GretaTemplate> templ = BuildTemplate(pattern, catalog);
    if (!templ.ok()) return templ.status();
    gp.templ = std::move(templ).value();
    gp.negative = (i != 0);
    gp.agg = gp.negative ? AggPlan::ForNegative(mode) : agg;
    gp.aggs = {gp.agg};
    gp.states.resize(gp.templ.num_states());
    for (const TemplateState& s : gp.templ.states()) {
      gp.states[s.id].type = s.type;
    }
    gp.transitions.resize(gp.templ.transitions().size());
  }

  // Resolve negation links against the parent templates.
  for (size_t i = 0; i < split.negatives.size(); ++i) {
    const NegativeSubPattern& neg = split.negatives[i];
    GraphPlan& gp = alt->graphs[i + 1];
    gp.parent = neg.parent;
    const GretaTemplate& parent_templ = alt->graphs[neg.parent].templ;
    if (neg.prev_atom != nullptr) {
      gp.prev_state = parent_templ.NodeEndState(neg.prev_atom);
    }
    if (neg.foll_atom != nullptr) {
      gp.foll_state = parent_templ.NodeStartState(neg.foll_atom);
    }
    if (gp.prev_state != kInvalidState && gp.foll_state != kInvalidState) {
      gp.link_kind = NegationKind::kBetween;
      if (parent_templ.FindTransition(gp.prev_state, gp.foll_state) < 0) {
        return Status::Internal(
            "no parent transition between the previous and following states "
            "of a negative sub-pattern");
      }
    } else if (gp.prev_state != kInvalidState) {
      gp.link_kind = NegationKind::kTrailing;
    } else if (gp.foll_state != kInvalidState) {
      gp.link_kind = NegationKind::kLeading;
    } else {
      return Status::InvalidArgument(
          "negation without a preceding or following positive sub-pattern");
    }
  }
  return Status::Ok();
}

// Attaches one classified predicate list to the states and transitions of
// `gp` admitted by the filters (null = all; partial sharing restricts each
// query's predicates to the states/transitions it owns).
void AttachPredicatesToGraph(
    const std::vector<ClassifiedPredicate>& preds, bool enable_tree_ranges,
    GraphPlan* gp, const std::function<bool(StateId)>& state_ok,
    const std::function<bool(size_t)>& transition_ok) {
  // Vertex predicates.
  for (const ClassifiedPredicate& cp : preds) {
    if (cp.cls != PredicateClass::kLocal) continue;
    for (const TemplateState& s : gp->templ.states()) {
      if (s.type != cp.base_type) continue;
      if (state_ok && !state_ok(s.id)) continue;
      gp->states[s.id].local_preds.push_back(cp.expr);
    }
  }
  // Edge predicates per transition.
  const auto& transitions = gp->templ.transitions();
  for (size_t t = 0; t < transitions.size(); ++t) {
    if (transition_ok && !transition_ok(t)) continue;
    StateId from = transitions[t].from;
    StateId to = transitions[t].to;
    for (const ClassifiedPredicate& cp : preds) {
      if (cp.cls != PredicateClass::kEdge) continue;
      if (gp->states[from].type != cp.base_type ||
          gp->states[to].type != cp.next_type) {
        continue;
      }
      EdgePredicatePlan ep;
      ep.expr = cp.expr;
      if (enable_tree_ranges) {
        ep.range = RangeExtraction::FromPredicate(*cp.expr);
      }
      gp->transitions[t].preds.push_back(std::move(ep));
    }
  }
}

// Sort keys: for each state, the key attr of the first extractable edge
// predicate on any outgoing transition wins ("sorted by the most selective
// predicate", Section 7). Run once after ALL predicates are attached.
void AssignSortKeys(GraphPlan* gp) {
  const auto& transitions = gp->templ.transitions();
  for (size_t t = 0; t < transitions.size(); ++t) {
    StateId from = transitions[t].from;
    for (EdgePredicatePlan& ep : gp->transitions[t].preds) {
      if (!ep.range.has_value()) continue;
      AttrId key = ep.range->key_attr();
      if (gp->states[from].sort_attr == kInvalidAttr) {
        gp->states[from].sort_attr = key;
      }
      ep.drives_sort_key = (gp->states[from].sort_attr == key);
    }
  }
  // With sort keys fixed, split off the scan-time residual predicates so
  // the hot loop iterates them directly.
  for (TransitionPlan& tp : gp->transitions) {
    tp.residual_preds.clear();
    for (const EdgePredicatePlan& ep : tp.preds) {
      if (ep.drives_sort_key && ep.range.has_value()) continue;
      tp.residual_preds.push_back(ep.expr);
    }
  }
}

// Attaches classified predicates and picks Vertex-Tree sort keys.
Status AttachPredicates(const std::vector<ClassifiedPredicate>& preds,
                        bool enable_tree_ranges, AlternativePlan* alt) {
  for (GraphPlan& gp : alt->graphs) {
    AttachPredicatesToGraph(preds, enable_tree_ranges, &gp, nullptr,
                            nullptr);
    AssignSortKeys(&gp);
  }
  return Status::Ok();
}

// Per state, how many leading attribute values stored vertices must keep:
// the scan-time residual edge predicates (those not enforced by the Vertex
// Tree's key range) re-read the predecessor's attributes, so the highest
// base-side attr id they reference bounds the stored prefix. Must run after
// AssignSortKeys (drives_sort_key decides what is residual).
void ComputeStoredAttrCounts(GraphPlan* gp) {
  const auto& transitions = gp->templ.transitions();
  for (size_t t = 0; t < transitions.size(); ++t) {
    StateId from = transitions[t].from;
    for (const EdgePredicatePlan& ep : gp->transitions[t].preds) {
      if (ep.drives_sort_key && ep.range.has_value()) continue;
      std::vector<AttrRef> base, next;
      ep.expr->CollectRefs(&base, &next);
      for (const AttrRef& ref : base) {
        uint16_t need = static_cast<uint16_t>(ref.attr + 1);
        if (need > gp->states[from].stored_attr_count) {
          gp->states[from].stored_attr_count = need;
        }
      }
    }
  }
}

// A vertex stores its window count as int16_t (GraphVertex::num_wids).
Status CheckMaxWindowsPerEvent(const EngineOptions& options) {
  if (options.max_windows_per_event < 1 ||
      options.max_windows_per_event > INT16_MAX) {
    return Status::InvalidArgument(
        "max_windows_per_event must be in [1, " + std::to_string(INT16_MAX) +
        "], got " + std::to_string(options.max_windows_per_event));
  }
  return Status::Ok();
}

// Compiles the graph's AggPlan flag set + CounterMode into its propagation
// kernel. Must run after every query slot's aggregate plan is attached
// (BuildSharedPlan appends slots to an already-built plan).
void SelectKernels(ExecPlan* plan, const EngineOptions& options) {
  for (AlternativePlan& alt : plan->alternatives) {
    for (GraphPlan& gp : alt.graphs) {
      ComputeStoredAttrCounts(&gp);
      gp.kernel = PropKernel::kGeneric;
      if (!options.enable_specialized_kernels) continue;
      // Partial sharing propagates snapshot/fold cells through its own
      // edge-fold policy (GretaGraph::PartialFold); the flag-set kernels
      // do not apply.
      if (plan->partial.has_value()) continue;
      auto count_only = [](const AggPlan& a) {
        return !a.need_type_count && !a.need_min && !a.need_max &&
               !a.need_sum && !a.need_max_start;
      };
      bool all_count_only = count_only(gp.agg);
      for (const AggPlan& a : gp.aggs) all_count_only &= count_only(a);
      if (!all_count_only) continue;
      gp.kernel = plan->mode == CounterMode::kModular
                      ? PropKernel::kCountModular
                      : PropKernel::kCountExact;
    }
  }
}

}  // namespace

StatusOr<std::unique_ptr<ExecPlan>> BuildPlan(const QuerySpec& spec,
                                              const Catalog& catalog,
                                              const EngineOptions& options) {
  if (spec.pattern == nullptr) {
    return Status::InvalidArgument("query has no pattern");
  }
  Status valid = ValidatePattern(*spec.pattern);
  if (valid.ok()) valid = CheckMaxWindowsPerEvent(options);
  if (!valid.ok()) return valid;

  auto plan = std::make_unique<ExecPlan>();
  plan->window = spec.window;
  plan->semantics = options.semantics;
  plan->mode = options.counter_mode;
  plan->enable_pruning = options.enable_pruning;
  plan->enable_batch_kernels = options.enable_batch_kernels;
  plan->agg_specs = spec.aggs;

  if (!spec.window.unbounded() &&
      MaxWindowsPerEvent(spec.window) > options.max_windows_per_event) {
    return Status::Unsupported(
        "an event would fall into more than " +
        std::to_string(options.max_windows_per_event) +
        " windows; increase SLIDE or EngineOptions::max_windows_per_event");
  }

  StatusOr<AggPlan> agg = AggPlan::FromSpecs(spec.aggs, options.counter_mode);
  if (!agg.ok()) return agg.status();
  plan->agg = agg.value();
  plan->query_aggs = {plan->agg};
  plan->query_agg_specs = {spec.aggs};

  // Top-level conjunction splits into term groups (Section 9); everything
  // else is a single group whose alternatives are summed.
  std::vector<const Pattern*> sides;
  CollectConjuncts(*spec.pattern, &sides);
  if (sides.size() > 1) {
    if (plan->agg.need_type_count || plan->agg.need_min ||
        plan->agg.need_max || plan->agg.need_sum) {
      return Status::Unsupported(
          "conjunctive patterns support COUNT(*) only (Section 9 pairs "
          "trends; per-event aggregates are not defined on pairs)");
    }
    for (size_t i = 0; i < sides.size(); ++i) {
      for (size_t j = i + 1; j < sides.size(); ++j) {
        if (!ProvablyDisjoint(*sides[i], *sides[j])) {
          return Status::Unsupported(
              "cannot prove conjunction sides disjoint; conjunctions of "
              "overlapping patterns are not supported");
        }
      }
    }
  }

  // Classify WHERE conjuncts once; the plan owns clones of the expressions.
  std::vector<ClassifiedPredicate> classified;
  for (const ExprPtr& conjunct : spec.where) {
    Status kinds = CheckOrderingKinds(*conjunct, catalog);
    if (!kinds.ok()) return kinds;
    plan->owned_exprs.push_back(conjunct->Clone());
    StatusOr<ClassifiedPredicate> cp =
        ClassifyPredicate(*plan->owned_exprs.back());
    if (!cp.ok()) return cp.status();
    if (cp.value().cls == PredicateClass::kConstant) {
      Event dummy;
      if (!plan->owned_exprs.back()->EvalVertex(dummy).Truthy()) {
        // Constant-false WHERE: the query matches nothing.
        plan->alternatives.clear();
        plan->groups.clear();
        return plan;
      }
      continue;
    }
    classified.push_back(cp.value());
  }

  for (const Pattern* side : sides) {
    StatusOr<std::vector<PatternPtr>> alts = ExpandSugar(*side);
    if (!alts.ok()) return alts.status();
    Status disjoint = CheckPairwiseDisjoint(alts.value(), catalog);
    if (!disjoint.ok()) return disjoint;

    TermGroupPlan group;
    for (PatternPtr& alt_pattern : alts.value()) {
      StatusOr<SplitResult> split = SplitPattern(*alt_pattern);
      if (!split.ok()) return split.status();
      plan->owned_splits.push_back(std::move(split).value());
      const SplitResult& owned = plan->owned_splits.back();

      AlternativePlan alt;
      Status built = BuildGraphPlans(owned, catalog, plan->agg,
                                     options.counter_mode, &alt);
      if (!built.ok()) return built;
      Status attached =
          AttachPredicates(classified, options.enable_tree_ranges, &alt);
      if (!attached.ok()) return attached;
      group.alternative_indices.push_back(
          static_cast<int>(plan->alternatives.size()));
      plan->alternatives.push_back(std::move(alt));
    }
    plan->groups.push_back(std::move(group));
  }

  // Partition keys: GROUP-BY attrs first, then remaining equivalence attrs.
  plan->key_attrs = spec.group_by;
  plan->num_group_attrs = spec.group_by.size();
  for (const std::string& attr : spec.equivalence) {
    if (std::find(plan->key_attrs.begin(), plan->key_attrs.end(), attr) ==
        plan->key_attrs.end()) {
      plan->key_attrs.push_back(attr);
    }
  }

  // Resolve key attr positions per relevant type.
  std::set<TypeId> relevant;
  for (const AlternativePlan& alt : plan->alternatives) {
    for (const GraphPlan& gp : alt.graphs) {
      for (const TemplateState& s : gp.templ.states()) relevant.insert(s.type);
    }
  }
  for (TypeId type : relevant) {
    std::vector<AttrId> ids;
    for (const std::string& attr : plan->key_attrs) {
      ids.push_back(catalog.type(type).FindAttr(attr));
    }
    plan->key_attr_ids[type] = std::move(ids);
  }
  // Every key attr must exist on at least one relevant type.
  for (size_t i = 0; i < plan->key_attrs.size(); ++i) {
    bool found = false;
    for (const auto& [type, ids] : plan->key_attr_ids) {
      (void)type;
      if (ids[i] != kInvalidAttr) found = true;
    }
    if (!found) {
      return Status::InvalidArgument("grouping/equivalence attribute '" +
                                     plan->key_attrs[i] +
                                     "' exists on no event type used by the "
                                     "pattern");
    }
  }

  SelectKernels(plan.get(), options);
  return plan;
}

const Pattern* KleenePrefixCore(const Pattern& alt) {
  if (alt.op() == PatternOp::kPlus) return &alt;
  if (alt.op() == PatternOp::kSeq && !alt.children().empty() &&
      alt.children()[0]->op() == PatternOp::kPlus) {
    return alt.children()[0].get();
  }
  return nullptr;
}

bool IsCoreSnapshotPredicate(const ClassifiedPredicate& cp,
                             const std::vector<TypeId>& core_types) {
  auto in_core = [&](TypeId t) {
    return std::find(core_types.begin(), core_types.end(), t) !=
           core_types.end();
  };
  if (cp.cls == PredicateClass::kLocal) return in_core(cp.base_type);
  if (cp.cls == PredicateClass::kEdge) {
    return in_core(cp.base_type) && in_core(cp.next_type);
  }
  return false;
}

namespace {

// One query of a partial-sharing cluster, desugared and decomposed.
struct PartialQuery {
  PatternPtr alt;           // the single desugared alternative (owned)
  const Pattern* core;      // Kleene prefix inside `alt`
  GretaTemplate full;       // template of `alt`
  AggPlan agg;
  std::vector<ClassifiedPredicate> preds;    // non-constant conjuncts
  std::vector<std::string> core_pred_texts;  // sorted, for agreement checks
};

// Desugars and validates one query of a partial cluster. Predicates are
// classified against clones owned by `plan`.
Status DecomposePartialQuery(const QuerySpec& spec, const Catalog& catalog,
                             ExecPlan* plan, PartialQuery* out) {
  if (spec.pattern == nullptr) {
    return Status::InvalidArgument("query has no pattern");
  }
  Status valid = ValidatePattern(*spec.pattern);
  if (!valid.ok()) return valid;
  if (!spec.pattern->IsPositive()) {
    return Status::Unsupported("partial sharing requires positive patterns");
  }
  std::vector<const Pattern*> sides;
  CollectConjuncts(*spec.pattern, &sides);
  if (sides.size() > 1) {
    return Status::Unsupported(
        "partial sharing does not cover conjunctive patterns");
  }
  StatusOr<std::vector<PatternPtr>> alts = ExpandSugar(*spec.pattern);
  if (!alts.ok()) return alts.status();
  if (alts.value().size() != 1) {
    return Status::Unsupported(
        "partial sharing requires a single disjunction-free alternative");
  }
  out->alt = std::move(alts.value()[0]);
  out->core = KleenePrefixCore(*out->alt);
  if (out->core == nullptr) {
    return Status::Unsupported(
        "partial sharing requires a Kleene sub-pattern prefix");
  }
  StatusOr<GretaTemplate> full = BuildTemplate(*out->alt, catalog);
  if (!full.ok()) return full.status();
  out->full = std::move(full).value();

  for (const ExprPtr& conjunct : spec.where) {
    Status kinds = CheckOrderingKinds(*conjunct, catalog);
    if (!kinds.ok()) return kinds;
    plan->owned_exprs.push_back(conjunct->Clone());
    StatusOr<ClassifiedPredicate> cp =
        ClassifyPredicate(*plan->owned_exprs.back());
    if (!cp.ok()) return cp.status();
    if (cp.value().cls == PredicateClass::kConstant) {
      Event dummy;
      if (!plan->owned_exprs.back()->EvalVertex(dummy).Truthy()) {
        return Status::Unsupported(
            "constant-false WHERE clause in a partial-sharing cluster");
      }
      continue;
    }
    out->preds.push_back(cp.value());
  }
  std::vector<TypeId> core_types = out->core->CollectTypes();
  for (const ClassifiedPredicate& cp : out->preds) {
    if (IsCoreSnapshotPredicate(cp, core_types)) {
      out->core_pred_texts.push_back(cp.expr->ToString(catalog));
    }
  }
  std::sort(out->core_pred_texts.begin(), out->core_pred_texts.end());
  return Status::Ok();
}

}  // namespace

StatusOr<std::unique_ptr<ExecPlan>> BuildPartialSharedPlan(
    const std::vector<const QuerySpec*>& specs, const Catalog& catalog,
    const EngineOptions& options) {
  if (specs.size() < 2) {
    return Status::InvalidArgument(
        "partial shared plan needs at least two queries");
  }
  if (options.semantics != Semantics::kSkipTillAnyMatch) {
    return Status::Unsupported(
        "partial sharing requires skip-till-any-match semantics (the "
        "restricted semantics tie per-event bookkeeping to one query's "
        "pattern structure)");
  }
  Status valid = CheckMaxWindowsPerEvent(options);
  if (!valid.ok()) return valid;

  auto plan = std::make_unique<ExecPlan>();
  plan->semantics = options.semantics;
  plan->mode = options.counter_mode;
  plan->enable_pruning = options.enable_pruning;
  plan->enable_batch_kernels = options.enable_batch_kernels;

  // Decompose every query and re-validate cluster agreement.
  std::vector<PartialQuery> queries(specs.size());
  for (size_t q = 0; q < specs.size(); ++q) {
    Status s = DecomposePartialQuery(*specs[q], catalog, plan.get(),
                                     &queries[q]);
    if (!s.ok()) {
      // Keep the code: Unsupported marks shapes the caller may degrade to
      // dedicated runtimes, InvalidArgument marks planner disagreement.
      return Status(s.code(),
                    "query " + std::to_string(q) + ": " + s.message());
    }
  }
  StatusOr<GretaTemplate> core_templ =
      BuildTemplate(*queries[0].core, catalog);
  if (!core_templ.ok()) return core_templ.status();
  const std::string core_fp =
      TemplateStructureFingerprint(core_templ.value());
  for (size_t q = 1; q < specs.size(); ++q) {
    StatusOr<GretaTemplate> qc = BuildTemplate(*queries[q].core, catalog);
    if (!qc.ok()) return qc.status();
    if (TemplateStructureFingerprint(qc.value()) != core_fp) {
      return Status::InvalidArgument(
          "queries of a partial-sharing cluster must share their Kleene "
          "sub-pattern");
    }
    if (queries[q].core_pred_texts != queries[0].core_pred_texts) {
      return Status::InvalidArgument(
          "queries of a partial-sharing cluster must agree on WHERE "
          "predicates over the shared sub-pattern");
    }
  }

  // Keys: shared partitioning requires identical grouping and equivalence.
  std::vector<std::string> equiv0 = specs[0]->equivalence;
  std::sort(equiv0.begin(), equiv0.end());
  for (size_t q = 1; q < specs.size(); ++q) {
    std::vector<std::string> equiv = specs[q]->equivalence;
    std::sort(equiv.begin(), equiv.end());
    if (equiv != equiv0 || specs[q]->group_by != specs[0]->group_by) {
      return Status::InvalidArgument(
          "queries of a partial-sharing cluster must agree on GROUP-BY and "
          "equivalence attributes");
    }
  }

  // Windows: all unbounded, or all bounded with one slide; the plan window
  // is the union (max within) so shared vertices cover every query's range.
  WindowSpec union_window = specs[0]->window;
  for (size_t q = 1; q < specs.size(); ++q) {
    const WindowSpec& w = specs[q]->window;
    if (w.unbounded() != union_window.unbounded() ||
        (!w.unbounded() && w.slide != union_window.slide)) {
      return Status::InvalidArgument(
          "queries of a partial-sharing cluster must agree on window slide "
          "(or all be unbounded)");
    }
    if (!w.unbounded() && w.within > union_window.within) {
      union_window.within = w.within;
    }
  }
  if (!union_window.unbounded() &&
      MaxWindowsPerEvent(union_window) > options.max_windows_per_event) {
    return Status::Unsupported(
        "an event would fall into more than " +
        std::to_string(options.max_windows_per_event) +
        " windows of the cluster's union window; increase SLIDE or "
        "EngineOptions::max_windows_per_event");
  }
  plan->window = union_window;

  // Merge the per-query templates over the shared core.
  PartialSharingPlan partial;
  std::vector<const GretaTemplate*> fulls;
  fulls.reserve(queries.size());
  for (const PartialQuery& pq : queries) fulls.push_back(&pq.full);
  StatusOr<GretaTemplate> merged = MergeSharedCoreTemplates(
      core_templ.value(), fulls, &partial.end_states, &partial.state_owner,
      &partial.transition_owner);
  if (!merged.ok()) return merged.status();
  partial.num_core_states = core_templ.value().num_states();

  // Per-query aggregate plans and snapshot fold slots.
  for (size_t q = 0; q < specs.size(); ++q) {
    StatusOr<AggPlan> agg =
        AggPlan::FromSpecs(specs[q]->aggs, options.counter_mode);
    if (!agg.ok()) return agg.status();
    queries[q].agg = agg.value();
    const AggPlan& a = queries[q].agg;
    bool needs_fold =
        a.need_type_count || a.need_min || a.need_max || a.need_sum;
    if (needs_fold) {
      partial.fold_slots.push_back(
          static_cast<int>(1 + partial.num_fold_slots++));
      partial.fold_queries.push_back(q);
    } else {
      partial.fold_slots.push_back(-1);
    }
    partial.windows.push_back(specs[q]->window);
    plan->query_aggs.push_back(a);
    plan->query_agg_specs.push_back(specs[q]->aggs);
  }
  plan->agg = plan->query_aggs[0];
  plan->agg_specs = specs[0]->aggs;

  // One positive graph over the merged template, all queries' plans on it.
  AlternativePlan alt;
  alt.graphs.resize(1);
  GraphPlan& gp = alt.graphs[0];
  gp.templ = std::move(merged).value();
  gp.agg = plan->agg;
  gp.aggs = plan->query_aggs;
  gp.states.resize(gp.templ.num_states());
  for (const TemplateState& s : gp.templ.states()) {
    gp.states[s.id].type = s.type;
  }
  gp.transitions.resize(gp.templ.transitions().size());

  // Predicate attachment, owner-aware: query q's conjuncts reach only the
  // states/transitions q owns; the shared core takes query 0's copies (the
  // agreement check above makes every query's core conjuncts identical).
  for (size_t q = 0; q < queries.size(); ++q) {
    AttachPredicatesToGraph(
        queries[q].preds, options.enable_tree_ranges, &gp,
        [&partial, q](StateId s) {
          int owner = partial.state_owner[s];
          return owner == static_cast<int>(q) || (owner < 0 && q == 0);
        },
        [&partial, q](size_t t) {
          int owner = partial.transition_owner[t];
          return owner == static_cast<int>(q) || (owner < 0 && q == 0);
        });
  }
  AssignSortKeys(&gp);

  plan->alternatives.push_back(std::move(alt));
  TermGroupPlan group;
  group.alternative_indices.push_back(0);
  plan->groups.push_back(std::move(group));
  plan->partial = std::move(partial);

  // Partition keys over the merged template's types (as in BuildPlan).
  plan->key_attrs = specs[0]->group_by;
  plan->num_group_attrs = specs[0]->group_by.size();
  for (const std::string& attr : specs[0]->equivalence) {
    if (std::find(plan->key_attrs.begin(), plan->key_attrs.end(), attr) ==
        plan->key_attrs.end()) {
      plan->key_attrs.push_back(attr);
    }
  }
  std::set<TypeId> relevant;
  for (const TemplateState& s :
       plan->alternatives[0].graphs[0].templ.states()) {
    relevant.insert(s.type);
  }
  for (TypeId type : relevant) {
    std::vector<AttrId> ids;
    for (const std::string& attr : plan->key_attrs) {
      ids.push_back(catalog.type(type).FindAttr(attr));
    }
    plan->key_attr_ids[type] = std::move(ids);
  }
  for (size_t i = 0; i < plan->key_attrs.size(); ++i) {
    bool found = false;
    for (const auto& [type, ids] : plan->key_attr_ids) {
      (void)type;
      if (ids[i] != kInvalidAttr) found = true;
    }
    if (!found) {
      return Status::InvalidArgument("grouping/equivalence attribute '" +
                                     plan->key_attrs[i] +
                                     "' exists on no event type used by the "
                                     "pattern");
    }
  }
  SelectKernels(plan.get(), options);
  return plan;
}

StatusOr<std::unique_ptr<ExecPlan>> BuildSharedPlan(
    const std::vector<const QuerySpec*>& specs, const Catalog& catalog,
    const EngineOptions& options) {
  if (specs.empty()) {
    return Status::InvalidArgument("shared plan needs at least one query");
  }
  StatusOr<std::unique_ptr<ExecPlan>> base =
      BuildPlan(*specs[0], catalog, options);
  if (!base.ok()) return base.status();
  std::unique_ptr<ExecPlan> plan = std::move(base).value();

  for (size_t q = 1; q < specs.size(); ++q) {
    StatusOr<AggPlan> agg =
        AggPlan::FromSpecs(specs[q]->aggs, options.counter_mode);
    if (!agg.ok()) return agg.status();
    if (plan->groups.size() > 1 &&
        (agg.value().need_type_count || agg.value().need_min ||
         agg.value().need_max || agg.value().need_sum)) {
      return Status::Unsupported(
          "conjunctive patterns support COUNT(*) only (Section 9), for every "
          "query of a shared cluster");
    }
    plan->query_aggs.push_back(agg.value());
    plan->query_agg_specs.push_back(specs[q]->aggs);
    // Only positive graphs (sub-pattern 0) carry query aggregates; negative
    // graphs keep their single query-independent barrier plan. Conjunctive
    // plans (> 1 term group) keep a single slot too: the final count is a
    // product of slot-0 counts and per-query cells would never be read.
    if (plan->groups.size() <= 1) {
      for (AlternativePlan& alt : plan->alternatives) {
        alt.graphs[0].aggs.push_back(agg.value());
      }
    }
  }
  // Re-select: the query slots appended above may demote a COUNT(*)-only
  // graph to the generic kernel (stored-attr counts only grow, idempotent).
  SelectKernels(plan.get(), options);
  return plan;
}

}  // namespace greta
