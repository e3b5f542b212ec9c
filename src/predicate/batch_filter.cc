#include "predicate/batch_filter.h"

namespace greta {

namespace {

bool IsCmp(ExprOp op) {
  switch (op) {
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
      return true;
    default:
      return false;
  }
}

// Mirror of the comparison semantics in predicate/expr.cc (null operands
// are false; Eq/Ne use structural equality; the orderings use
// Value::Compare, which keeps int/int comparisons exact).
bool EvalCmp(ExprOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  if (op == ExprOp::kEq) return a == b;
  if (op == ExprOp::kNe) return !(a == b);
  int c = a.Compare(b);
  switch (op) {
    case ExprOp::kLt:
      return c < 0;
    case ExprOp::kLe:
      return c <= 0;
    case ExprOp::kGt:
      return c > 0;
    case ExprOp::kGe:
      return c >= 0;
    default:
      return false;
  }
}

simd::CmpOp ToCmpOp(ExprOp op) {
  switch (op) {
    case ExprOp::kEq: return simd::CmpOp::kEq;
    case ExprOp::kNe: return simd::CmpOp::kNe;
    case ExprOp::kLt: return simd::CmpOp::kLt;
    case ExprOp::kLe: return simd::CmpOp::kLe;
    case ExprOp::kGt: return simd::CmpOp::kGt;
    case ExprOp::kGe: return simd::CmpOp::kGe;
    default: return simd::CmpOp::kEq;
  }
}

// Mirror the comparison so the variable operand lands on the left. Exact:
// Value::Compare is antisymmetric (including its kind-ordering branch) and
// operator== is symmetric, so EvalCmp(op, a, b) == EvalCmp(flip, b, a).
simd::CmpOp FlipCmpOp(simd::CmpOp op) {
  switch (op) {
    case simd::CmpOp::kLt: return simd::CmpOp::kGt;
    case simd::CmpOp::kLe: return simd::CmpOp::kGe;
    case simd::CmpOp::kGt: return simd::CmpOp::kLt;
    case simd::CmpOp::kGe: return simd::CmpOp::kLe;
    default: return op;  // Eq/Ne are symmetric
  }
}

// Normalizes one `value CMP rhs` (or mirrored) comparison into the kernel
// constant: op value-on-left, rhs decomposed by kind, and the result for
// lanes in the other comparability class precomputed. With a null rhs
// nothing passes (rhs_kind stays 0), exactly like EvalCmp.
simd::CmpConst MakeCmpConst(ExprOp op, const Value& rhs, bool value_on_left) {
  simd::CmpConst c;
  c.op = value_on_left ? ToCmpOp(op) : FlipCmpOp(ToCmpOp(op));
  c.rhs_kind = static_cast<uint8_t>(rhs.kind());
  switch (rhs.kind()) {
    case Value::Kind::kInt:
      c.rhs_i = rhs.AsInt();
      c.rhs_d = static_cast<double>(rhs.AsInt());  // == Value::ToDouble()
      break;
    case Value::Kind::kDouble:
      c.rhs_d = rhs.AsDouble();
      break;
    case Value::Kind::kStr:
      c.rhs_i = static_cast<int64_t>(rhs.AsStr());
      break;
    case Value::Kind::kNull:
      break;
  }
  // EvalCmp for a kind-mismatched lane (string lane under a numeric rhs and
  // vice versa): equality is false, inequality true, and the orderings
  // follow Value::Compare's kind ordering (strings sort above numerics).
  const bool rhs_is_str = rhs.kind() == Value::Kind::kStr;
  switch (c.op) {
    case simd::CmpOp::kEq: c.mismatch_pass = 0; break;
    case simd::CmpOp::kNe: c.mismatch_pass = 1; break;
    case simd::CmpOp::kLt:
    case simd::CmpOp::kLe:
      c.mismatch_pass = rhs_is_str ? 1 : 0;
      break;
    case simd::CmpOp::kGt:
    case simd::CmpOp::kGe:
      c.mismatch_pass = rhs_is_str ? 0 : 1;
      break;
  }
  return c;
}

}  // namespace

CompiledVertexFilter::CompiledVertexFilter(
    const std::vector<const Expr*>& preds) {
  for (const Expr* pred : preds) {
    if (IsCmp(pred->op())) {
      const Expr& l = pred->lhs();
      const Expr& r = pred->rhs();
      if (l.op() == ExprOp::kAttr && r.op() == ExprOp::kConst) {
        AttrCmpConst c;
        c.attr = l.attr_ref().attr;
        c.op = pred->op();
        c.rhs = r.const_value();
        c.attr_on_left = true;
        c.cmp = MakeCmpConst(c.op, c.rhs, /*value_on_left=*/true);
        fast_.push_back(std::move(c));
        continue;
      }
      if (l.op() == ExprOp::kConst && r.op() == ExprOp::kAttr) {
        AttrCmpConst c;
        c.attr = r.attr_ref().attr;
        c.op = pred->op();
        c.rhs = l.const_value();
        c.attr_on_left = false;
        c.cmp = MakeCmpConst(c.op, c.rhs, /*value_on_left=*/false);
        fast_.push_back(std::move(c));
        continue;
      }
    }
    general_.push_back(pred);
  }
}

size_t CompiledVertexFilter::Filter(const EventBatch& batch, uint32_t* rows,
                                    size_t n) const {
  // One compaction pass per predicate: each loop touches a single attribute
  // column of the surviving rows, with the pass/fail decision folded into
  // the output cursor bump (no data-dependent branch in the loop body).
  for (const AttrCmpConst& c : fast_) {
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      uint32_t row = rows[i];
      const Value& v = batch.attrs(row)[c.attr];
      bool pass = c.attr_on_left ? EvalCmp(c.op, v, c.rhs)
                                 : EvalCmp(c.op, c.rhs, v);
      rows[out] = row;
      out += pass ? 1 : 0;
    }
    n = out;
  }
  for (const Expr* pred : general_) {
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      uint32_t row = rows[i];
      bool pass = pred->EvalVertex(batch.view(row)).Truthy();
      rows[out] = row;
      out += pass ? 1 : 0;
    }
    n = out;
  }
  return n;
}

size_t CompiledVertexFilter::Filter(const EventBatch& batch,
                                    const ColumnProjection& proj,
                                    const uint32_t* pos_to_row, uint32_t* pos,
                                    size_t n) const {
  for (const AttrCmpConst& c : fast_) {
    if (proj.has(c.attr)) {
      n = simd::FilterSel(proj.column(c.attr), c.cmp, /*rebase=*/0, pos, n);
      continue;
    }
    // Attr not projected (read by fewer than the graph's
    // kMinProjectedAttrUses kernel passes): Value-row loop over the mapped
    // batch rows, which reads the tagged union in place.
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      uint32_t p = pos[i];
      const Value& v = batch.attrs(pos_to_row[p])[c.attr];
      bool pass = c.attr_on_left ? EvalCmp(c.op, v, c.rhs)
                                 : EvalCmp(c.op, c.rhs, v);
      pos[out] = p;
      out += pass ? 1 : 0;
    }
    n = out;
  }
  for (const Expr* pred : general_) {
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      uint32_t p = pos[i];
      bool pass = pred->EvalVertex(batch.view(pos_to_row[p])).Truthy();
      pos[out] = p;
      out += pass ? 1 : 0;
    }
    n = out;
  }
  return n;
}

void CompiledVertexFilter::AppendFastAttrUses(
    std::vector<AttrId>* attrs) const {
  for (const AttrCmpConst& c : fast_) attrs->push_back(c.attr);
}

CompiledEdgeFilter::CompiledEdgeFilter(const std::vector<const Expr*>& preds) {
  for (const Expr* pred : preds) {
    if (IsCmp(pred->op())) {
      const Expr& l = pred->lhs();
      const Expr& r = pred->rhs();
      if (l.op() == ExprOp::kAttr &&
          (r.op() == ExprOp::kNextAttr || r.op() == ExprOp::kConst)) {
        PrevCmp c;
        c.prev_attr = l.attr_ref().attr;
        c.op = pred->op();
        if (r.op() == ExprOp::kNextAttr) {
          c.next_attr = r.attr_ref().attr;
        } else {
          c.rhs = r.const_value();
          c.cmp = MakeCmpConst(c.op, c.rhs, /*value_on_left=*/true);
        }
        c.prev_on_left = true;
        fast_.push_back(std::move(c));
        continue;
      }
      if (r.op() == ExprOp::kAttr &&
          (l.op() == ExprOp::kNextAttr || l.op() == ExprOp::kConst)) {
        PrevCmp c;
        c.prev_attr = r.attr_ref().attr;
        c.op = pred->op();
        if (l.op() == ExprOp::kNextAttr) {
          c.next_attr = l.attr_ref().attr;
        } else {
          c.rhs = l.const_value();
          c.cmp = MakeCmpConst(c.op, c.rhs, /*value_on_left=*/false);
        }
        c.prev_on_left = false;
        fast_.push_back(std::move(c));
        continue;
      }
    }
    general_.push_back(pred);
  }
}

size_t CompiledEdgeFilter::Filter(const EventView next, const EventView* prevs,
                                  uint32_t* idx, size_t n) const {
  // Same compaction idiom as the vertex filter: one pass per predicate, the
  // pass/fail decision folded into the output cursor bump. The next-event
  // operand is resolved once per call (i.e. once per event), not per pair.
  for (const PrevCmp& c : fast_) {
    const Value& other = c.next_attr != kInvalidAttr ? next.attr(c.next_attr)
                                                     : c.rhs;
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      uint32_t j = idx[i];
      const Value& v = prevs[j].attr(c.prev_attr);
      bool pass =
          c.prev_on_left ? EvalCmp(c.op, v, other) : EvalCmp(c.op, other, v);
      idx[out] = j;
      out += pass ? 1 : 0;
    }
    n = out;
  }
  for (const Expr* pred : general_) {
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      uint32_t j = idx[i];
      bool pass = pred->EvalEdge(prevs[j], next).Truthy();
      idx[out] = j;
      out += pass ? 1 : 0;
    }
    n = out;
  }
  return n;
}

void CompiledEdgeFilter::BuildPrevColumns(const EventView* prevs, size_t count,
                                          PrevColumns* out) const {
  const size_t slots = fast_.size();
  out->rows_ = count;
  out->dval_.resize(slots * count);
  out->ival_.resize(slots * count);
  out->tag_.resize(slots * count);
  for (size_t s = 0; s < slots; ++s) {
    const AttrId a = fast_[s].prev_attr;
    const size_t base = s * count;
    for (size_t j = 0; j < count; ++j) {
      DecomposeValue(prevs[j].attr(a), &out->dval_[base + j],
                     &out->ival_[base + j], &out->tag_[base + j]);
    }
  }
}

size_t CompiledEdgeFilter::Filter(const EventView next, const EventView* prevs,
                                  const PrevColumns& cols, uint32_t rebase,
                                  uint32_t* idx, size_t n) const {
  for (size_t s = 0; s < fast_.size(); ++s) {
    const PrevCmp& c = fast_[s];
    // NEXT-attr comparisons resolve the next-side operand once per call
    // (once per event), exactly like the scalar pass.
    const simd::CmpConst cmp =
        c.next_attr != kInvalidAttr
            ? MakeCmpConst(c.op, next.attr(c.next_attr), c.prev_on_left)
            : c.cmp;
    n = simd::FilterSel(cols.column(s), cmp, rebase, idx, n);
  }
  for (const Expr* pred : general_) {
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      uint32_t j = idx[i];
      bool pass = pred->EvalEdge(prevs[j], next).Truthy();
      idx[out] = j;
      out += pass ? 1 : 0;
    }
    n = out;
  }
  return n;
}

}  // namespace greta
