#ifndef GRETA_PREDICATE_BATCH_FILTER_H_
#define GRETA_PREDICATE_BATCH_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/column_projection.h"
#include "common/event_batch.h"
#include "common/simd.h"
#include "predicate/expr.h"

namespace greta {

/// Batch evaluator for a conjunction of vertex predicates: classifies each
/// predicate once at plan time and filters a selection vector of batch rows
/// with tight per-predicate loops instead of one recursive expression-tree
/// walk per (row, predicate).
///
/// Predicates of the shape `attr CMP const` (or mirrored) run as a direct
/// column compare; every other shape falls back to Expr::EvalVertex per
/// surviving row. Results are exactly EvalVertex(...).Truthy() for every
/// shape — the compare mirrors Value::Compare, including null rejection and
/// exact int/int ordering — so selection is bit-identical to the scalar
/// path by construction.
class CompiledVertexFilter {
 public:
  CompiledVertexFilter() = default;
  explicit CompiledVertexFilter(const std::vector<const Expr*>& preds);

  /// Compacts `rows` (indices into `batch`) in place to those passing every
  /// predicate; returns the surviving count. Rows keep their relative order.
  size_t Filter(const EventBatch& batch, uint32_t* rows, size_t n) const;

  /// Typed-lane variant over a group-dense projection: `pos[i]` is a lane
  /// index into `proj`'s columns (built with ProjectRows), and
  /// `pos_to_row[pos[i]]` is the batch row it stands for. Fast predicates
  /// whose attribute is projected run through the FilterSel column kernel
  /// (positions within an equal-timestamp run are consecutive, so the
  /// loads are contiguous); the rest map positions back to batch rows and
  /// take the Value-row loops. Compacts `pos` in place and
  /// returns the surviving count; selection is bit-identical to
  /// Filter(batch, ...) over the corresponding rows.
  size_t Filter(const EventBatch& batch, const ColumnProjection& proj,
                const uint32_t* pos_to_row, uint32_t* pos, size_t n) const;

  /// Appends one entry per fast predicate, duplicates included — the use
  /// counts behind the graphs' cost-based projection policy (decomposing a
  /// column costs one pass over every row; it only pays when enough kernel
  /// passes read it back).
  void AppendFastAttrUses(std::vector<AttrId>* attrs) const;

  bool trivial() const { return fast_.empty() && general_.empty(); }

 private:
  struct AttrCmpConst {
    AttrId attr = kInvalidAttr;
    ExprOp op = ExprOp::kEq;
    Value rhs;
    bool attr_on_left = true;
    simd::CmpConst cmp;  // plan-time normalized form for the kernels
  };

  std::vector<AttrCmpConst> fast_;
  std::vector<const Expr*> general_;
};

/// Batch evaluator for a conjunction of residual *edge* predicates: the
/// batch run kernels collect one predecessor-entry span per (transition,
/// equal-timestamp run) and must re-evaluate the predicates the Vertex
/// Tree's key range does not enforce, once per (entry, event) pair. This
/// filter classifies each predicate at plan time and compacts an index
/// selection over the collected entries with one tight pass per predicate,
/// resolving the next-event side once per event instead of re-walking the
/// expression tree per pair.
///
/// Fast shapes (either orientation):
///   prev.attr CMP NEXT.attr   — next side resolved once per event
///   prev.attr CMP const       — next side not read at all
/// Everything else falls back to Expr::EvalEdge per surviving pair. Results
/// are exactly EvalEdge(prev, next).Truthy() for every shape, so selection
/// is bit-identical to the scalar scan's inline residual checks.
class CompiledEdgeFilter {
 public:
  /// Dense prev-side columns for the fast predicates, built once per
  /// (transition, equal-timestamp run) span and reused across every event
  /// in the run. Slot s holds fast predicate s's prev_attr column.
  class PrevColumns {
   public:
    simd::NumColumn column(size_t slot) const {
      const size_t base = slot * rows_;
      simd::NumColumn col;
      col.dval = dval_.data() + base;
      col.ival = ival_.data() + base;
      col.tag = tag_.data() + base;
      return col;
    }

   private:
    friend class CompiledEdgeFilter;
    std::vector<double> dval_;  // slot-major [slot][row]
    std::vector<int64_t> ival_;
    std::vector<uint8_t> tag_;
    size_t rows_ = 0;
  };

  CompiledEdgeFilter() = default;
  explicit CompiledEdgeFilter(const std::vector<const Expr*>& preds);

  /// Compacts `idx` (indices into `prevs`) in place to the pairs
  /// (prevs[idx[i]], next) passing every predicate; returns the surviving
  /// count. Indices keep their relative order (the fold that follows must
  /// replay the scalar scan's entry order exactly).
  size_t Filter(const EventView next, const EventView* prevs, uint32_t* idx,
                size_t n) const;

  /// Decomposes prevs[0..count) into `out`'s fast-predicate columns.
  void BuildPrevColumns(const EventView* prevs, size_t count,
                        PrevColumns* out) const;

  /// Typed-lane variant: fast predicates run through the FilterSel column
  /// kernel over `cols` (lane = idx[i] - rebase; NEXT-attr operands are
  /// decomposed once per call), general predicates fall back to
  /// Expr::EvalEdge over prevs[idx[i]]. Bit-identical to the scalar Filter.
  size_t Filter(const EventView next, const EventView* prevs,
                const PrevColumns& cols, uint32_t rebase, uint32_t* idx,
                size_t n) const;

  bool trivial() const { return fast_.empty() && general_.empty(); }
  bool has_fast() const { return !fast_.empty(); }

 private:
  struct PrevCmp {
    AttrId prev_attr = kInvalidAttr;
    ExprOp op = ExprOp::kEq;
    AttrId next_attr = kInvalidAttr;  // kInvalidAttr: compare against rhs
    Value rhs;
    bool prev_on_left = true;
    simd::CmpConst cmp;  // valid for the const-rhs shape only
  };

  std::vector<PrevCmp> fast_;
  std::vector<const Expr*> general_;
};

}  // namespace greta

#endif  // GRETA_PREDICATE_BATCH_FILTER_H_
