#ifndef GRETA_COMMON_COLUMN_PROJECTION_H_
#define GRETA_COMMON_COLUMN_PROJECTION_H_

#include <cstdint>
#include <vector>

#include "common/event_batch.h"
#include "common/simd.h"
#include "common/types.h"

namespace greta {

/// Typed column projection over one EventBatch: the attribute positions the
/// fast-shape predicates read, materialized once per (batch, attr) into
/// dense double / int64 / kind-tag lanes so the column filter kernels never
/// touch Value's 16-byte tagged union.
///
/// Attribute positions are schema slots, and different event types may put
/// different attributes at the same slot — that is fine: the batch kernels
/// only ever read a column at rows pre-selected to one state's type. Rows
/// whose type carries fewer attributes than a projected slot get a null
/// tag, which every compare rejects (such rows are never selected anyway).
///
/// The projection is scratch state owned by a graph and refilled per
/// InsertBatch; columns stay valid until the next ProjectRows.
class ColumnProjection {
 public:
  /// Decomposes the given attr slots of rows[0..n), group-dense: lane k
  /// holds batch row rows[k]. Selections expressed as *positions* into
  /// `rows` then load contiguous lanes — the graphs build this per
  /// partition row group, where batch rows are strided by the partition
  /// key. `attrs` must be duplicate-free; slots are looked up by position
  /// via column().
  void ProjectRows(const EventBatch& batch, const std::vector<AttrId>& attrs,
                   const uint32_t* rows, size_t n);

  bool has(AttrId attr) const {
    return attr >= 0 && static_cast<size_t>(attr) < slot_of_attr_.size() &&
           slot_of_attr_[attr] >= 0;
  }

  /// Column view for a projected attr slot; valid only when has(attr).
  simd::NumColumn column(AttrId attr) const {
    const size_t base = static_cast<size_t>(slot_of_attr_[attr]) * rows_;
    simd::NumColumn col;
    col.dval = dval_.data() + base;
    col.ival = ival_.data() + base;
    col.tag = tag_.data() + base;
    return col;
  }

 private:
  std::vector<double> dval_;   // slot-major [slot][row]
  std::vector<int64_t> ival_;
  std::vector<uint8_t> tag_;
  std::vector<int> slot_of_attr_;  // attr position -> slot index or -1
  size_t rows_ = 0;
};

/// Decomposes one Value into projection lanes (shared with the edge
/// filter's per-span prev-side columns).
inline void DecomposeValue(const Value& v, double* dval, int64_t* ival,
                           uint8_t* tag) {
  *tag = static_cast<uint8_t>(v.kind());
  switch (v.kind()) {
    case Value::Kind::kInt:
      *ival = v.AsInt();
      *dval = static_cast<double>(v.AsInt());  // == Value::ToDouble()
      break;
    case Value::Kind::kDouble:
      *ival = 0;
      *dval = v.AsDouble();
      break;
    case Value::Kind::kStr:
      *ival = static_cast<int64_t>(v.AsStr());
      *dval = 0.0;
      break;
    case Value::Kind::kNull:
      *ival = 0;
      *dval = 0.0;
      break;
  }
}

}  // namespace greta

#endif  // GRETA_COMMON_COLUMN_PROJECTION_H_
