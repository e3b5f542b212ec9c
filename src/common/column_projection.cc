#include "common/column_projection.h"

#include "common/simd.h"
#include "common/value.h"

namespace greta {

// The kernels pattern-match kind tags as raw bytes; pin the enum layout.
static_assert(static_cast<uint8_t>(Value::Kind::kNull) == simd::kTagNull);
static_assert(static_cast<uint8_t>(Value::Kind::kInt) == simd::kTagInt);
static_assert(static_cast<uint8_t>(Value::Kind::kDouble) == simd::kTagDouble);
static_assert(static_cast<uint8_t>(Value::Kind::kStr) == simd::kTagStr);

void ColumnProjection::ProjectRows(const EventBatch& batch,
                                   const std::vector<AttrId>& attrs,
                                   const uint32_t* rows, size_t n) {
  rows_ = n;
  const size_t slots = attrs.size();
  slot_of_attr_.clear();
  if (slots == 0) return;
  AttrId max_attr = 0;
  for (AttrId a : attrs) max_attr = a > max_attr ? a : max_attr;
  slot_of_attr_.assign(static_cast<size_t>(max_attr) + 1, -1);
  for (size_t s = 0; s < slots; ++s) {
    slot_of_attr_[attrs[s]] = static_cast<int>(s);
  }
  dval_.resize(slots * rows_);
  ival_.resize(slots * rows_);
  tag_.resize(slots * rows_);

  // Row-major walk (each row's attrs are touched once, while hot from the
  // ingest copy), scattering into slot-major lanes.
  for (size_t i = 0; i < rows_; ++i) {
    const uint32_t r = rows[i];
    const Value* row = batch.attrs(r);
    const size_t row_attrs = batch.num_attrs(r);
    for (size_t s = 0; s < slots; ++s) {
      const AttrId a = attrs[s];
      const size_t at = s * rows_ + i;
      if (static_cast<size_t>(a) < row_attrs) {
        DecomposeValue(row[a], &dval_[at], &ival_[at], &tag_[at]);
      } else {
        dval_[at] = 0.0;
        ival_[at] = 0;
        tag_[at] = simd::kTagNull;
      }
    }
  }
}

}  // namespace greta
