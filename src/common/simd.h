#ifndef GRETA_COMMON_SIMD_H_
#define GRETA_COMMON_SIMD_H_

// Column kernels: the tight loops the batch path runs over dense typed
// lanes (common/column_projection.h) and over B+-tree leaf key arrays.
// They are plain portable loops; the win over filtering tagged Value rows
// comes from decomposing each column once and filtering it many times, not
// from the instruction set, so there is one implementation and no runtime
// dispatch.

#include <cstddef>
#include <cstdint>

namespace greta::simd {

/// The instruction set the column kernels are built for. There is one
/// portable implementation; the type and its name stay so provenance
/// records keep their `isa` field.
enum class Isa : uint8_t { kScalar = 0 };

/// Stable lowercase name for provenance records: "scalar".
inline const char* IsaName(Isa) { return "scalar"; }

inline Isa DispatchedIsa() { return Isa::kScalar; }

/// Comparison ops with the projected value on the LEFT. Mirrored
/// predicates (`const CMP attr`) are pre-flipped at plan time —
/// Value::Compare is antisymmetric (including its kind-ordering path), so
/// flipping the operator is exact.
enum class CmpOp : uint8_t { kEq = 0, kNe, kLt, kLe, kGt, kGe };

/// Value::Kind numbering (static_assert'd against the real enum in
/// column_projection.cc; this header stays free of Value includes).
inline constexpr uint8_t kTagNull = 0;
inline constexpr uint8_t kTagInt = 1;
inline constexpr uint8_t kTagDouble = 2;
inline constexpr uint8_t kTagStr = 3;

/// One projected attribute column: a Value row decomposed into dense lanes
/// so the 16-byte tagged union never appears inside a filter loop.
///  - dval: Value::ToDouble() of numeric rows (exactly the coercion the
///    row compare uses for mixed int/double operands);
///  - ival: the exact int64 payload of kInt rows, or the interned string id
///    of kStr rows (Value::Compare orders strings by id);
///  - tag:  Value::Kind as a byte; 0 (null) also marks rows that do not
///    carry the attribute at all, which EvalCmp rejects identically.
struct NumColumn {
  const double* dval = nullptr;
  const int64_t* ival = nullptr;
  const uint8_t* tag = nullptr;
};

/// A compare-against-constant, fully resolved at plan time (or once per
/// event for NEXT-attr residuals): the op is value-on-left, the rhs is
/// decomposed by kind, and the constant results for kind-mismatched lanes
/// are precomputed so the kernel never consults Value::Compare.
///
/// `mismatch_pass` is the EvalCmp result for lanes in the *other*
/// comparability class than the rhs (string lanes under a numeric rhs, and
/// numeric lanes under a string rhs): false for kEq, true for kNe, and the
/// release-build kind-ordering result of Value::Compare for the orderings.
struct CmpConst {
  CmpOp op = CmpOp::kEq;
  uint8_t rhs_kind = 0;  // Value::Kind as uint8_t; 0 (null) => nothing passes
  uint8_t mismatch_pass = 0;
  double rhs_d = 0.0;   // numeric rhs coerced to double (int rhs: exact cast)
  int64_t rhs_i = 0;    // int rhs payload, or string rhs id
};

/// Result pair of the fused range-mask + count fold.
struct MaskedSum {
  uint64_t sum = 0;    // wrapping sum of admitted nonzero counts
  uint64_t lanes = 0;  // number of admitted entries with a nonzero count
};

/// EvalCmp over a decomposed lane, value-on-left. Mirrors
/// predicate/batch_filter.cc EvalCmp + Value::Compare exactly: null lanes
/// fail every op (including kNe); int/int ordering is exact int64; any
/// numeric pair with a double coerces through ToDouble; strings compare by
/// pool id; kind-mismatched lanes take the precomputed constant.
inline bool PassLane(const NumColumn& col, const CmpConst& cmp, size_t j) {
  const uint8_t tag = col.tag[j];
  if (tag == kTagNull || cmp.rhs_kind == kTagNull) return false;
  const bool lane_str = tag == kTagStr;
  const bool rhs_str = cmp.rhs_kind == kTagStr;
  if (lane_str != rhs_str) return cmp.mismatch_pass != 0;
  if (lane_str || (tag == kTagInt && cmp.rhs_kind == kTagInt)) {
    const int64_t a = col.ival[j];
    const int64_t b = cmp.rhs_i;
    switch (cmp.op) {
      case CmpOp::kEq: return a == b;
      case CmpOp::kNe: return a != b;
      case CmpOp::kLt: return a < b;
      case CmpOp::kLe: return a <= b;
      case CmpOp::kGt: return a > b;
      case CmpOp::kGe: return a >= b;
    }
    return false;
  }
  // Mixed numeric: ToDouble coercion. The ordering ops are phrased as
  // negations of the opposite strict compare so a NaN operand yields
  // Compare()==0 semantics (kLe/kGe true, kLt/kGt false), exactly like the
  // row path.
  const double a = col.dval[j];
  const double b = cmp.rhs_d;
  switch (cmp.op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return !(a == b);
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return !(a > b);
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return !(a < b);
  }
  return false;
}

/// Compacts sel[0..n) (indices into the column arrays, biased by `rebase`:
/// lane i reads col.*[sel[i] - rebase]) to the lanes passing `cmp`,
/// preserving relative order; returns the surviving count.
inline size_t FilterSel(const NumColumn& col, const CmpConst& cmp,
                        uint32_t rebase, uint32_t* sel, size_t n) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = sel[i];
    const bool pass = PassLane(col, cmp, s - rebase);
    sel[out] = s;
    out += pass ? 1 : 0;
  }
  return out;
}

/// The per-event key re-filter: a key is rejected iff
/// (lo_strict ? key <= lo : key < lo) or (hi_strict ? key >= hi : key > hi).
inline bool KeyAdmitted(double key, double lo, bool lo_strict, double hi,
                        bool hi_strict) {
  if (lo_strict ? key <= lo : key < lo) return false;
  if (hi_strict ? key >= hi : key > hi) return false;
  return true;
}

/// Appends to `out` every j in [begin,end) whose keys[j] is admitted by the
/// (lo, hi) bounds (KeyAdmitted), ascending; returns the appended count.
inline size_t RangeSelect(const double* keys, uint32_t begin, uint32_t end,
                          double lo, bool lo_strict, double hi, bool hi_strict,
                          uint32_t* out) {
  size_t n = 0;
  for (uint32_t j = begin; j < end; ++j) {
    if (KeyAdmitted(keys[j], lo, lo_strict, hi, hi_strict)) out[n++] = j;
  }
  return n;
}

/// Fused range mask + modular COUNT fold over dense (key, count) lanes: for
/// j in [begin,end) admitted by the bounds with counts[j] != 0, adds
/// counts[j] into sum (wrapping uint64, which is associative, so lane order
/// cannot change the result) and bumps lanes.
inline MaskedSum MaskedCountSum(const double* keys, const uint64_t* counts,
                                uint32_t begin, uint32_t end, double lo,
                                bool lo_strict, double hi, bool hi_strict) {
  MaskedSum r;
  for (uint32_t j = begin; j < end; ++j) {
    if (!KeyAdmitted(keys[j], lo, lo_strict, hi, hi_strict)) continue;
    if (counts[j] == 0) continue;
    r.sum += counts[j];  // Wrapping by design (modular COUNT).
    ++r.lanes;
  }
  return r;
}

/// B+-tree leaf skip phase: first i in [0,n) where NOT
/// (strict ? keys[i] <= lo : keys[i] < lo); n when every key skips.
inline int LeafSkip(const double* keys, int n, double lo, bool strict) {
  int i = 0;
  while (i < n && (strict ? keys[i] <= lo : keys[i] < lo)) ++i;
  return i;
}

/// B+-tree leaf emit-phase bound: first i in [i0,n) where
/// (strict ? keys[i] >= hi : keys[i] > hi); n when no key stops the scan.
inline int LeafStop(const double* keys, int i0, int n, double hi,
                    bool strict) {
  int i = i0;
  while (i < n && !(strict ? keys[i] >= hi : keys[i] > hi)) ++i;
  return i;
}

/// Equal-timestamp run boundary: first j in (i,n) with times[j] !=
/// times[i]; n when the run covers the rest of the column.
inline size_t RunSplit(const int64_t* times, size_t i, size_t n) {
  const int64_t ts = times[i];
  size_t j = i + 1;
  while (j < n && times[j] == ts) ++j;
  return j;
}

/// splitmix64 avalanche finalization of one hash.
inline uint64_t SplitMix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// SplitMix in place over h[0..n) (the shard router's per-row hash mix).
inline void SplitMixBulk(uint64_t* h, size_t n) {
  for (size_t i = 0; i < n; ++i) h[i] = SplitMix(h[i]);
}

}  // namespace greta::simd

#endif  // GRETA_COMMON_SIMD_H_
