#ifndef GRETA_COMMON_BIGUINT_H_
#define GRETA_COMMON_BIGUINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace greta {

/// Arbitrary-precision unsigned integer.
///
/// Under skip-till-any-match semantics the number of event trends doubles per
/// event in the worst case (Section 2 of the paper), so exact COUNT values
/// overflow any fixed-width integer long before realistic window sizes.
/// BigUInt backs the engine's exact counter mode; operations are limited to
/// what trend aggregation needs: addition, subtraction (no underflow),
/// multiplication (conjunction term-group products, SUM), comparison, and
/// decimal conversion (via small division).
///
/// Representation: little-endian 64-bit limbs, normalized (no high zero
/// limbs); the value 0 is the empty limb vector.
class BigUInt {
 public:
  BigUInt() = default;
  explicit BigUInt(uint64_t v) {
    if (v != 0) limbs_.push_back(v);
  }

  /// Parses a decimal string; aborts on malformed input (test helper).
  static BigUInt FromDecimal(std::string_view s);

  bool IsZero() const { return limbs_.empty(); }

  /// True if the value fits in 64 bits.
  bool FitsUint64() const { return limbs_.size() <= 1; }

  /// Low 64 bits of the value (the full value if FitsUint64()).
  uint64_t Low64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  /// Number of significant bits (0 for the value 0).
  size_t BitWidth() const;

  void Add(const BigUInt& other);
  void AddUint64(uint64_t v);

  /// Subtracts `other`; aborts if `other > *this`.
  void Sub(const BigUInt& other);

  void MulUint64(uint64_t v);
  BigUInt Mul(const BigUInt& other) const;

  /// Divides by a small divisor in place and returns the remainder.
  uint64_t DivUint64(uint64_t divisor);

  /// Three-way comparison: <0, 0, >0.
  int Compare(const BigUInt& other) const;
  bool operator==(const BigUInt& other) const { return Compare(other) == 0; }
  bool operator!=(const BigUInt& other) const { return Compare(other) != 0; }
  bool operator<(const BigUInt& other) const { return Compare(other) < 0; }

  /// Lossy conversion for reporting (AVG, plots).
  double ToDouble() const;

  /// Exact decimal rendering.
  std::string ToDecimal() const;

  /// Bytes of heap memory held by this value.
  size_t ApproxBytes() const { return limbs_.capacity() * sizeof(uint64_t); }

 private:
  void Normalize();

  std::vector<uint64_t> limbs_;
};

}  // namespace greta

#endif  // GRETA_COMMON_BIGUINT_H_
