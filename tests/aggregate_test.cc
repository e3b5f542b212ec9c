// Unit tests for the aggregate substrate: Counter overflow promotion,
// AggCell propagation rules (Theorems 4.3 and 9.1), AggPlan derivation, and
// AggOutputs merging/rendering.

#include "core/aggregate.h"

#include <limits>

#include "gtest/gtest.h"

namespace greta {
namespace {

TEST(CounterTest, ExactModePromotesOnOverflow) {
  Counter c(std::numeric_limits<uint64_t>::max());
  c.AddOne(CounterMode::kExact);
  EXPECT_EQ(c.ToDecimal(), "18446744073709551616");  // 2^64
  c.Add(Counter(5), CounterMode::kExact);
  EXPECT_EQ(c.ToDecimal(), "18446744073709551621");
  EXPECT_GT(c.ApproxHeapBytes(), 0u);
}

TEST(CounterTest, ModularModeWraps) {
  Counter c(std::numeric_limits<uint64_t>::max());
  c.AddOne(CounterMode::kModular);
  EXPECT_EQ(c.ToDecimal(), "0");
  EXPECT_TRUE(c.IsZero());
  c.Add(Counter(7), CounterMode::kModular);
  EXPECT_EQ(c.Low64(), 7u);
  EXPECT_EQ(c.ApproxHeapBytes(), 0u);
}

TEST(CounterTest, AddBigToBig) {
  Counter a(std::numeric_limits<uint64_t>::max());
  a.AddOne(CounterMode::kExact);  // 2^64
  Counter b = a;                  // Deep copy.
  a.Add(b, CounterMode::kExact);  // 2^65
  EXPECT_EQ(a.ToDecimal(), "36893488147419103232");
  EXPECT_EQ(b.ToDecimal(), "18446744073709551616");  // b unchanged.
}

TEST(CounterTest, CopySemantics) {
  Counter a(42);
  Counter b = a;
  b.AddOne(CounterMode::kExact);
  EXPECT_EQ(a.Low64(), 42u);
  EXPECT_EQ(b.Low64(), 43u);
}

TEST(CounterTest, FromBigHonorsMode) {
  BigUInt big = BigUInt::FromDecimal("36893488147419103232");  // 2^65
  Counter exact = Counter::FromBig(big, CounterMode::kExact);
  EXPECT_EQ(exact.ToDecimal(), "36893488147419103232");
  Counter modular = Counter::FromBig(big, CounterMode::kModular);
  EXPECT_EQ(modular.ToDecimal(), "0");  // 2^65 mod 2^64
}

TEST(AggPlanTest, DerivesNeedsFromSpecs) {
  std::vector<AggSpec> specs = {
      {AggKind::kCountStar, kInvalidType, kInvalidAttr, "COUNT(*)"},
      {AggKind::kAvg, 3, 1, "AVG(T.x)"},
  };
  auto plan = AggPlan::FromSpecs(specs, CounterMode::kExact);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().need_sum);         // AVG = SUM / COUNT(E)
  EXPECT_TRUE(plan.value().need_type_count);
  EXPECT_FALSE(plan.value().need_min);
  EXPECT_EQ(plan.value().target_type, 3);
  EXPECT_EQ(plan.value().target_attr, 1);
}

TEST(AggPlanTest, RejectsMixedTargets) {
  std::vector<AggSpec> two_types = {
      {AggKind::kMin, 1, 0, "MIN(A.x)"},
      {AggKind::kMax, 2, 0, "MAX(B.x)"},
  };
  EXPECT_FALSE(AggPlan::FromSpecs(two_types, CounterMode::kExact).ok());
  std::vector<AggSpec> two_attrs = {
      {AggKind::kMin, 1, 0, "MIN(A.x)"},
      {AggKind::kMax, 1, 1, "MAX(A.y)"},
  };
  EXPECT_FALSE(AggPlan::FromSpecs(two_attrs, CounterMode::kExact).ok());
  EXPECT_FALSE(AggPlan::FromSpecs({}, CounterMode::kExact).ok());
}

TEST(AggCellTest, StartVertexOfTargetType) {
  // Theorem 9.1 for a START event of the target type: count=1,
  // countE=1, min=max=attr, sum=attr.
  AggPlan plan;
  plan.need_type_count = true;
  plan.need_min = plan.need_max = plan.need_sum = true;
  plan.target_type = 0;
  plan.target_attr = 0;
  Event e;
  e.type = 0;
  e.time = 9;
  e.attrs = {Value::Double(2.5)};
  AggCell cell;
  cell.FinishVertex(e, /*is_start=*/true, plan);
  EXPECT_EQ(cell.count.ToDecimal(), "1");
  EXPECT_EQ(cell.type_count.ToDecimal(), "1");
  EXPECT_DOUBLE_EQ(cell.min, 2.5);
  EXPECT_DOUBLE_EQ(cell.max, 2.5);
  EXPECT_DOUBLE_EQ(cell.sum, 2.5);
}

TEST(AggCellTest, SumUsesFinalCount) {
  // e.sum = e.attr * e.count + sum_p p.sum: with two predecessor trends and
  // a start bonus, a target event of attr 10 adds 3 * 10.
  AggPlan plan;
  plan.need_sum = true;
  plan.target_type = 0;
  plan.target_attr = 0;

  AggCell pred;
  pred.count = Counter(2);
  pred.sum = 7.0;

  Event e;
  e.type = 0;
  e.attrs = {Value::Double(10.0)};
  AggCell cell;
  cell.AddPredecessor(pred, plan);
  cell.FinishVertex(e, /*is_start=*/true, plan);
  EXPECT_EQ(cell.count.ToDecimal(), "3");
  EXPECT_DOUBLE_EQ(cell.sum, 7.0 + 3 * 10.0);
}

TEST(AggCellTest, NonTargetVertexOnlyForwards) {
  AggPlan plan;
  plan.need_type_count = true;
  plan.need_min = true;
  plan.target_type = 5;  // Not this event's type.
  plan.target_attr = 0;

  AggCell pred;
  pred.count = Counter(4);
  pred.type_count = Counter(9);
  pred.min = 1.5;

  Event e;
  e.type = 0;
  e.attrs = {Value::Double(0.1)};
  AggCell cell;
  cell.AddPredecessor(pred, plan);
  cell.FinishVertex(e, /*is_start=*/false, plan);
  EXPECT_EQ(cell.count.ToDecimal(), "4");
  EXPECT_EQ(cell.type_count.ToDecimal(), "9");  // Unchanged: e is not E.
  EXPECT_DOUBLE_EQ(cell.min, 1.5);              // e.attr not folded in.
}

TEST(AggCellTest, MaxStartTracksLatestTrendStart) {
  // The negation auxiliary (AggPlan::need_max_start, negation barriers of
  // Section 5): START vertices seed their own time; extensions keep the max
  // over predecessors.
  AggPlan plan = AggPlan::ForNegative(CounterMode::kExact);
  Event start;
  start.type = 0;
  start.time = 5;
  AggCell first;
  first.FinishVertex(start, /*is_start=*/true, plan);
  EXPECT_EQ(first.max_start, 5);

  Event later;
  later.type = 0;
  later.time = 9;
  AggCell second;
  second.AddPredecessor(first, plan);
  second.FinishVertex(later, /*is_start=*/true, plan);
  // Trends ending at `later`: extension of (5..) and the new trend (9):
  // the latest start is 9.
  EXPECT_EQ(second.max_start, 9);

  AggCell third;
  third.AddPredecessor(second, plan);
  Event mid;
  mid.type = 1;
  mid.time = 12;
  third.FinishVertex(mid, /*is_start=*/false, plan);
  EXPECT_EQ(third.max_start, 9);  // Non-start: inherits only.
}

TEST(AggOutputsTest, AccumulateSkipsZeroCountCells) {
  AggPlan plan;
  plan.need_min = true;
  plan.target_type = 0;
  plan.target_attr = 0;
  AggOutputs out;
  AggCell zero;
  zero.min = -100.0;  // Must not leak into the result.
  out.AccumulateEnd(zero, plan);
  EXPECT_FALSE(out.any);
  EXPECT_EQ(out.min, kAggInf);
}

TEST(AggOutputsTest, MergeAndRender) {
  AggPlan plan;
  plan.need_type_count = plan.need_min = plan.need_max = plan.need_sum = true;
  plan.target_type = 0;
  plan.target_attr = 0;
  AggOutputs a;
  a.count = Counter(2);
  a.type_count = Counter(4);
  a.min = 1.0;
  a.max = 3.0;
  a.sum = 8.0;
  a.any = true;
  AggOutputs b;
  b.count = Counter(3);
  b.type_count = Counter(6);
  b.min = 0.5;
  b.max = 2.0;
  b.sum = 2.0;
  b.any = true;
  a.Merge(b, plan);
  EXPECT_EQ(a.count.ToDecimal(), "5");
  EXPECT_EQ(a.type_count.ToDecimal(), "10");
  EXPECT_DOUBLE_EQ(a.min, 0.5);
  EXPECT_DOUBLE_EQ(a.max, 3.0);
  EXPECT_DOUBLE_EQ(a.sum, 10.0);
  EXPECT_DOUBLE_EQ(a.Avg(), 1.0);

  EXPECT_EQ(a.Render({AggKind::kCountStar, 0, 0, ""}), "5");
  EXPECT_EQ(a.Render({AggKind::kAvg, 0, 0, ""}), "1.0");
  AggOutputs empty;
  EXPECT_EQ(empty.Render({AggKind::kMin, 0, 0, ""}), "-");
}

}  // namespace
}  // namespace greta
