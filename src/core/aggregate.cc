#include "core/aggregate.h"

namespace greta {

StatusOr<AggPlan> AggPlan::FromSpecs(const std::vector<AggSpec>& specs,
                                     CounterMode mode) {
  AggPlan plan;
  plan.mode = mode;
  if (specs.empty()) {
    return Status::InvalidArgument("query requests no aggregates");
  }
  for (const AggSpec& spec : specs) {
    if (spec.kind == AggKind::kCountStar) continue;
    // All attribute-based aggregates must share one target event type (and
    // one attribute for MIN/MAX/SUM/AVG): the per-vertex aggregate cell
    // carries a single target slot (AggPlan::target_type/target_attr).
    if (plan.target_type == kInvalidType) {
      plan.target_type = spec.type;
    } else if (plan.target_type != spec.type) {
      return Status::Unsupported(
          "aggregates over two different event types in one query are not "
          "supported; split the query");
    }
    if (spec.kind != AggKind::kCountType) {
      if (plan.target_attr == kInvalidAttr) {
        plan.target_attr = spec.attr;
      } else if (plan.target_attr != spec.attr) {
        return Status::Unsupported(
            "aggregates over two different attributes in one query are not "
            "supported; split the query");
      }
    }
    switch (spec.kind) {
      case AggKind::kCountType:
        plan.need_type_count = true;
        break;
      case AggKind::kMin:
        plan.need_min = true;
        break;
      case AggKind::kMax:
        plan.need_max = true;
        break;
      case AggKind::kSum:
        plan.need_sum = true;
        break;
      case AggKind::kAvg:
        plan.need_sum = true;
        plan.need_type_count = true;
        break;
      case AggKind::kCountStar:
        break;
    }
  }
  // COUNT(E) without an attribute is fine; attribute aggregates need one.
  if ((plan.need_min || plan.need_max || plan.need_sum) &&
      plan.target_attr == kInvalidAttr) {
    return Status::InvalidArgument("attribute aggregate without an attribute");
  }
  return plan;
}

std::string AggOutputs::Render(const AggSpec& spec) const {
  switch (spec.kind) {
    case AggKind::kCountStar:
      return count.ToDecimal();
    case AggKind::kCountType:
      return type_count.ToDecimal();
    case AggKind::kMin: {
      if (!any || min == kAggInf) return "-";
      return Value::Double(min).ToString();
    }
    case AggKind::kMax: {
      if (!any || max == -kAggInf) return "-";
      return Value::Double(max).ToString();
    }
    case AggKind::kSum:
      return Value::Double(sum).ToString();
    case AggKind::kAvg:
      return Value::Double(Avg()).ToString();
  }
  return "?";
}

}  // namespace greta
