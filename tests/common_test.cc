// Unit tests for the common substrate: values, string interning, catalogs,
// events, streams, status and memory tracking.

#include "common/catalog.h"
#include "common/event.h"
#include "common/memory.h"
#include "common/status.h"
#include "common/stream.h"
#include "common/value.h"
#include "gtest/gtest.h"

namespace greta {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str(3).AsStr(), 3);
  EXPECT_TRUE(Value::Bool(true).Truthy());
  EXPECT_FALSE(Value::Bool(false).Truthy());
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_TRUE(Value::Double(0.1).Truthy());
}

TEST(ValueTest, NumericCoercionInComparison) {
  EXPECT_TRUE(Value::Int(2) == Value::Double(2.0));
  EXPECT_FALSE(Value::Int(2) == Value::Double(2.5));
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(3.0).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Hash(), Value::Double(2.0).Hash());
}

TEST(ValueTest, StringEqualityById) {
  EXPECT_TRUE(Value::Str(1) == Value::Str(1));
  EXPECT_FALSE(Value::Str(1) == Value::Str(2));
  EXPECT_FALSE(Value::Str(1) == Value::Int(1));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::Null().ToString(), "null");
  StringPool pool;
  StrId id = pool.Intern("IBM");
  EXPECT_EQ(Value::Str(id).ToString(&pool), "IBM");
}

TEST(StringPoolTest, InternIsIdempotent) {
  StringPool pool;
  StrId a = pool.Intern("alpha");
  StrId b = pool.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("alpha"), a);
  EXPECT_EQ(pool.Lookup(b), "beta");
  EXPECT_EQ(pool.Find("gamma"), -1);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(CatalogTest, TypeDefinitionAndLookup) {
  Catalog catalog;
  TypeId stock = catalog.DefineType(
      "Stock", {{"price", Value::Kind::kDouble}, {"vol", Value::Kind::kInt}});
  EXPECT_EQ(catalog.FindType("Stock"), stock);
  EXPECT_EQ(catalog.FindType("Nope"), kInvalidType);
  EXPECT_EQ(catalog.type(stock).FindAttr("price"), 0);
  EXPECT_EQ(catalog.type(stock).FindAttr("vol"), 1);
  EXPECT_EQ(catalog.type(stock).FindAttr("missing"), kInvalidAttr);
  EXPECT_EQ(catalog.num_types(), 1u);
}

TEST(EventTest, BuilderSetsAttributesPositionally) {
  Catalog catalog;
  catalog.DefineType("T", {{"x", Value::Kind::kDouble},
                           {"name", Value::Kind::kStr},
                           {"n", Value::Kind::kInt}});
  Event e = EventBuilder(&catalog, "T", 5)
                .Set("n", 9)
                .Set("x", 1.5)
                .Set("name", "hello")
                .Build();
  EXPECT_EQ(e.time, 5);
  EXPECT_DOUBLE_EQ(e.attr(0).AsDouble(), 1.5);
  EXPECT_EQ(catalog.strings()->Lookup(e.attr(1).AsStr()), "hello");
  EXPECT_EQ(e.attr(2).AsInt(), 9);
  EXPECT_EQ(e.ToString(catalog), "T@5{x=1.5,name=hello,n=9}");
}

TEST(StreamTest, AssignsSequenceNumbersInOrder) {
  Catalog catalog;
  catalog.DefineType("T", {});
  Stream stream;
  stream.Append(EventBuilder(&catalog, "T", 1).Build());
  stream.Append(EventBuilder(&catalog, "T", 1).Build());
  stream.Append(EventBuilder(&catalog, "T", 4).Build());
  EXPECT_EQ(stream.size(), 3u);
  EXPECT_EQ(stream[0].seq, 0);
  EXPECT_EQ(stream[1].seq, 1);
  EXPECT_EQ(stream[2].seq, 2);
  EXPECT_EQ(stream.max_time(), 4);
}

TEST(StreamTest, RejectsOutOfOrderAppends) {
  Catalog catalog;
  catalog.DefineType("T", {});
  Stream stream;
  stream.Append(EventBuilder(&catalog, "T", 5).Build());
  EXPECT_DEATH(stream.Append(EventBuilder(&catalog, "T", 4).Build()),
               "GRETA_CHECK");
}

TEST(StatusTest, CodesAndRendering) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> good(7);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  StatusOr<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(MemoryTrackerTest, TracksCurrentAndPeak) {
  MemoryTracker tracker;
  tracker.Add(100);
  tracker.Add(50);
  EXPECT_EQ(tracker.current_bytes(), 150u);
  EXPECT_EQ(tracker.peak_bytes(), 150u);
  tracker.Release(120);
  EXPECT_EQ(tracker.current_bytes(), 30u);
  EXPECT_EQ(tracker.peak_bytes(), 150u);
  tracker.Add(10);
  EXPECT_EQ(tracker.peak_bytes(), 150u);
  tracker.Reset();
  EXPECT_EQ(tracker.current_bytes(), 0u);
  EXPECT_EQ(tracker.peak_bytes(), 0u);
}

}  // namespace
}  // namespace greta
