#ifndef GRETA_TESTS_TEST_UTIL_H_
#define GRETA_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/sase.h"
#include "common/catalog.h"
#include "common/event_batch.h"
#include "common/stream.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "storage/window.h"

namespace greta::testing {

/// Catalog with the paper's running-example types A..E, each carrying one
/// numeric attribute `attr` (Figures 6, 12, 13).
inline std::unique_ptr<Catalog> PaperCatalog() {
  auto catalog = std::make_unique<Catalog>();
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    catalog->DefineType(name,
                        {{"attr", Value::Kind::kDouble}});
  }
  return catalog;
}

/// Builds the stream of Figure 6: I = {a1, b2, c2, a3, e3, a4, c5, d6, b7,
/// a8, b9} (letter = type, number = timestamp). Attribute values default to
/// the timestamp unless overridden by attr_of.
inline Stream Figure6Stream(Catalog* catalog) {
  Stream stream;
  auto add = [&](const char* type, Ts time) {
    stream.Append(EventBuilder(catalog, type, time)
                      .Set("attr", static_cast<double>(time))
                      .Build());
  };
  add("A", 1);
  add("B", 2);
  add("C", 2);
  add("A", 3);
  add("E", 3);
  add("A", 4);
  add("C", 5);
  add("D", 6);
  add("B", 7);
  add("A", 8);
  add("B", 9);
  return stream;
}

/// The stream of Figure 12: I = {a1, b2, a3, a4, b7} with a1.attr=5,
/// a3.attr=6, a4.attr=4.
inline Stream Figure12Stream(Catalog* catalog) {
  Stream stream;
  auto add = [&](const char* type, Ts time, double attr) {
    stream.Append(
        EventBuilder(catalog, type, time).Set("attr", attr).Build());
  };
  add("A", 1, 5.0);
  add("B", 2, 2.0);
  add("A", 3, 6.0);
  add("A", 4, 4.0);
  add("B", 7, 7.0);
  return stream;
}

/// Feeds a full stream through an engine and flushes it, leaving the rows
/// undrained (multi-query engines drain per query afterwards). `batch_size`
/// 0 feeds the events one at a time through Process; any other value packs
/// them into columnar batches of that many rows for ProcessBatch.
inline void FeedStream(EngineInterface* engine, const Stream& stream,
                       size_t batch_size = 0) {
  const std::vector<Event>& events = stream.events();
  if (batch_size == 0) {
    for (const Event& e : events) {
      Status s = engine->Process(e);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  } else {
    EventBatch batch;
    for (size_t i = 0; i < events.size(); i += batch_size) {
      batch.clear();
      for (size_t j = i; j < std::min(events.size(), i + batch_size); ++j) {
        batch.Append(events[j]);
      }
      Status s = engine->ProcessBatch(batch);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
  Status s = engine->Flush();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

/// Runs a full stream through an engine (see FeedStream) and returns the
/// emitted rows.
inline std::vector<ResultRow> RunEngine(EngineInterface* engine,
                                        const Stream& stream,
                                        size_t batch_size = 0) {
  FeedStream(engine, stream, batch_size);
  return engine->TakeResults();
}

/// The rows of `rows` whose window closes at or before `t` on `window`.
inline std::vector<ResultRow> RowsClosedBy(const std::vector<ResultRow>& rows,
                                           const WindowSpec& window, Ts t) {
  std::vector<ResultRow> out;
  for (const ResultRow& row : rows) {
    if (WindowCloseTime(row.wid, window) <= t) out.push_back(row);
  }
  return out;
}

/// Builds a GRETA engine or fails the test.
inline std::unique_ptr<GretaEngine> MakeGreta(
    const Catalog* catalog, const QuerySpec& spec,
    const EngineOptions& options = {}) {
  auto engine = GretaEngine::Create(catalog, spec, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Builds a SASE (oracle) engine or fails the test.
inline std::unique_ptr<SaseEngine> MakeOracle(
    const Catalog* catalog, const QuerySpec& spec,
    const TwoStepOptions& options = {}) {
  auto engine = SaseEngine::Create(catalog, spec, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// COUNT(*) of the single expected row; "-" when no row was produced.
inline std::string SingleCount(const std::vector<ResultRow>& rows) {
  if (rows.size() != 1) return "rows=" + std::to_string(rows.size());
  return rows[0].aggs.count.ToDecimal();
}

/// Query spec with COUNT(*) over the given pattern, no predicates,
/// unbounded window.
inline QuerySpec CountQuery(PatternPtr pattern) {
  QuerySpec spec;
  spec.pattern = std::move(pattern);
  spec.aggs.push_back(AggSpec{AggKind::kCountStar, kInvalidType,
                              kInvalidAttr, "COUNT(*)"});
  return spec;
}

/// Compares GRETA against the SASE oracle on a query and stream; returns
/// the GRETA rows for further inspection.
inline std::vector<ResultRow> ExpectMatchesOracle(const Catalog* catalog,
                                                  const QuerySpec& spec,
                                                  const Stream& stream) {
  auto greta = MakeGreta(catalog, spec.Clone());
  auto oracle = MakeOracle(catalog, spec.Clone());
  std::vector<ResultRow> greta_rows = RunEngine(greta.get(), stream);
  std::vector<ResultRow> oracle_rows = RunEngine(oracle.get(), stream);
  std::string diff;
  EXPECT_TRUE(RowsEquivalent(greta_rows, oracle_rows, greta->agg_plan(),
                             &diff))
      << "GRETA vs oracle: " << diff;
  return greta_rows;
}

}  // namespace greta::testing

#endif  // GRETA_TESTS_TEST_UTIL_H_
