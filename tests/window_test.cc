// Tests for sliding-window semantics: window arithmetic, sub-graph sharing
// across overlapping windows (Section 6, Figure 9 / Example 6), pane purge
// and equivalence with per-window independent evaluation.

#include "storage/window.h"

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"
#include "storage/pane.h"
#include "tests/test_util.h"

namespace greta {
namespace {

using testing::CountQuery;
using testing::Figure6Stream;
using testing::MakeGreta;
using testing::PaperCatalog;
using testing::RunEngine;

TEST(WindowMathTest, FirstLastWindow) {
  WindowSpec w = WindowSpec::Sliding(10, 3);
  // Window k covers [3k, 3k+10).
  EXPECT_EQ(FirstWindowOf(0, w), 0);
  EXPECT_EQ(LastWindowOf(0, w), 0);
  EXPECT_EQ(FirstWindowOf(9, w), 0);
  EXPECT_EQ(LastWindowOf(9, w), 3);
  EXPECT_EQ(FirstWindowOf(10, w), 1);
  EXPECT_EQ(LastWindowOf(12, w), 4);
  EXPECT_EQ(MaxWindowsPerEvent(w), 4);
  EXPECT_EQ(WindowStartTime(2, w), 6);
  EXPECT_EQ(WindowCloseTime(2, w), 16);
  EXPECT_EQ(PaneSize(w), 1);  // gcd(10, 3)
  EXPECT_EQ(PaneSize(WindowSpec::Sliding(10, 5)), 5);
}

TEST(WindowMathTest, TumblingAndUnbounded) {
  WindowSpec t = WindowSpec::Tumbling(10);
  EXPECT_EQ(FirstWindowOf(25, t), 2);
  EXPECT_EQ(LastWindowOf(25, t), 2);
  EXPECT_EQ(MaxWindowsPerEvent(t), 1);
  WindowSpec u = WindowSpec::Unbounded();
  EXPECT_EQ(FirstWindowOf(123456, u), 0);
  EXPECT_EQ(LastWindowOf(123456, u), 0);
  EXPECT_EQ(MaxWindowsPerEvent(u), 1);
}

TEST(WindowMathTest, FloorDivHandlesNegatives) {
  EXPECT_EQ(FloorDiv(7, 3), 2);
  EXPECT_EQ(FloorDiv(-7, 3), -3);
  EXPECT_EQ(FloorDiv(-6, 3), -2);
}

TEST(WindowMathTest, NextCloseTimeIsStrictlyAfter) {
  WindowSpec sliding = WindowSpec::Sliding(10, 5);  // closes 10, 15, 20, ...
  EXPECT_EQ(NextCloseTime(0, sliding), 10);  // before the first close
  EXPECT_EQ(NextCloseTime(9, sliding), 10);
  EXPECT_EQ(NextCloseTime(10, sliding), 15);  // on a close: the next one
  EXPECT_EQ(NextCloseTime(14, sliding), 15);
  EXPECT_EQ(NextCloseTime(15, sliding), 20);
  EXPECT_EQ(NextCloseTime(-3, sliding), 10);  // negative t
  EXPECT_EQ(NextCloseTime(kMinTs, sliding), 10);

  WindowSpec tumbling = WindowSpec::Tumbling(4);  // closes 4, 8, 12, ...
  EXPECT_EQ(NextCloseTime(0, tumbling), 4);
  EXPECT_EQ(NextCloseTime(4, tumbling), 8);
  EXPECT_EQ(NextCloseTime(11, tumbling), 12);
  EXPECT_EQ(NextCloseTime(-100, tumbling), 4);

  // Gapped grid (slide > within): t between windows waits for the next.
  WindowSpec gapped = WindowSpec::Sliding(2, 5);  // closes 2, 7, 12, ...
  EXPECT_EQ(NextCloseTime(2, gapped), 7);
  EXPECT_EQ(NextCloseTime(3, gapped), 7);

  // Every next close is a window's close, and the first one past t.
  for (Ts t = -12; t < 40; ++t) {
    const Ts next = NextCloseTime(t, sliding);
    EXPECT_GT(next, t);
    EXPECT_EQ((next - sliding.within) % sliding.slide, 0);
    // The previous close on the grid, if any, is not past t.
    if (next > sliding.within) EXPECT_LE(next - sliding.slide, t);
  }

  WindowSpec unbounded = WindowSpec::Unbounded();
  EXPECT_EQ(NextCloseTime(0, unbounded), kMaxTs);
  EXPECT_EQ(NextCloseTime(-7, unbounded), kMaxTs);
  EXPECT_EQ(NextCloseTime(123456, unbounded), kMaxTs);
  // No close fits in Ts past the last representable one.
  EXPECT_EQ(NextCloseTime(kMaxTs - 1, sliding), kMaxTs);
}

TEST(WindowMathTest, NextCloseTimeMinOverMixedGrids) {
  // The sharded router folds NextCloseTime with min over every query's
  // emission grid: 10/5 closes at 10, 15, 20; 4/2 at 4, 6, 8, ...
  const std::vector<WindowSpec> grids = {WindowSpec::Sliding(10, 5),
                                         WindowSpec::Sliding(4, 2),
                                         WindowSpec::Unbounded()};
  auto next_close = [&](Ts t) {
    Ts next = kMaxTs;
    for (const WindowSpec& w : grids) {
      next = std::min(next, NextCloseTime(t, w));
    }
    return next;
  };
  EXPECT_EQ(next_close(-1), 4);
  EXPECT_EQ(next_close(4), 6);
  EXPECT_EQ(next_close(9), 10);
  EXPECT_EQ(next_close(10), 12);
  EXPECT_EQ(next_close(14), 15);  // 10/5's close beats 4/2's 16
  EXPECT_EQ(next_close(15), 16);
  // An all-unbounded workload never crosses a close.
  EXPECT_EQ(NextCloseTime(1000, WindowSpec::Unbounded()), kMaxTs);
}

TEST(PaneStoreTest, InsertScanAndPurge) {
  struct V {
    int id;
  };
  PaneStore<V> store(/*pane_size=*/10, /*num_buckets=*/2);
  store.Insert(5, 0, 1.0, V{1});
  store.Insert(15, 0, 2.0, V{2});
  store.Insert(25, 1, 3.0, V{3});
  store.Insert(25, 0, 0.5, V{4});
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.num_panes(), 3u);

  std::vector<int> seen;
  store.ScanBucket(0, 30, 0, KeyBounds{}, [&](V* v) { seen.push_back(v->id); });
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 4}));

  // Time-bounded scan skips panes outside the range.
  seen.clear();
  store.ScanBucket(10, 19, 0, KeyBounds{},
                   [&](V* v) { seen.push_back(v->id); });
  EXPECT_EQ(seen, (std::vector<int>{2}));

  // Key-bounded scan.
  seen.clear();
  KeyBounds kb;
  kb.lo = 1.5;
  store.ScanBucket(0, 30, 0, kb, [&](V* v) { seen.push_back(v->id); });
  EXPECT_EQ(seen, (std::vector<int>{2}));

  // Purge drops whole panes.
  size_t freed = store.PurgeBefore(20);
  EXPECT_EQ(freed, 2u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.num_panes(), 1u);
}

TEST(WindowTest, Figure9SubGraphSharing) {
  // Example 6: (SEQ(A+, B))+ WITHIN 10 SLIDE 3 over the Figure 6 stream.
  // Expected per-window counts (computed by hand, validated against
  // independent per-window evaluation below): W0 [0,10) = 43,
  // W1 [3,13) = 13, W2 [6,16) = 1, W3 [9,19) has only b9 (no trends).
  auto catalog = PaperCatalog();
  QuerySpec spec = CountQuery(Pattern::Plus(Pattern::Seq(
      Pattern::Plus(Pattern::Atom(0)), Pattern::Atom(1))));
  spec.window = WindowSpec::Sliding(10, 3);
  auto engine = MakeGreta(catalog.get(), std::move(spec));
  Stream stream = Figure6Stream(catalog.get());
  std::vector<ResultRow> rows = RunEngine(engine.get(), stream);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].wid, 0);
  EXPECT_EQ(rows[0].aggs.count.ToDecimal(), "43");
  EXPECT_EQ(rows[1].wid, 1);
  EXPECT_EQ(rows[1].aggs.count.ToDecimal(), "13");
  EXPECT_EQ(rows[2].wid, 2);
  EXPECT_EQ(rows[2].aggs.count.ToDecimal(), "1");
}

TEST(WindowTest, SharedGraphMatchesIndependentPerWindowRuns) {
  // The shared-graph per-window aggregates must equal running each window
  // as its own unbounded query over the window's sub-stream (the naive
  // sub-graph replication of Figure 9(a)).
  auto catalog = PaperCatalog();
  WindowSpec w = WindowSpec::Sliding(6, 2);
  Stream stream = Figure6Stream(catalog.get());

  QuerySpec shared_spec = CountQuery(Pattern::Plus(Pattern::Seq(
      Pattern::Plus(Pattern::Atom(0)), Pattern::Atom(1))));
  shared_spec.window = w;
  auto shared = MakeGreta(catalog.get(), std::move(shared_spec));
  std::vector<ResultRow> shared_rows = RunEngine(shared.get(), stream);

  for (WindowId wid = 0; wid <= LastWindowOf(stream.max_time(), w); ++wid) {
    Stream sub;
    for (const Event& e : stream.events()) {
      if (e.time >= WindowStartTime(wid, w) &&
          e.time < WindowCloseTime(wid, w)) {
        sub.Append(e);
      }
    }
    QuerySpec spec = CountQuery(Pattern::Plus(Pattern::Seq(
        Pattern::Plus(Pattern::Atom(0)), Pattern::Atom(1))));
    auto independent = MakeGreta(catalog.get(), std::move(spec));
    std::vector<ResultRow> rows = RunEngine(independent.get(), sub);
    std::string expected = rows.empty() ? "" : rows[0].aggs.count.ToDecimal();
    std::string actual;
    for (const ResultRow& row : shared_rows) {
      if (row.wid == wid) actual = row.aggs.count.ToDecimal();
    }
    EXPECT_EQ(actual, expected) << "window " << wid;
  }
}

TEST(WindowTest, ResultsEmittedIncrementallyAtWindowClose) {
  // A window's row is available as soon as an event at/after its close time
  // arrives — not only at Flush.
  auto catalog = PaperCatalog();
  QuerySpec spec = CountQuery(Pattern::Plus(Pattern::Atom(0)));
  spec.window = WindowSpec::Tumbling(10);
  auto engine = MakeGreta(catalog.get(), std::move(spec));
  ASSERT_TRUE(engine
                  ->Process(EventBuilder(catalog.get(), "A", 1)
                                .Set("attr", 1.0)
                                .Build())
                  .ok());
  EXPECT_TRUE(engine->TakeResults().empty());
  ASSERT_TRUE(engine
                  ->Process(EventBuilder(catalog.get(), "A", 12)
                                .Set("attr", 1.0)
                                .Build())
                  .ok());
  std::vector<ResultRow> rows = engine->TakeResults();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].wid, 0);
  EXPECT_EQ(rows[0].aggs.count.ToDecimal(), "1");
}

TEST(WindowTest, PanePurgeBoundsMemory) {
  // Streaming many tumbling windows: expired panes are deleted, so current
  // memory stays bounded while peak reflects one window's worth.
  auto catalog = PaperCatalog();
  QuerySpec spec = CountQuery(Pattern::Plus(Pattern::Atom(0)));
  spec.window = WindowSpec::Tumbling(10);
  auto engine = MakeGreta(catalog.get(), std::move(spec));
  for (Ts t = 0; t < 1000; ++t) {
    ASSERT_TRUE(engine
                    ->Process(EventBuilder(catalog.get(), "A", t)
                                  .Set("attr", 1.0)
                                  .Build())
                    .ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  std::vector<ResultRow> rows = engine->TakeResults();
  EXPECT_EQ(rows.size(), 100u);
  for (const ResultRow& row : rows) {
    EXPECT_EQ(row.aggs.count.ToDecimal(), "1023");  // 2^10 - 1
  }
  // Peak far below what 1000 retained events with 100 windows would need.
  EXPECT_LT(engine->stats().peak_bytes, 200 * 1024u);
}

TEST(WindowTest, EventsInMultipleWindowsKeepPerWindowCounts) {
  // One event in overlapping windows contributes to each (Section 6: an
  // event that falls into k windows maintains k aggregates).
  auto catalog = PaperCatalog();
  QuerySpec spec = CountQuery(Pattern::Plus(Pattern::Atom(0)));
  spec.window = WindowSpec::Sliding(4, 1);
  auto engine = MakeGreta(catalog.get(), std::move(spec));
  Stream stream;
  stream.Append(
      EventBuilder(catalog.get(), "A", 5).Set("attr", 1.0).Build());
  std::vector<ResultRow> rows = RunEngine(engine.get(), stream);
  // Windows [2,6), [3,7), [4,8), [5,9) all contain t=5.
  ASSERT_EQ(rows.size(), 4u);
  for (const ResultRow& row : rows) {
    EXPECT_EQ(row.aggs.count.ToDecimal(), "1");
  }
  EXPECT_EQ(rows[0].wid, 2);
  EXPECT_EQ(rows[3].wid, 5);
}

}  // namespace
}  // namespace greta
