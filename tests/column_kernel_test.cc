// Tests for the column kernels (common/simd.h) and the typed-lane paths
// built on them. The lane overloads of CompiledVertexFilter and
// CompiledEdgeFilter must select exactly what their Value-row overloads
// select on adversarial values (NaN, +-inf, -0.0, ints around 2^53, nulls,
// strings) over dense, strided, random and empty selections; the range,
// count, leaf, run-split and hash kernels must match brute-force loops; and
// the engine must emit bit-identical rows whether it runs the row kernel or
// the batch kernels at batch sizes 1, 7 and 256, on both sides of the
// projection policy (kMinProjectedAttrUses).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/column_projection.h"
#include "common/event_batch.h"
#include "common/simd.h"
#include "core/plan.h"
#include "gtest/gtest.h"
#include "predicate/batch_filter.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "workload/stock.h"

namespace greta {
namespace {

using simd::MaskedSum;

// Attribute layout of the generated events. Orderings between a string and
// a number are rejected at plan time, so the generators keep each ordered
// comparison within one comparability class; equality mixes every kind.
constexpr AttrId kNumAttr = 0;    // null, int or double lanes
constexpr AttrId kStrAttr = 1;    // null or string lanes
constexpr AttrId kMixedAttr = 2;  // any kind; compared with = and != only
constexpr size_t kNumAttrs = 3;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// A numeric value with the adversarial cases: NaN, +-inf, -0.0, and int
// payloads around 2^53 (where double coercion rounds and the exact int/int
// compare must disagree with it).
Value RandomNumber(std::mt19937_64* rng) {
  std::uniform_int_distribution<int64_t> small(-20, 20);
  std::uniform_int_distribution<int64_t> huge((int64_t{1} << 53) - 3,
                                              (int64_t{1} << 53) + 3);
  switch ((*rng)() % 9) {
    case 0: return Value::Null();
    case 1: return Value::Int(huge(*rng));
    case 2: return Value::Double(static_cast<double>(huge(*rng)));
    case 3: {
      const double special[] = {kNaN, kInf, -kInf, -0.0, 0.0};
      return Value::Double(special[(*rng)() % 5]);
    }
    case 4:
    case 5: return Value::Int(small(*rng));
    default: return Value::Double(static_cast<double>(small(*rng)) / 2.0);
  }
}

Value RandomString(std::mt19937_64* rng) {
  if ((*rng)() % 6 == 0) return Value::Null();
  return Value::Str(static_cast<StrId>((*rng)() % 8));
}

Value RandomAny(std::mt19937_64* rng) {
  return (*rng)() % 3 == 0 ? RandomString(rng) : RandomNumber(rng);
}

Value RandomValueFor(std::mt19937_64* rng, AttrId attr) {
  switch (attr) {
    case kNumAttr: return RandomNumber(rng);
    case kStrAttr: return RandomString(rng);
    default: return RandomAny(rng);
  }
}

Event RandomEvent(std::mt19937_64* rng, Ts time) {
  Event e;
  e.time = time;
  e.type = 0;
  for (size_t a = 0; a < kNumAttrs; ++a) {
    e.attrs.push_back(RandomValueFor(rng, static_cast<AttrId>(a)));
  }
  return e;
}

// A comparison op legal on `attr` (orderings only within one class).
ExprOp RandomOp(std::mt19937_64* rng, AttrId attr) {
  const ExprOp all[] = {ExprOp::kEq, ExprOp::kNe, ExprOp::kLt,
                        ExprOp::kLe, ExprOp::kGt, ExprOp::kGe};
  return attr == kMixedAttr ? all[(*rng)() % 2] : all[(*rng)() % 6];
}

// `attr CMP const` or the mirrored `const CMP attr`.
ExprPtr RandomConstPredicate(std::mt19937_64* rng) {
  const AttrId attr = static_cast<AttrId>((*rng)() % kNumAttrs);
  const ExprOp op = RandomOp(rng, attr);
  ExprPtr a = Expr::Attr(0, attr);
  ExprPtr c = Expr::Const(RandomValueFor(rng, attr));
  return (*rng)() % 2 == 0 ? Expr::Binary(op, std::move(a), std::move(c))
                           : Expr::Binary(op, std::move(c), std::move(a));
}

// Edge shapes: prev-vs-const as above, or `prev.attr CMP NEXT.attr` in
// either orientation, both sides in the same comparability class.
ExprPtr RandomEdgePredicate(std::mt19937_64* rng) {
  if ((*rng)() % 2 == 0) return RandomConstPredicate(rng);
  const AttrId attr = static_cast<AttrId>((*rng)() % kNumAttrs);
  const ExprOp op = RandomOp(rng, attr);
  ExprPtr prev = Expr::Attr(0, attr);
  ExprPtr next = Expr::NextAttr(0, attr);
  return (*rng)() % 2 == 0
             ? Expr::Binary(op, std::move(prev), std::move(next))
             : Expr::Binary(op, std::move(next), std::move(prev));
}

// Ascending selection over [base, base + lanes): dense, strided
// (partition-like), random, or empty.
std::vector<uint32_t> MakeSelection(std::mt19937_64* rng, size_t lanes,
                                    uint32_t base, int shape) {
  std::vector<uint32_t> sel;
  switch (shape) {
    case 0:
      for (size_t i = 0; i < lanes; ++i) {
        sel.push_back(base + static_cast<uint32_t>(i));
      }
      break;
    case 1: {
      const size_t stride = 2 + (*rng)() % 9;
      for (size_t i = (*rng)() % stride; i < lanes; i += stride) {
        sel.push_back(base + static_cast<uint32_t>(i));
      }
      break;
    }
    case 2:
      for (size_t i = 0; i < lanes; ++i) {
        if ((*rng)() % 3 != 0) sel.push_back(base + static_cast<uint32_t>(i));
      }
      break;
    default:
      break;
  }
  return sel;
}

constexpr int kNumShapes = 4;

TEST(ColumnKernel, VertexFilterLanesMatchValueRows) {
  std::mt19937_64 rng(20260808);
  for (int iter = 0; iter < 400; ++iter) {
    EventBatch batch;
    const size_t n = iter % 9 == 0 ? 0 : 1 + rng() % 300;
    for (size_t i = 0; i < n; ++i) batch.Append(RandomEvent(&rng, 0));

    std::vector<ExprPtr> owned;
    std::vector<const Expr*> preds;
    for (size_t p = 1 + rng() % 3; p > 0; --p) {
      owned.push_back(RandomConstPredicate(&rng));
      preds.push_back(owned.back().get());
    }
    const CompiledVertexFilter filter(preds);

    // Project a random subset of the attributes so the lane overload runs
    // both its kernel and its Value-row fallback.
    std::vector<AttrId> attrs;
    for (size_t a = 0; a < kNumAttrs; ++a) {
      if (rng() % 3 != 0) attrs.push_back(static_cast<AttrId>(a));
    }
    for (int group_shape = 0; group_shape < kNumShapes; ++group_shape) {
      // The row group (lane k stands for batch row rows[k]), then a
      // selection of lanes within it.
      const std::vector<uint32_t> rows =
          MakeSelection(&rng, n, 0, group_shape);
      ColumnProjection proj;
      proj.ProjectRows(batch, attrs, rows.data(), rows.size());
      for (int shape = 0; shape < kNumShapes; ++shape) {
        std::vector<uint32_t> pos =
            MakeSelection(&rng, rows.size(), 0, shape);
        std::vector<uint32_t> want;
        for (uint32_t p : pos) want.push_back(rows[p]);
        want.resize(filter.Filter(batch, want.data(), want.size()));

        pos.resize(
            filter.Filter(batch, proj, rows.data(), pos.data(), pos.size()));
        std::vector<uint32_t> got;
        for (uint32_t p : pos) got.push_back(rows[p]);
        ASSERT_EQ(want, got) << "iter " << iter << " group " << group_shape
                             << " shape " << shape;
      }
    }
  }
}

TEST(ColumnKernel, EdgeFilterLanesMatchValueRows) {
  std::mt19937_64 rng(7);
  for (int iter = 0; iter < 400; ++iter) {
    const size_t n = iter % 9 == 0 ? 0 : 1 + rng() % 200;
    std::vector<Event> events;
    for (size_t i = 0; i < n; ++i) events.push_back(RandomEvent(&rng, 0));
    std::vector<EventView> prevs(events.begin(), events.end());
    const Event next = RandomEvent(&rng, 1);

    std::vector<ExprPtr> owned;
    std::vector<const Expr*> preds;
    for (size_t p = 1 + rng() % 3; p > 0; --p) {
      owned.push_back(RandomEdgePredicate(&rng));
      preds.push_back(owned.back().get());
    }
    const CompiledEdgeFilter filter(preds);

    // The graph builds columns over one transition's span [begin, end) of
    // the collected entries and filters entry indices rebased by `begin`.
    const uint32_t begin = n == 0 ? 0 : static_cast<uint32_t>(rng() % n);
    const uint32_t end =
        begin + static_cast<uint32_t>(n == 0 ? 0 : rng() % (n - begin + 1));
    CompiledEdgeFilter::PrevColumns cols;
    filter.BuildPrevColumns(prevs.data() + begin, end - begin, &cols);
    for (int shape = 0; shape < kNumShapes; ++shape) {
      std::vector<uint32_t> want =
          MakeSelection(&rng, end - begin, begin, shape);
      std::vector<uint32_t> got = want;
      want.resize(filter.Filter(next, prevs.data(), want.data(), want.size()));
      got.resize(filter.Filter(next, prevs.data(), cols, begin, got.data(),
                               got.size()));
      ASSERT_EQ(want, got) << "iter " << iter << " shape " << shape;
    }
  }
}

// The per-event key re-filter as the row path writes it: a key is dropped
// iff it falls below the lower or above the upper bound (so NaN keys stay).
std::vector<uint32_t> BruteRangeSelect(const std::vector<double>& keys,
                                       uint32_t begin, uint32_t end,
                                       double lo, bool lo_strict, double hi,
                                       bool hi_strict) {
  std::vector<uint32_t> out;
  for (uint32_t j = begin; j < end; ++j) {
    const double key = keys[j];
    if (lo_strict ? key <= lo : key < lo) continue;
    if (hi_strict ? key >= hi : key > hi) continue;
    out.push_back(j);
  }
  return out;
}

TEST(ColumnKernel, RangeSelectAndMaskedCountSumMatchBruteLoops) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> real(-100.0, 100.0);
  for (int iter = 0; iter < 400; ++iter) {
    const size_t n = iter % 5 == 0 ? 0 : 1 + rng() % 200;
    std::vector<double> keys(n);
    std::vector<uint64_t> counts(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = rng() % 32 == 0 ? kNaN : real(rng);
      counts[i] = rng() % 4 == 0 ? 0 : rng();
    }
    const uint32_t begin = n == 0 ? 0 : static_cast<uint32_t>(rng() % n);
    const uint32_t end =
        begin + static_cast<uint32_t>(n == 0 ? 0 : rng() % (n - begin + 1));
    // Bounds include the infinities and, occasionally, an exact key.
    const double lo = rng() % 8 == 0 ? -kInf
                      : rng() % 4 == 0 && n > 0 ? keys[rng() % n]
                                                : real(rng);
    const double hi = rng() % 8 == 0 ? kInf
                      : rng() % 4 == 0 && n > 0 ? keys[rng() % n]
                                                : real(rng);
    const bool lo_strict = rng() % 2 == 0;
    const bool hi_strict = rng() % 2 == 0;

    const std::vector<uint32_t> want =
        BruteRangeSelect(keys, begin, end, lo, lo_strict, hi, hi_strict);
    std::vector<uint32_t> got(n);
    got.resize(simd::RangeSelect(keys.data(), begin, end, lo, lo_strict, hi,
                                 hi_strict, got.data()));
    ASSERT_EQ(want, got) << "iter " << iter;

    MaskedSum brute;
    for (uint32_t j : want) {
      if (counts[j] == 0) continue;
      brute.sum += counts[j];
      ++brute.lanes;
    }
    const MaskedSum sum =
        simd::MaskedCountSum(keys.data(), counts.data(), begin, end, lo,
                             lo_strict, hi, hi_strict);
    ASSERT_EQ(brute.sum, sum.sum) << "iter " << iter;
    ASSERT_EQ(brute.lanes, sum.lanes) << "iter " << iter;
  }
}

TEST(ColumnKernel, LeafScansMatchLowerAndUpperBound) {
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> real(-50.0, 50.0);
  for (int iter = 0; iter < 400; ++iter) {
    const int n = static_cast<int>(rng() % 100);
    std::vector<double> keys(n);
    // Few distinct keys, so duplicates equal to a bound are common.
    for (double& k : keys) k = std::floor(real(rng) / 10.0);
    std::sort(keys.begin(), keys.end());
    const double lo = rng() % 2 == 0 && n > 0 ? keys[rng() % n] : real(rng);
    const double hi = rng() % 2 == 0 && n > 0 ? keys[rng() % n] : real(rng);
    const bool lo_strict = rng() % 2 == 0;
    const bool hi_strict = rng() % 2 == 0;

    // Skip: past every key below lo (strict: also keys equal to lo).
    const auto skip = lo_strict
                          ? std::upper_bound(keys.begin(), keys.end(), lo)
                          : std::lower_bound(keys.begin(), keys.end(), lo);
    ASSERT_EQ(static_cast<int>(skip - keys.begin()),
              simd::LeafSkip(keys.data(), n, lo, lo_strict))
        << "iter " << iter;
    // Stop: the first key at or after i0 above hi (strict: also equal).
    const int i0 = static_cast<int>(rng() % (n + 1));
    const auto stop = hi_strict
                          ? std::lower_bound(keys.begin(), keys.end(), hi)
                          : std::upper_bound(keys.begin(), keys.end(), hi);
    ASSERT_EQ(std::max(i0, static_cast<int>(stop - keys.begin())),
              simd::LeafStop(keys.data(), i0, n, hi, hi_strict))
        << "iter " << iter;
  }
}

TEST(ColumnKernel, RunSplitAndSplitMixBulkMatchBruteLoops) {
  std::mt19937_64 rng(17);
  for (int iter = 0; iter < 300; ++iter) {
    const size_t n = 1 + rng() % 200;
    std::vector<int64_t> times;
    int64_t t = static_cast<int64_t>(rng() % 100);
    while (times.size() < n) {
      const size_t run = 1 + rng() % 9;
      for (size_t i = 0; i < run && times.size() < n; ++i) times.push_back(t);
      ++t;
    }
    for (size_t i = 0; i < n; i += 1 + rng() % 7) {
      size_t brute = i + 1;
      while (brute < n && times[brute] == times[i]) ++brute;
      ASSERT_EQ(brute, simd::RunSplit(times.data(), i, n))
          << "iter " << iter << " i " << i;
    }

    std::vector<uint64_t> h(iter % 7 == 0 ? 0 : n);
    for (uint64_t& x : h) x = rng();
    std::vector<uint64_t> bulk = h;
    simd::SplitMixBulk(bulk.data(), bulk.size());
    for (size_t i = 0; i < h.size(); ++i) {
      ASSERT_EQ(simd::SplitMix(h[i]), bulk[i]) << "iter " << iter;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine sweep: rows must be bit-identical between the row kernel (batch
// kernels disabled, Value-row predicates) and the batch kernels fed row by
// row and in batches of 1, 7 (runs straddling batch boundaries) and 256.
// ---------------------------------------------------------------------------

std::vector<ResultRow> RunQuery(Catalog* catalog, const QuerySpec& spec,
                                const Stream& stream, size_t batch_size,
                                bool batch_kernels) {
  EngineOptions options;
  options.enable_batch_kernels = batch_kernels;
  auto built = GretaEngine::Create(catalog, spec, options);
  EXPECT_TRUE(built.ok());
  std::unique_ptr<GretaEngine> engine = std::move(built).value();
  std::vector<ResultRow> rows;
  auto drain = [&] {
    for (ResultRow& row : engine->TakeResults()) rows.push_back(std::move(row));
  };
  if (batch_size == 0) {
    for (const Event& e : stream.events()) {
      EXPECT_TRUE(engine->Process(e).ok());
      drain();
    }
  } else {
    EventBatch batch;
    batch.Reserve(batch_size);
    const std::vector<Event>& events = stream.events();
    size_t i = 0;
    while (i < events.size()) {
      batch.clear();
      for (; i < events.size() && batch.size() < batch_size; ++i) {
        batch.Append(events[i]);
      }
      EXPECT_TRUE(engine->ProcessBatch(batch).ok());
      drain();
    }
  }
  EXPECT_TRUE(engine->Flush().ok());
  drain();
  return rows;
}

void ExpectIdenticalRows(const std::vector<ResultRow>& want,
                         const std::vector<ResultRow>& got,
                         const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].wid, got[i].wid) << label << " row " << i;
    ASSERT_EQ(want[i].group, got[i].group) << label << " row " << i;
    ASSERT_EQ(want[i].aggs.count.ToDecimal(), got[i].aggs.count.ToDecimal())
        << label << " row " << i;
    ASSERT_EQ(want[i].aggs.sum, got[i].aggs.sum) << label << " row " << i;
    ASSERT_EQ(want[i].aggs.min, got[i].aggs.min) << label << " row " << i;
    ASSERT_EQ(want[i].aggs.max, got[i].aggs.max) << label << " row " << i;
  }
}

// Kernel-pass reads of `attr` across every state's compiled vertex filter:
// the count the graphs compare against kMinProjectedAttrUses (3).
size_t ProjectedAttrUses(const Catalog& catalog, const QuerySpec& spec,
                         const char* attr_name) {
  StatusOr<std::unique_ptr<ExecPlan>> plan =
      BuildPlan(spec, catalog, EngineOptions());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return 0;
  const AttrId attr = catalog.type(catalog.FindType("Stock")).FindAttr(
      attr_name);
  const GraphPlan& graph = plan.value()->alternatives[0].graphs[0];
  std::vector<AttrId> uses;
  for (const StatePlan& sp : graph.states) {
    CompiledVertexFilter(sp.local_preds).AppendFastAttrUses(&uses);
  }
  return static_cast<size_t>(std::count(uses.begin(), uses.end(), attr));
}

TEST(ColumnKernel, EngineRowsBitIdenticalAcrossKernelsAndBatchSizes) {
  Catalog catalog;
  StockConfig stock;
  stock.rate = 60;
  stock.duration = 12;
  // Many companies: short per-partition runs. One company: one partition,
  // so equal-timestamp runs are long and the filters sweep many lanes.
  StockConfig hot = stock;
  hot.num_companies = 1;
  hot.num_sectors = 1;
  const Stream streams[] = {GenerateStockStream(&catalog, stock),
                            GenerateStockStream(&catalog, hot)};

  struct Case {
    const char* text;
    const char* attr = nullptr;  // projection-policy probe, if any
    size_t uses = 0;             // its expected kernel-pass reads
  };
  const Case cases[] = {
      // Const vertex predicates (filter kernels).
      {"RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] "
       "AND S.volume > 100 AND S.volume <= 700 AND S.price > 50.0 "
       "GROUP-BY sector WITHIN 4 seconds SLIDE 4 seconds"},
      // Residual NEXT predicate (typed-lane edge re-filter + range kernel).
      {"RETURN sector, COUNT(*), SUM(S.price) PATTERN Stock S+ "
       "WHERE [company, sector] AND S.price > NEXT(S).price "
       "AND S.volume >= NEXT(S).volume "
       "GROUP-BY sector WITHIN 4 seconds SLIDE 2 seconds"},
      // Sliding pure-lower bounds (suffix-merge strategy + leaf kernels).
      {"RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] "
       "AND S.price > NEXT(S).price "
       "GROUP-BY sector WITHIN 6 seconds SLIDE 2 seconds"},
      // Below the projection threshold: two passes read price, so its
      // filters read the Value rows in place.
      {"RETURN sector, COUNT(*), MAX(S.volume) PATTERN Stock S+ "
       "WHERE [company, sector] AND S.price > 50.0 AND S.price <= 104.0 "
       "GROUP-BY sector WITHIN 4 seconds SLIDE 2 seconds",
       "price", 2},
      // At the threshold: three passes read volume, so it is projected
      // into typed lanes and filtered by the column kernel.
      {"RETURN sector, COUNT(*), SUM(S.price) PATTERN Stock S+ "
       "WHERE [company, sector] AND S.volume > 200 AND S.volume <= 800 "
       "AND S.volume != 500 "
       "GROUP-BY sector WITHIN 4 seconds SLIDE 2 seconds",
       "volume", 3},
  };

  for (const Case& c : cases) {
    auto spec = ParseQuery(c.text, &catalog);
    ASSERT_TRUE(spec.ok()) << c.text << ": " << spec.status().ToString();
    const QuerySpec query = std::move(spec).value();
    if (c.attr != nullptr) {
      ASSERT_EQ(c.uses, ProjectedAttrUses(catalog, query, c.attr)) << c.text;
    }
    for (const Stream& stream : streams) {
      const std::string label =
          std::string(c.text) + (&stream == streams ? "" : " one-company");
      const std::vector<ResultRow> want =
          RunQuery(&catalog, query, stream, 0, /*batch_kernels=*/false);
      ASSERT_FALSE(want.empty()) << label;
      ExpectIdenticalRows(want, RunQuery(&catalog, query, stream, 0, true),
                          label + " row-fed");
      for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
        ExpectIdenticalRows(
            want, RunQuery(&catalog, query, stream, batch_size, true),
            label + " batch" + std::to_string(batch_size));
      }
    }
  }
}

}  // namespace
}  // namespace greta
