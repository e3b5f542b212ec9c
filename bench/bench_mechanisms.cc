// Every engine mechanism beside its twin, as one table of cases. A case
// holds points (one stream and workload each); a point's contenders run the
// same stream, contenders[0] is the reference. Each contender runs kRuns
// times, interleaved across the point's contenders, ingesting 256-row
// batches through RunStream (the `ingest` case's batch-size sweep is the one
// exception: the batch size is its subject). The first line is the run's
// provenance; one JSON row per (case, point, contender) follows with the
// median, min and max events/s, and a table per case prints each median's
// ratio to the reference and whether the two min-max ranges overlap: a win
// whose range overlaps the reference's is noise.
//
// Rows are compared per query against the reference's rows of the same
// point (bit-identical, counts mod 2^64, or RowsEquivalent under the
// query's AggPlan, per case); any difference exits 1. No flags: the sizes
// below are the recorded ones (bench/results/mechanisms.jsonl), and the
// telemetry case writes telemetry_snapshot.json to the working directory.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/harness.h"
#include "query/parser.h"
#include "runtime/observability.h"
#include "runtime/sharded_runtime.h"
#include "sharing/shared_engine.h"
#include "telemetry/exporters.h"
#include "telemetry/http_server.h"
#include "telemetry/telemetry.h"
#include "workload/spec.h"
#include "workload/stock.h"

namespace greta::bench {
namespace {

constexpr size_t kBatch = 256;
constexpr int kRuns = 3;

// How a contender's rows must match the reference's.
enum class Match {
  kIdentical,   // bit for bit: counts, SUM, MIN and MAX
  kModular,     // COUNT(*) modulo 2^64, the modular counter width
  kEquivalent,  // RowsEquivalent: exact counts, float aggregates within
                // tolerance (sharded merges and migrations reorder sums)
};

// A built engine and whatever must live exactly as long as its run (an
// HTTP endpoint and its scraper), destroyed before the engine.
struct Built {
  std::unique_ptr<EngineInterface> engine;
  std::shared_ptr<void> scope;
};

struct Contender {
  std::string name;
  std::function<Built()> make;  // empty: the per-phase oracle (adaptive)
  size_t batch = kBatch;
};

struct Point {
  std::string x;
  const Stream* stream;
  Match match;
  std::vector<Contender> contenders;
  std::vector<Ts> cuts;  // phase boundaries the oracle is timed on
};

// One case's points and what they read; the deques keep pointers stable.
struct Points {
  std::deque<Catalog> catalogs;
  std::deque<Stream> streams;
  std::vector<Point> list;

  Catalog* NewCatalog() { return &catalogs.emplace_back(); }
  const Stream* Add(Stream s) { return &streams.emplace_back(std::move(s)); }
};

using Workload = std::shared_ptr<const std::vector<QuerySpec>>;

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  std::exit(1);
}

template <typename T>
Built Must(StatusOr<std::unique_ptr<T>> built) {
  if (!built.ok()) Die("build", built.status());
  return {std::move(built).value(), nullptr};
}

// The down-trend predicate of the paper's Q1.
constexpr const char* kDown = " AND S.price > NEXT(S).price";

// "RETURN sector, <aggs> PATTERN <pattern> WHERE [company, sector]<where>
// GROUP-BY sector WITHIN <within> SLIDE <slide>" over the stock schema.
QuerySpec Stock(Catalog* catalog, const std::string& aggs, Ts within, Ts slide,
                const std::string& where = kDown,
                const std::string& pattern = "Stock S+") {
  std::string text = "RETURN sector, " + aggs + " PATTERN " + pattern +
                     " WHERE [company, sector]" + where +
                     " GROUP-BY sector WITHIN " + std::to_string(within) +
                     " seconds SLIDE " + std::to_string(slide) + " seconds";
  StatusOr<QuerySpec> spec = ParseQuery(text, catalog);
  if (!spec.ok()) Die(text, spec.status());
  return std::move(spec).value();
}

Workload One(QuerySpec spec) {
  auto w = std::make_shared<std::vector<QuerySpec>>();
  w->push_back(std::move(spec));
  return w;
}

Workload Many(std::vector<QuerySpec> specs) {
  return std::make_shared<const std::vector<QuerySpec>>(std::move(specs));
}

// One GretaEngine over the workload: Create for one query, CreatePartial
// when `partial`, CreateMulti otherwise.
Contender Greta(std::string name, const Catalog* c, Workload w,
                EngineOptions o, size_t batch = kBatch, bool partial = false) {
  return {std::move(name),
          [=] {
            std::vector<const QuerySpec*> specs;
            for (const QuerySpec& s : *w) specs.push_back(&s);
            return Must(w->size() == 1 ? GretaEngine::Create(c, *specs[0], o)
                        : partial      ? GretaEngine::CreatePartial(c, specs, o)
                                       : GretaEngine::CreateMulti(c, specs, o));
          },
          batch};
}

Contender Shared(std::string name, const Catalog* c, Workload w,
                 sharing::SharedEngineOptions o) {
  return {std::move(name), [=] {
            return Must(sharing::SharedWorkloadEngine::Create(c, *w, o));
          }};
}

Contender Sharded(std::string name, const Catalog* c, Workload w,
                  runtime::ShardedOptions o) {
  return {std::move(name), [=] {
            return Must(runtime::ShardedRuntime::Create(c, *w, o));
          }};
}

StockConfig StockStream(int rate, Ts duration) {
  StockConfig config;
  config.rate = rate;
  config.duration = duration;
  return config;
}

// ------------------------------------------------------------------ cases

// One COUNT(*) query stored as u64, Counter and AggCell cells.
void Cells(Points* p) {
  Catalog* c = p->NewCatalog();
  const Stream* s = p->Add(GenerateStockStream(c, StockStream(800, 60)));
  Workload q1 = One(Stock(c, "COUNT(*)", 10, 10));
  EngineOptions modular, exact, generic;
  modular.counter_mode = generic.counter_mode = CounterMode::kModular;
  generic.enable_specialized_kernels = false;
  p->list.push_back({"q1", s, Match::kModular,
                     {Greta("count_modular", c, q1, modular),
                      Greta("count_exact", c, q1, exact),
                      Greta("count_generic", c, q1, generic)}});
}

// The per-event Process loop against ProcessBatch, per propagation
// strategy; q1 also sweeps the batch size and forces the row kernel.
void Ingest(Points* p) {
  Catalog* c = p->NewCatalog();
  const Stream* s = p->Add(GenerateStockStream(c, StockStream(800, 60)));
  // One company, one sector: a single partition makes each row group
  // batch-sized, the dense-scan regime of the column filter kernels.
  StockConfig hot = StockStream(800, 60);
  hot.num_companies = hot.num_sectors = 1;
  const Stream* hot_stream = p->Add(GenerateStockStream(c, hot));
  const std::string none;  // no NEXT predicate
  std::vector<QuerySpec> multi4;
  for (const char* aggs : {"COUNT(*)", "SUM(S.price)",
                           "MIN(S.price), MAX(S.price)", "AVG(S.volume)"}) {
    multi4.push_back(Stock(c, aggs, 10, 10));
  }
  std::vector<QuerySpec> partial;
  partial.push_back(Stock(c, "COUNT(*)", 10, 10, none));
  partial.push_back(Stock(c, "COUNT(*)", 20, 10, none));
  struct Query {
    const char* x;
    Workload w;
    const Stream* stream = nullptr;
    bool partial = false;
  };
  const Query queries[] = {
      {"q1", One(Stock(c, "COUNT(*)", 10, 10))},
      {"sliding", One(Stock(c, "COUNT(*)", 10, 2))},
      {"sum", One(Stock(c, "SUM(S.price)", 10, 10, none))},
      {"minmax", One(Stock(c, "MIN(S.price), MAX(S.price)", 10, 10))},
      {"avg", One(Stock(c, "AVG(S.price)", 10, 10))},
      {"multi4", Many(std::move(multi4))},
      {"partial", Many(std::move(partial)), nullptr, true},
      {"filter",
       One(Stock(c, "COUNT(*)", 10, 10,
                 " AND S.volume > 100 AND S.volume <= 200 AND S.price > 50.0")),
       hot_stream},
      // The tree key range enforces one NEXT comparison; the other stays
      // a residual edge filter.
      {"residual", One(Stock(c, "COUNT(*)", 10, 10,
                             std::string(kDown) +
                                 " AND S.volume >= NEXT(S).volume"))},
  };
  EngineOptions o, rowwise;
  rowwise.enable_batch_kernels = false;
  for (const Query& q : queries) {
    Point point{q.x, q.stream != nullptr ? q.stream : s, Match::kIdentical,
                {Greta("scalar", c, q.w, o, 1, q.partial)}};
    if (point.x == "q1") {
      point.contenders.push_back(Greta("batch64", c, q.w, o, 64));
    }
    point.contenders.push_back(Greta("batch256", c, q.w, o, 256, q.partial));
    if (point.x == "q1") {
      point.contenders.push_back(Greta("batch1024", c, q.w, o, 1024));
      point.contenders.push_back(Greta("batch256_rowwise", c, q.w, rowwise));
    }
    p->list.push_back(std::move(point));
  }
}

// n queries, one pattern, different aggregates: exact sharing.
void Sharing(Points* p) {
  static const char* kAggs[] = {
      "COUNT(*)",     "SUM(S.price)",  "MIN(S.price), MAX(S.price)",
      "COUNT(S)",     "AVG(S.price)",  "SUM(S.volume)",
      "MIN(S.volume)", "AVG(S.volume)"};
  Catalog* c = p->NewCatalog();
  StockConfig config = StockStream(200, 60);
  config.drift = 1.0;
  const Stream* s = p->Add(GenerateStockStream(c, config));
  sharing::SharedEngineOptions shared, independent;
  shared.engine.counter_mode = CounterMode::kModular;
  independent = shared;
  independent.sharing.enable_sharing = false;
  for (int n : {1, 2, 4, 8, 16}) {
    std::vector<QuerySpec> specs;
    for (int i = 0; i < n; ++i) specs.push_back(Stock(c, kAggs[i % 8], 10, 5));
    Workload w = Many(std::move(specs));
    p->list.push_back({std::to_string(n), s, Match::kEquivalent,
                       {Shared("independent", c, w, independent),
                        Shared("shared", c, w, shared)}});
  }
}

// n queries sharing the Kleene core `Stock S+` but differing in suffix
// (bare core or a Halt continuation) and window length: partial sharing.
void Partial(Points* p) {
  static const char* kAggs[] = {"COUNT(*)", "SUM(S.price)", "COUNT(*)",
                                "MIN(S.price)", "COUNT(*)", "AVG(S.price)",
                                "COUNT(*)", "MAX(S.price)"};
  Catalog* c = p->NewCatalog();
  StockConfig config = StockStream(200, 60);
  config.drift = 1.0;
  config.halt_probability = 0.05;
  const Stream* s = p->Add(GenerateStockStream(c, config));
  sharing::SharedEngineOptions partial, independent;
  partial.engine.counter_mode = CounterMode::kModular;
  independent = partial;
  independent.sharing.enable_sharing = false;
  for (int n : {2, 4, 8, 16}) {
    std::vector<QuerySpec> specs;
    for (int i = 0; i < n; ++i) {
      specs.push_back(Stock(c, kAggs[i % 8], 10 + 5 * (i / 2), 5, kDown,
                            i % 2 == 0 ? "Stock S+" : "SEQ(Stock S+, Halt H)"));
    }
    Workload w = Many(std::move(specs));
    auto probe = sharing::SharedWorkloadEngine::Create(c, *w, partial);
    if (!probe.ok() || probe.value()->sharing_plan().clusters.size() != 1 ||
        !probe.value()->sharing_plan().clusters[0].partial) {
      Die("partial", Status::Internal("the workload is not one partial "
                                      "cluster"));
    }
    p->list.push_back({std::to_string(n), s, Match::kEquivalent,
                       {Shared("independent", c, w, independent),
                        Shared("partial", c, w, partial)}});
  }
}

// A window-diverse partial cluster (WITHIN 2/4/8, SLIDE 2) on a stream of
// quiet and 16x burst phases: merging wins the quiet phases (one engine pass
// per event instead of five), dedicated engines win the bursts (the merged
// core scans the union window). The adaptive loop migrates between them;
// the oracle is each phase's faster static plan with no lag or handover.
void Adaptive(Points* p) {
  // Phases outlive the union WITHIN (8 s) so a migration can pay for its
  // observation lag and double processing (Hamlet's burstiness premise).
  // 30 s phases still migrate 4 times; at 60 s this case alone took most
  // of the harness's run time.
  constexpr Ts kPhase = 30;
  Catalog* c = p->NewCatalog();
  RegisterStockTypes(c);
  const struct {
    const char* aggs;
    Ts within;
    const char* pattern;
  } kQueries[] = {
      {"COUNT(*), SUM(S.price)", 2, "Stock S+"},
      {"COUNT(*), MIN(S.price)", 2, "SEQ(Stock S+, Halt H)"},
      {"COUNT(*), AVG(S.price)", 4, "Stock S+"},
      {"COUNT(*), MAX(S.price)", 4, "SEQ(Stock S+, Halt H)"},
      {"COUNT(*), SUM(S.volume)", 8, "Stock S+"},
  };
  std::vector<QuerySpec> specs;
  for (const auto& q : kQueries) {
    specs.push_back(Stock(c, q.aggs, q.within, 2, kDown, q.pattern));
  }
  Workload w = Many(std::move(specs));
  StockConfig config;
  config.seed = 1234;
  config.rate = 60;
  config.num_companies = 4;
  config.num_sectors = 2;
  config.drift = 0.0;
  config.halt_probability = 0.05;  // the Halt suffixes need ends
  config.bursts = {{kPhase, 2 * kPhase, 16.0, 1.0},
                   {3 * kPhase, 4 * kPhase, 16.0, 1.0}};
  config.duration = 5 * kPhase;  // quiet, burst, quiet, burst, quiet
  const Stream* s = p->Add(GenerateStockStream(c, config));
  sharing::SharedEngineOptions never, always, adaptive;
  never.sharing.enable_sharing = false;
  // React after one window step, but keep a cooldown against flapping near
  // the cost crossover.
  adaptive.adaptive.enabled = true;
  adaptive.adaptive.observation_windows = 1;
  adaptive.adaptive.hysteresis = 1.2;
  adaptive.adaptive.min_windows_between_migrations = 6;
  p->list.push_back({"bursty", s, Match::kEquivalent,
                     {Shared("never-share", c, w, never),
                      Shared("always-share", c, w, always),
                      Shared("adaptive", c, w, adaptive),
                      {"oracle", nullptr}},
                     {kPhase, 2 * kPhase, 3 * kPhase, 4 * kPhase}});
}

// The single-threaded workload engine against the sharded runtime.
void Shards(Points* p) {
  Catalog* c = p->NewCatalog();
  StockConfig config = StockStream(400, 60);
  config.num_companies = 32;
  config.num_sectors = 8;
  config.drift = 0.8;
  const Stream* s = p->Add(GenerateStockStream(c, config));
  Workload q1 = One(Stock(c, "COUNT(*)", 10, 5));
  runtime::ShardedOptions o;
  o.workload.engine.counter_mode = CounterMode::kModular;
  Point point{"q1", s, Match::kEquivalent,
              {Shared("single", c, q1, o.workload)}};
  for (size_t n : {1, 2, 4, 8}) {
    o.num_shards = n;
    point.contenders.push_back(Sharded("shards" + std::to_string(n), c, q1, o));
  }
  o.num_shards = 2;
  o.heartbeat_events = 0;  // window-close flushes alone drive emission
  point.contenders.push_back(Sharded("shards2_hb0", c, q1, o));
  p->list.push_back(std::move(point));

  // A static partial cluster and an adaptive one that migrates, each on
  // its own window grid, without heartbeats.
  for (const char* name : {"partial_windows", "bursty_adaptive"}) {
    Catalog* sc = p->NewCatalog();
    const std::string path =
        std::string(GRETA_SOURCE_DIR) + "/examples/workloads/" + name + ".json";
    StatusOr<workload::WorkloadSpec> spec =
        workload::LoadWorkloadSpecFile(path, sc);
    if (!spec.ok()) Die(path, spec.status());
    if (!spec.value().stock.has_value()) {
      Die(path, Status::InvalidArgument("no stock dataset"));
    }
    const Stream* ss = p->Add(GenerateStockStream(sc, *spec.value().stock));
    Workload w = Many(std::move(spec.value().queries));
    runtime::ShardedOptions so = spec.value().runtime;
    so.heartbeat_events = 0;
    Point sp{name, ss, Match::kEquivalent,
             {Shared("single", sc, w, so.workload)}};
    for (size_t n : {1, 2, 4, 8}) {
      so.num_shards = n;
      sp.contenders.push_back(Sharded("shards" + std::to_string(n), sc, w, so));
    }
    p->list.push_back(std::move(sp));
  }
}

#if GRETA_TELEMETRY
// Scrapes /metrics, /healthz and /queries of a live endpoint on the
// runtime for as long as it lives: scrapes ride on snapshots and atomics,
// so the run's throughput should not move.
class Scraper {
 public:
  explicit Scraper(runtime::ShardedRuntime* rt)
      : server_(telemetry::MetricRegistry::Default()) {
    runtime::AttachRuntimeObservability(&server_, rt);
    if (!server_.Start(0)) Die("endpoint", Status::Internal("cannot listen"));
    thread_ = std::thread([this] {
      const char* paths[] = {"/metrics", "/healthz", "/queries"};
      for (size_t i = 0; !stop_.load(std::memory_order_acquire); ++i) {
        int status = 0;
        std::string body;
        telemetry::HttpGet(server_.port(), paths[i % 3], &status, &body);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;
  ~Scraper() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
    server_.Stop();
  }

 private:
  telemetry::HttpServer server_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Resets the process-wide registry and arms it (or not) before the build:
// instruments are cached at construction.
Contender Telemetered(bool enabled, Contender k) {
  k.make = [enabled, make = std::move(k.make)] {
    telemetry::MetricRegistry::Default().Reset();
    telemetry::MetricRegistry::Default().set_enabled(enabled);
    return make();
  };
  return k;
}
#endif

// Armed instruments against a runtime-disabled registry on one hot query,
// then a sharded adaptive workload with and without a scraped endpoint.
void Telemetry(Points* p) {
#if GRETA_TELEMETRY
  Catalog* c = p->NewCatalog();
  const Stream* s = p->Add(GenerateStockStream(c, StockStream(800, 60)));
  Workload q1 = One(Stock(c, "COUNT(*)", 10, 10));
  p->list.push_back({"q1", s, Match::kEquivalent,
                     {Telemetered(false, Greta("off", c, q1, {})),
                      Telemetered(true, Greta("on", c, q1, {}))}});

  Catalog* bc = p->NewCatalog();
  RegisterStockTypes(bc);
  StockConfig bursty;
  bursty.seed = 97;
  bursty.num_companies = 5;
  bursty.num_sectors = 2;
  bursty.rate = 8;
  bursty.duration = 60;
  bursty.drift = 0.0;
  bursty.bursts.push_back({20, 40, 40.0, 1.0});
  const Stream* bs = p->Add(GenerateStockStream(bc, bursty));
  std::vector<QuerySpec> specs;
  specs.push_back(Stock(bc, "COUNT(*), SUM(S.price)", 2, 2));
  specs.push_back(Stock(bc, "COUNT(*), MIN(S.price)", 4, 2));
  specs.push_back(Stock(bc, "COUNT(*), AVG(S.price)", 8, 2));
  Workload w = Many(std::move(specs));
  runtime::ShardedOptions o;
  o.num_shards = 2;
  o.batch_size = 32;
  o.heartbeat_events = 64;
  o.workload.adaptive.enabled = true;
  o.workload.adaptive.observation_windows = 3;
  o.workload.adaptive.min_windows_between_migrations = 4;
  o.workload.adaptive.hysteresis = 1.2;
  Contender serving = Telemetered(true, Sharded("serving", bc, w, o));
  serving.make = [make = std::move(serving.make)] {
    Built b = make();
    b.scope = std::make_shared<Scraper>(
        static_cast<runtime::ShardedRuntime*>(b.engine.get()));
    return b;
  };
  p->list.push_back({"sharded_adaptive", bs, Match::kEquivalent,
                     {Telemetered(true, Sharded("sharded_adaptive", bc, w, o)),
                      std::move(serving)}});
#else
  (void)p;
  std::printf("telemetry is compiled out (GRETA_TELEMETRY=0): no rows\n");
#endif
}

// Writes the registry, which holds the telemetry case's last run (the
// scraped sharded run), with its lifecycle trace.
bool WriteSnapshot() {
#if GRETA_TELEMETRY
  std::ofstream out("telemetry_snapshot.json");
  out << telemetry::ExportJson(telemetry::MetricRegistry::Default(),
                               /*include_trace=*/true)
      << '\n';
  out.close();
  return !out.fail();
#else
  return true;
#endif
}

struct Case {
  const char* name;
  const char* what;
  void (*fill)(Points* p);
};

const Case kCases[] = {
    {"cells", "One COUNT(*) query stored as u64 (modular), Counter (exact) and "
     "AggCell (specialized kernels off) cells; rows equal mod 2^64", Cells},
    {"ingest", "Per-event Process against 256-row ProcessBatch per propagation "
     "strategy (q1 also sweeps 64/1024 and forces the row kernel); rows "
     "bit-identical", Ingest},
    {"sharing", "n queries, one pattern, different aggregates: independent "
     "engines against one shared graph", Sharing},
    {"partial", "n queries sharing the Kleene core with differing suffix and "
     "window: independent engines against snapshot propagation", Partial},
    {"adaptive", "Bursty stream, window-diverse partial cluster: static plans, "
     "the re-planning loop, and the per-phase oracle", Adaptive},
    {"shards", "Single-threaded workload engine against the sharded runtime "
     "(hb0: no heartbeats)", Shards},
    {"telemetry", "Runtime-disabled against armed instruments; a sharded "
     "adaptive run with and without a scraped endpoint", Telemetry},
};

// ------------------------------------------------------------------- runs

bool RowsMatch(const QueryRows& ref, const QueryRows& got,
               const std::vector<AggPlan>& plans, Match match,
               std::string* diff) {
  if (ref.size() != got.size()) {
    *diff = "query count differs";
    return false;
  }
  for (size_t q = 0; q < ref.size(); ++q) {
    const std::string where = "query " + std::to_string(q) + ": ";
    if (match == Match::kEquivalent) {
      if (!RowsEquivalent(ref[q], got[q], plans[q], diff)) {
        *diff = where + *diff;
        return false;
      }
      continue;
    }
    if (ref[q].size() != got[q].size()) {
      *diff = where + "row count " + std::to_string(ref[q].size()) + " vs " +
              std::to_string(got[q].size());
      return false;
    }
    for (size_t i = 0; i < ref[q].size(); ++i) {
      const ResultRow& a = ref[q][i];
      const ResultRow& b = got[q][i];
      const bool same =
          a.wid == b.wid && a.group == b.group &&
          (match == Match::kModular
               ? a.aggs.any == b.aggs.any &&
                     a.aggs.count.Low64() == b.aggs.count.Low64()
               : a.aggs.count.ToDecimal() == b.aggs.count.ToDecimal() &&
                     a.aggs.sum == b.aggs.sum && a.aggs.min == b.aggs.min &&
                     a.aggs.max == b.aggs.max);
      if (!same) {
        *diff = where + "row " + std::to_string(i) + " differs";
        return false;
      }
    }
  }
  return true;
}

// One contender's runs and the last run's structural counters.
struct Tally {
  std::vector<double> eps;
  RunResult last;
  long migrations = -1;  // -1: not a workload engine
  bool sharded = false;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

std::string Fixed(const char* format, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

bool RunPoint(const Case& c, const Point& p, Table* table) {
  const std::vector<Contender>& ks = p.contenders;
  std::vector<Tally> tallies(ks.size());
  QueryRows reference;
  std::vector<AggPlan> plans;
  bool ok = true;
  for (int run = 0; run < kRuns; ++run) {
    for (size_t i = 0; i < ks.size(); ++i) {
      Tally& t = tallies[i];
      if (!ks[i].make) {  // oracle: the faster static plan per phase
        double seconds = 0.0;
        for (size_t seg = 0; seg < p.cuts.size() + 1; ++seg) {
          seconds += std::min(tallies[0].last.segment_seconds[seg],
                              tallies[1].last.segment_seconds[seg]);
        }
        t.eps.push_back(static_cast<double>(p.stream->size()) / seconds);
        continue;
      }
      Built b = ks[i].make();
      QueryRows rows;
      t.last = RunStream(b.engine.get(), *p.stream, ks[i].batch, nullptr,
                         &rows, p.cuts);
      t.eps.push_back(t.last.throughput_eps);
      if (auto* s = dynamic_cast<sharing::SharedWorkloadEngine*>(
              b.engine.get())) {
        t.migrations = static_cast<long>(s->total_migrations());
      } else if (auto* r =
                     dynamic_cast<runtime::ShardedRuntime*>(b.engine.get())) {
        t.migrations = static_cast<long>(r->TotalMigrations());
        t.sharded = true;
      }
      std::string diff;
      if (!t.last.status.ok()) {
        diff = t.last.status.ToString();
      } else if (i == 0 && run == 0) {
        reference = std::move(rows);
        for (size_t q = 0; q < reference.size(); ++q) {
          plans.push_back(QueryAggPlan(*b.engine, q));
        }
      } else {
        RowsMatch(reference, rows, plans, p.match, &diff);
      }
      if (!diff.empty()) {
        std::fprintf(stderr, "%s %s %s: %s\n", c.name, p.x.c_str(),
                     ks[i].name.c_str(), diff.c_str());
        ok = false;
      }
    }
  }
  const double ref_median = Median(tallies[0].eps);
  const auto [ref_min, ref_max] =
      std::minmax_element(tallies[0].eps.begin(), tallies[0].eps.end());
  for (size_t i = 0; i < ks.size(); ++i) {
    const Tally& t = tallies[i];
    const auto [lo, hi] = std::minmax_element(t.eps.begin(), t.eps.end());
    const double median = Median(t.eps);
    const EngineStats& st = t.last.stats;
    const size_t batch_rows = st.batch_rows_fast + st.batch_rows_fallback;
    std::string extra;
    if (ks[i].make) {
      extra = std::string(t.sharded ? ",\"shard_peak_bytes\":"
                                    : ",\"peak_bytes\":") +
              std::to_string(t.last.peak_memory_bytes) +
              ",\"edges\":" + std::to_string(st.edges_traversed) +
              ",\"rows\":" + std::to_string(t.last.rows_emitted);
    }
    if (batch_rows > 0) {
      extra += ",\"batch_fallback_frac\":" +
               Fixed("%.4f", static_cast<double>(st.batch_rows_fallback) /
                                 static_cast<double>(batch_rows));
    }
    if (t.migrations >= 0) {
      extra += ",\"migrations\":" + std::to_string(t.migrations);
    }
    std::printf(
        "{\"case\":\"%s\",\"x\":\"%s\",\"contender\":\"%s\",\"batch\":%zu,"
        "\"runs\":%d,\"events\":%zu,\"events_per_sec\":%.1f,"
        "\"eps_min\":%.1f,\"eps_max\":%.1f%s}\n",
        c.name, p.x.c_str(), ks[i].name.c_str(), ks[i].batch, kRuns,
        p.stream->size(), median, *lo, *hi, extra.c_str());
    table->AddRow(
        {p.x, ks[i].name, FormatCount(median) + "/s",
         FormatCount(*lo) + "-" + FormatCount(*hi),
         i == 0 ? "ref" : Fixed("%.2fx", median / ref_median),
         i == 0                            ? "-"
         : *lo <= *ref_max && *ref_min <= *hi ? "yes"
                                              : "no",
         ks[i].make ? FormatBytes(static_cast<double>(t.last.peak_memory_bytes))
                    : "-",
         ks[i].make ? std::to_string(t.last.rows_emitted) : "-",
         t.migrations >= 0 ? std::to_string(t.migrations) : "-"});
  }
  return ok;
}

int Run() {
  std::printf("{\"provenance\":%s,\"batch\":%zu,\"runs\":%d}\n",
              ProvenanceJson().c_str(), kBatch, kRuns);
  bool ok = true;
  for (const Case& c : kCases) {
    std::printf("\n=== %s ===\n%s\n", c.name, c.what);
    Points points;
    c.fill(&points);
    if (points.list.empty()) continue;
    Table table({"x", "contender", "events/s", "min-max", "vs ref",
                 "overlap", "peak memory", "rows", "migrations"});
    for (const Point& p : points.list) ok = RunPoint(c, p, &table) && ok;
    std::printf("\n");
    table.Print();
    std::fflush(stdout);
  }
  if (!WriteSnapshot()) {
    std::fprintf(stderr, "cannot write telemetry_snapshot.json\n");
    ok = false;
  }
  if (!ok) std::fprintf(stderr, "bench_mechanisms: row check FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace greta::bench

int main() { return greta::bench::Run(); }
