// End-to-end GRETA benchmark driver (see bench/e2e/README.md).
//
// Loads one workload spec through the public workload::ParseWorkloadSpec,
// pre-builds one deterministic stock segment from --seed, and replays it —
// time and seq shifted by one segment span per loop — from this single
// driver thread into runtime::ShardedRuntime::ProcessBatch in batches of
// 256 rows. One run:
//   1. gates on correctness: two segments through the sharded runtime vs a
//      single-threaded SharedWorkloadEngine fed row by row, and a small
//      low-rate stream vs the SASE oracle for every query it builds;
//   2. then, in each of several rounds, times set-up (spec + query parse,
//      runtime creation), measures closed-loop capacity, and measures
//      open-loop emit latency at the fixed `light` and `heavy` rates.
//      Pooling the rounds spreads every metric over the whole run, so a
//      few seconds of host contention do not land on one metric only.
// --trace=1 runs one round with the telemetry registry armed, wraps every
// driver call into a layer in a span, adds a single-threaded pass of the
// same job, reports the per-layer metrics instead of the end-to-end ones,
// and writes a Chrome trace. The last stdout line is the result object; the
// line before it, prefixed "record: ", carries provenance and detail.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "baselines/sase.h"
#include "bench_util/harness.h"
#include "common/simd.h"
#include "runtime/sharded_runtime.h"
#include "sharing/shared_engine.h"
#include "sharing/sharing_planner.h"
#include "storage/window.h"
#include "telemetry/telemetry.h"
#include "workload/spec.h"
#include "workload/stock.h"

namespace greta::e2e {
namespace {

using telemetry::SteadyNowNs;

constexpr size_t kBatchRows = 256;
// Untraced runs interleave set-up, closed and open loop over this many
// rounds; the builds are spread over them too.
constexpr size_t kRounds = 5;
constexpr size_t kSetupBuilds = 25;
// Shares of --seconds for the closed loop and for each open-loop rate. The
// open loops get the most: their latencies carry bounds, and each phase
// must close over 1000 windows.
constexpr double kClosedShare = 0.2;
constexpr double kOpenShare = 0.4;
// The SASE oracle enumerates every trend, so its stream is small and
// generated at a rate low enough to span several windows of the longest
// query; a query whose trends exceed the work budget is skipped.
constexpr size_t kOracleEvents = 2000;
constexpr size_t kOracleBudget = 20'000'000;

// ------------------------------------------------------------------ tracing
//
// Spans around the driver's calls into each layer, kept in memory and
// written as a Chrome trace at exit. Self time (span minus the part its
// children cover) is accumulated per (phase, layer) for every span, also
// for spans past the keep cap.

enum Layer : uint8_t {
  kDriver,
  kGen,
  kQuery,
  kSharing,
  kRuntime,
  kCore,
  kBaselines,
  kNumLayers
};
constexpr const char* kLayerNames[kNumLayers] = {
    "driver", "gen", "query", "sharing", "runtime", "core", "baselines"};

enum Phase : uint8_t {
  kRun,
  kSetup,
  kGate,
  kClosed,
  kSingleThread,
  kClosedTraced,
  kOpenLight,
  kOpenHeavy,
  kNumPhases
};
constexpr const char* kPhaseNames[kNumPhases] = {
    "run",           "setup",         "gate",       "closed",
    "single_thread", "closed_traced", "open_light", "open_heavy"};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool active() const { return enabled_ && !paused_; }
  void set_paused(bool paused) { paused_ = paused; }
  void set_phase(Phase phase) { phase_ = phase; }

  void Begin(Layer layer, const char* name) {
    Frame f;
    f.layer = layer;
    f.phase = phase_;
    f.start = SteadyNowNs();
    if (kept_[phase_] < kMaxKeptSpansPerPhase) {
      ++kept_[phase_];
      f.kept = static_cast<int32_t>(spans_.size());
      spans_.push_back({name, layer, phase_,
                        stack_.empty() ? -1 : stack_.back().kept, f.start,
                        f.start});
    } else {
      ++dropped_;
    }
    stack_.push_back(f);
  }

  void End() {
    const uint64_t end = SteadyNowNs();
    Frame f = stack_.back();
    stack_.pop_back();
    const uint64_t dur = end - f.start;
    self_ns_[f.phase][f.layer] += dur - f.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.kept >= 0) spans_[f.kept].end = end;
  }

  uint64_t self_ns(Phase phase, Layer layer) const {
    return self_ns_[phase][layer];
  }
  uint64_t layer_self_ns(Layer layer) const {
    uint64_t total = 0;
    for (size_t p = 0; p < kNumPhases; ++p) total += self_ns_[p][layer];
    return total;
  }

  // Chrome trace-event JSON ("X" complete events, microseconds).
  bool WriteChromeTrace(const std::string& path,
                        const std::string& provenance_json) const {
    std::ofstream out(path);
    if (!out) return false;
    const uint64_t t0 = spans_.empty() ? 0 : spans_[0].start;
    out << "{\"displayTimeUnit\":\"ns\",\"otherData\":" << provenance_json
        << ",\"dropped_spans\":" << dropped_ << ",\"traceEvents\":[";
    char buf[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                    "\"args\":{\"id\":%zu,\"parent\":%d,\"phase\":\"%s\"}}",
                    i == 0 ? "" : ",\n", s.name, kLayerNames[s.layer],
                    static_cast<double>(s.start - t0) / 1e3,
                    static_cast<double>(s.end - s.start) / 1e3, i, s.parent,
                    kPhaseNames[s.phase]);
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  // Keeps every phase visible in the trace file without letting the
  // busy-polling phases blow it up.
  static constexpr size_t kMaxKeptSpansPerPhase = 8000;

  struct SpanRec {
    const char* name;
    Layer layer;
    Phase phase;
    int32_t parent;
    uint64_t start;
    uint64_t end;
  };
  struct Frame {
    Layer layer = kDriver;
    Phase phase = kRun;
    int32_t kept = -1;
    uint64_t start = 0;
    uint64_t child_ns = 0;
  };

  bool enabled_;
  bool paused_ = false;
  Phase phase_ = kRun;
  std::vector<SpanRec> spans_;
  std::vector<Frame> stack_;
  size_t kept_[kNumPhases] = {};
  size_t dropped_ = 0;
  uint64_t self_ns_[kNumPhases][kNumLayers] = {};
};

// RAII span; a no-op while the tracer is inactive.
class Span {
 public:
  Span(Tracer* tracer, Layer layer, const char* name)
      : tracer_(tracer->active() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->Begin(layer, name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// ----------------------------------------------------------------- helpers

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile (p in [0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

// Quantile of a registry log2 histogram, interpolated linearly inside the
// bucket that holds it (the usual estimate over cumulative buckets).
double HistQuantile(const telemetry::Histogram::Snapshot& s, double q) {
  if (s.count == 0) return 0.0;
  const double target = q * static_cast<double>(s.count);
  double seen = 0.0;
  for (size_t i = 0; i < telemetry::Histogram::kBuckets; ++i) {
    const double in_bucket = static_cast<double>(s.buckets[i]);
    if (in_bucket > 0.0 && seen + in_bucket >= target) {
      const double lo =
          i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (i - 1));
      const double hi =
          static_cast<double>(telemetry::Histogram::BucketUpperBound(i));
      return lo + (hi - lo) * ((target - seen) / in_bucket);
    }
    seen += in_bucket;
  }
  return static_cast<double>(telemetry::Histogram::BucketUpperBound(
      telemetry::Histogram::kBuckets - 1));
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i > 0 ? ", " : "") + Num(v[i]);
  return out + "]";
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t b = s.find_first_not_of(' ');
  const size_t e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
#else
  return "unknown";
#endif
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// One named metric of the result object.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// ------------------------------------------------------------------ workload

struct Workload {
  std::string spec_text;
  Catalog catalog;
  workload::WorkloadSpec spec;
  std::vector<WindowSpec> windows;  // per query, its own window grid
  Stream segment;
  Ts span = 0;  // event-time length of one segment (replay shift)
};

// Endless replay of the segment: loop k shifts time by k * span and seq by
// k * segment size, so a run of any length keeps the segment's memory.
class Replayer {
 public:
  explicit Replayer(const Workload& w) : w_(w) {}

  void Next(size_t n, EventBatch* out) {
    const std::vector<Event>& events = w_.segment.events();
    out->clear();
    for (size_t i = 0; i < n; ++i) {
      const Event& e = events[pos_];
      out->Append(EventRef(e.time + time_shift_, e.seq + seq_shift_, e.type,
                           e.attrs.data(), e.attrs.size()));
      if (++pos_ == events.size()) {
        pos_ = 0;
        time_shift_ += w_.span;
        seq_shift_ += static_cast<SeqNo>(events.size());
      }
    }
  }

 private:
  const Workload& w_;
  size_t pos_ = 0;
  Ts time_shift_ = 0;
  SeqNo seq_shift_ = 0;
};

// Operations attempted and failed: non-OK ProcessBatch/Flush calls and
// result rows that differ from the reference.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Call(const Status& s) {
    ++attempted;
    if (!s.ok()) {
      ++failed;
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    }
  }
};

// Instruments are cached when engines are built: call before building.
void ArmTelemetry(bool armed) {
  telemetry::TelemetryOptions t;
  t.enabled = armed;
  telemetry::MetricRegistry::Default().Configure(t);
}

std::unique_ptr<runtime::ShardedRuntime> MakeRuntime(Workload& w,
                                                     Tracer* tracer) {
  Span span(tracer, kRuntime, "ShardedRuntime::Create");
  auto rt = runtime::ShardedRuntime::Create(&w.catalog, w.spec.queries,
                                            w.spec.runtime);
  GRETA_CHECK(rt.ok());
  return std::move(rt).value();
}

void DestroyRuntime(std::unique_ptr<runtime::ShardedRuntime>* rt,
                    Tracer* tracer) {
  Span span(tracer, kRuntime, "~ShardedRuntime");
  rt->reset();
}

// -------------------------------------------------------------------- setup

struct SetupResult {
  std::vector<double> setup_s;  // parse + ShardedRuntime::Create
  std::vector<double> parse_ms;
  std::vector<double> plan_ms;
  size_t clusters = 0;
  size_t merged_queries = 0;
  double shard_skew = 0.0;
};

// Builds the runtime from the spec text `builds` times.
void MeasureSetup(Workload& w, size_t builds, Tracer* tracer,
                  SetupResult* r) {
  for (size_t i = 0; i < builds; ++i) {
    Catalog catalog;
    const uint64_t t0 = SteadyNowNs();
    StatusOr<workload::WorkloadSpec> spec = [&] {
      Span span(tracer, kQuery, "ParseWorkloadSpec");
      return workload::ParseWorkloadSpec(w.spec_text, &catalog);
    }();
    GRETA_CHECK(spec.ok());
    const uint64_t t1 = SteadyNowNs();
    std::unique_ptr<runtime::ShardedRuntime> rt;
    {
      Span span(tracer, kRuntime, "ShardedRuntime::Create");
      auto created = runtime::ShardedRuntime::Create(
          &catalog, spec.value().queries, spec.value().runtime);
      GRETA_CHECK(created.ok());
      rt = std::move(created).value();
    }
    const uint64_t t2 = SteadyNowNs();
    r->setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    r->parse_ms.push_back(static_cast<double>(t1 - t0) / 1e6);

    // The sharing plan alone (it also runs inside Create, once per shard).
    const uint64_t t3 = SteadyNowNs();
    StatusOr<sharing::SharingPlan> plan = [&] {
      Span span(tracer, kSharing, "PlanSharing");
      return sharing::PlanSharing(spec.value().queries, catalog,
                                  spec.value().options.sharing);
    }();
    GRETA_CHECK(plan.ok());
    r->plan_ms.push_back(static_cast<double>(SteadyNowNs() - t3) / 1e6);
    if (r->setup_s.size() == 1) {
      for (const sharing::QueryCluster& c : plan.value().clusters) {
        ++r->clusters;
        if (c.shared) r->merged_queries += c.query_ids.size();
      }
      // Rows per shard over one segment, broadcasts counted on every shard.
      Span span(tracer, kRuntime, "ShardRouter::ShardOf");
      std::vector<double> rows(rt->num_shards(), 0.0);
      for (const Event& e : w.segment.events()) {
        const int s = rt->router().ShardOf(EventRef(e));
        if (s == runtime::ShardRouter::kBroadcast) {
          for (double& n : rows) n += 1.0;
        } else if (s >= 0) {
          rows[static_cast<size_t>(s)] += 1.0;
        }
      }
      double sum = 0.0;
      double max = 0.0;
      for (double n : rows) {
        sum += n;
        max = std::max(max, n);
      }
      r->shard_skew =
          sum > 0.0 ? max / (sum / static_cast<double>(rows.size())) : 0.0;
    }
    DestroyRuntime(&rt, tracer);
  }
}

// --------------------------------------------------------------------- gate

// Compares one query's rows; returns the number of rows that differ (row
// count differences count in full) and adds the compared rows to `tally`.
size_t CompareRows(const std::vector<ResultRow>& got,
                   const std::vector<ResultRow>& want, const AggPlan& plan,
                   const std::string& what, Tally* tally) {
  size_t bad =
      std::max(got.size(), want.size()) - std::min(got.size(), want.size());
  std::string first_diff;
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    std::string diff;
    if (!RowsEquivalent({got[i]}, {want[i]}, plan, &diff)) {
      if (first_diff.empty()) {
        first_diff = "row " + std::to_string(i) + ": " + diff;
      }
      ++bad;
    }
  }
  tally->attempted += std::max(got.size(), want.size());
  tally->failed += bad;
  if (bad > 0) {
    std::fprintf(stderr, "mismatch %s: %zu of %zu/%zu rows differ %s\n",
                 what.c_str(), bad, got.size(), want.size(),
                 first_diff.c_str());
  }
  return bad;
}

struct GateResult {
  size_t events = 0;
  size_t rows = 0;
  size_t mismatches = 0;
  size_t oracle_queries = 0;
  size_t oracle_skipped = 0;
  size_t oracle_rows = 0;
};

void Drain(runtime::ShardedRuntime* rt,
           std::vector<std::vector<ResultRow>>* rows, Tracer* tracer) {
  for (size_t q = 0; q < rt->num_queries(); ++q) {
    std::vector<ResultRow> got;
    {
      Span span(tracer, kRuntime, "TakeResults");
      got = rt->TakeResults(q);
    }
    (*rows)[q].insert((*rows)[q].end(), std::make_move_iterator(got.begin()),
                      std::make_move_iterator(got.end()));
  }
}

GateResult RunGate(Workload& w, size_t max_events, uint64_t seed,
                   Tracer* tracer, Tally* tally) {
  GateResult g;
  const size_t nq = w.spec.queries.size();

  // (a) Two segments: sharded runtime (batch ingest) vs a single-threaded
  // SharedWorkloadEngine fed row by row.
  std::unique_ptr<runtime::ShardedRuntime> rt = MakeRuntime(w, tracer);
  std::unique_ptr<sharing::SharedWorkloadEngine> ref;
  {
    Span span(tracer, kSharing, "SharedWorkloadEngine::Create");
    auto created = sharing::SharedWorkloadEngine::Create(
        &w.catalog, w.spec.queries, w.spec.options);
    GRETA_CHECK(created.ok());
    ref = std::move(created).value();
  }
  std::vector<std::vector<ResultRow>> got(nq);
  std::vector<std::vector<ResultRow>> want(nq);
  Replayer replay(w);
  EventBatch batch;
  g.events = std::min(2 * w.segment.size(), max_events);
  for (size_t done = 0; done < g.events; done += batch.size()) {
    {
      Span span(tracer, kGen, "Replayer::Next");
      replay.Next(std::min(kBatchRows, g.events - done), &batch);
    }
    {
      Span span(tracer, kRuntime, "ProcessBatch");
      tally->Call(rt->ProcessBatch(batch));
    }
    {
      Span span(tracer, kCore, "SharedWorkloadEngine::Process");
      for (size_t i = 0; i < batch.size(); ++i) {
        Status s = ref->Process(batch.ToEvent(i));
        if (!s.ok()) {
          tally->Call(s);
          break;
        }
      }
    }
    Drain(rt.get(), &got, tracer);
  }
  {
    Span span(tracer, kRuntime, "Flush");
    tally->Call(rt->Flush());
  }
  Drain(rt.get(), &got, tracer);
  {
    Span span(tracer, kCore, "SharedWorkloadEngine::Flush");
    tally->Call(ref->Flush());
    for (size_t q = 0; q < nq; ++q) want[q] = ref->TakeResults(q);
  }
  for (size_t q = 0; q < nq; ++q) {
    g.rows += want[q].size();
    g.mismatches += CompareRows(
        got[q], want[q], rt->agg_plan_for(q),
        "runtime vs reference, query " + std::to_string(q), tally);
  }
  DestroyRuntime(&rt, tracer);

  // (b) SASE oracle on a small stream spanning about twelve windows of the
  // longest query, against the sharded runtime on the same stream. Bursts
  // are left out: their trend counts are beyond enumeration, and (a) covers
  // them.
  Ts max_within = 1;
  for (const WindowSpec& win : w.windows) {
    if (!win.unbounded()) max_within = std::max(max_within, win.within);
  }
  StockConfig oc = *w.spec.stock;
  oc.seed = seed;
  oc.bursts.clear();
  oc.duration = 12 * max_within;
  oc.rate = static_cast<int>(std::max<int64_t>(
      1, static_cast<int64_t>(kOracleEvents) / oc.duration));
  Stream small;
  {
    Span span(tracer, kGen, "GenerateStockStream");
    Stream full = GenerateStockStream(&w.catalog, oc);
    for (size_t i = 0; i < std::min(full.size(), kOracleEvents); ++i) {
      small.Append(full[i]);
    }
  }
  rt = MakeRuntime(w, tracer);
  std::vector<std::vector<ResultRow>> rt_rows(nq);
  for (size_t begin = 0; begin < small.size(); begin += kBatchRows) {
    batch.clear();
    for (size_t i = begin; i < std::min(small.size(), begin + kBatchRows);
         ++i) {
      batch.Append(EventRef(small[i]));
    }
    Span span(tracer, kRuntime, "ProcessBatch");
    tally->Call(rt->ProcessBatch(batch));
  }
  {
    Span span(tracer, kRuntime, "Flush");
    tally->Call(rt->Flush());
  }
  Drain(rt.get(), &rt_rows, tracer);
  for (size_t q = 0; q < nq; ++q) {
    Span span(tracer, kBaselines, "SaseEngine");
    TwoStepOptions options;
    options.counter_mode = w.spec.options.engine.counter_mode;
    options.semantics = w.spec.options.engine.semantics;
    options.max_windows_per_event =
        w.spec.options.engine.max_windows_per_event;
    options.work_budget = kOracleBudget;
    auto sase =
        SaseEngine::Create(&w.catalog, w.spec.queries[q].Clone(), options);
    if (!sase.ok()) {
      std::printf("  SASE oracle does not build query %zu: %s\n", q,
                  sase.status().ToString().c_str());
      ++g.oracle_skipped;
      continue;
    }
    for (const Event& e : small.events()) {
      GRETA_CHECK(sase.value()->Process(e).ok());
    }
    GRETA_CHECK(sase.value()->Flush().ok());
    if (sase.value()->stats().dnf) {
      std::printf("  SASE oracle ran out of budget on query %zu\n", q);
      ++g.oracle_skipped;
      continue;
    }
    std::vector<ResultRow> oracle = sase.value()->TakeResults();
    ++g.oracle_queries;
    g.oracle_rows += oracle.size();
    g.mismatches +=
        CompareRows(rt_rows[q], oracle, rt->agg_plan_for(q),
                    "runtime vs SASE, query " + std::to_string(q), tally);
  }
  DestroyRuntime(&rt, tracer);
  return g;
}

// -------------------------------------------------------------- closed loop

struct ClosedResult {
  std::vector<double> eps;
  std::vector<double> peak_mb;
  std::vector<double> shard_peak_bytes;
  std::vector<double> flush_ms;
  std::vector<double> ingest_ns;  // per ProcessBatch call (timings only)
  std::vector<double> take_ns;    // per TakeResults call (timings only)
  double busy_s = 0.0;            // inside ProcessBatch (timings only)
  double wall_s = 0.0;
  size_t producer_stalls = 0;
  size_t queue_depth_hwm = 0;
  double pending_windows_max = 0.0;  // merger hold-back (registry armed)
  size_t migrations = 0;
  size_t events = 0;
};

// One client, next batch only after ProcessBatch returns; repetitions of a
// fixed event count on a fresh runtime until `budget_s` is spent (at least
// one).
void RunClosedLoop(Workload& w, size_t events, double budget_s, bool timings,
                   Tracer* tracer, Tally* tally, ClosedResult* r) {
  const size_t nq = w.spec.queries.size();
  const uint64_t phase_start = SteadyNowNs();
  // Set by the runtime at every TakeResults while the registry is armed.
  const telemetry::Gauge* pending_windows =
      telemetry::MetricRegistry::Default().GaugeIf(
          "greta_runtime_merger_pending_windows");
  EventBatch batch;
  batch.Reserve(kBatchRows, 8);
  do {
    std::unique_ptr<runtime::ShardedRuntime> rt = MakeRuntime(w, tracer);
    Replayer replay(w);
    size_t rows = 0;
    auto take_all = [&] {
      for (size_t q = 0; q < nq; ++q) {
        const uint64_t t0 = timings ? SteadyNowNs() : 0;
        std::vector<ResultRow> got;
        {
          Span span(tracer, kRuntime, "TakeResults");
          got = rt->TakeResults(q);
        }
        if (timings) {
          r->take_ns.push_back(static_cast<double>(SteadyNowNs() - t0));
        }
        if (pending_windows != nullptr) {
          r->pending_windows_max =
              std::max(r->pending_windows_max, pending_windows->Value());
        }
        rows += got.size();
      }
    };
    const uint64_t start = SteadyNowNs();
    for (size_t done = 0; done < events; done += batch.size()) {
      {
        Span span(tracer, kGen, "Replayer::Next");
        replay.Next(std::min(kBatchRows, events - done), &batch);
      }
      const uint64_t t0 = timings ? SteadyNowNs() : 0;
      Status s;
      {
        Span span(tracer, kRuntime, "ProcessBatch");
        s = rt->ProcessBatch(batch);
      }
      if (timings) {
        const uint64_t d = SteadyNowNs() - t0;
        r->ingest_ns.push_back(static_cast<double>(d));
        r->busy_s += static_cast<double>(d) / 1e9;
      }
      tally->Call(s);
      if (!s.ok()) break;
      take_all();
    }
    const uint64_t f0 = SteadyNowNs();
    {
      Span span(tracer, kRuntime, "Flush");
      tally->Call(rt->Flush());
    }
    const uint64_t f1 = SteadyNowNs();
    take_all();
    const double secs = static_cast<double>(SteadyNowNs() - start) / 1e9;
    r->eps.push_back(static_cast<double>(events) / secs);
    r->wall_s += secs;
    r->flush_ms.push_back(static_cast<double>(f1 - f0) / 1e6);
    r->peak_mb.push_back(static_cast<double>(rt->memory().peak_bytes()) /
                         1e6);
    size_t shard_peak = 0;
    for (size_t s = 0; s < rt->num_shards(); ++s) {
      shard_peak = std::max(shard_peak, rt->shard_memory(s).peak_bytes());
      const auto qs = rt->shard_queue_stats(s);
      r->producer_stalls += qs.producer_stalls;
      r->queue_depth_hwm =
          std::max(r->queue_depth_hwm, qs.depth_high_watermark);
    }
    r->shard_peak_bytes.push_back(static_cast<double>(shard_peak));
    r->migrations = rt->TotalMigrations();
    r->events += events;
    if (rows == 0) {
      std::fprintf(stderr, "error: closed-loop repetition emitted no rows\n");
      ++tally->failed;
    }
    DestroyRuntime(&rt, tracer);
  } while (static_cast<double>(SteadyNowNs() - phase_start) / 1e9 < budget_s);
}

// ------------------------------------------------------- single-threaded run

struct SingleResult {
  double eps = 0.0;
  std::vector<double> batch_ns;
};

// The same job on one engine on the driver thread: the engine each shard
// runs (GretaEngine for one query, SharedWorkloadEngine otherwise).
SingleResult RunSingleThread(Workload& w, size_t events, Tracer* tracer,
                             Tally* tally) {
  SingleResult r;
  std::unique_ptr<EngineInterface> engine;
  {
    Span span(tracer, kCore, "Create");
    if (w.spec.queries.size() == 1) {
      auto e = GretaEngine::Create(&w.catalog, w.spec.queries[0],
                                   w.spec.options.engine);
      GRETA_CHECK(e.ok());
      engine = std::move(e).value();
    } else {
      auto e = sharing::SharedWorkloadEngine::Create(
          &w.catalog, w.spec.queries, w.spec.options);
      GRETA_CHECK(e.ok());
      engine = std::move(e).value();
    }
  }
  Replayer replay(w);
  EventBatch batch;
  const uint64_t start = SteadyNowNs();
  for (size_t done = 0; done < events; done += batch.size()) {
    {
      Span span(tracer, kGen, "Replayer::Next");
      replay.Next(std::min(kBatchRows, events - done), &batch);
    }
    const uint64_t t0 = SteadyNowNs();
    {
      Span span(tracer, kCore, "ProcessBatch");
      tally->Call(engine->ProcessBatch(batch));
    }
    r.batch_ns.push_back(static_cast<double>(SteadyNowNs() - t0));
    Span span(tracer, kCore, "TakeResults");
    engine->TakeResults();
  }
  {
    Span span(tracer, kCore, "Flush");
    tally->Call(engine->Flush());
    engine->TakeResults();
  }
  r.eps = static_cast<double>(events) /
          (static_cast<double>(SteadyNowNs() - start) / 1e9);
  Span span(tracer, kCore, "~Engine");
  engine.reset();
  return r;
}

// ---------------------------------------------------------------- open loop

struct OpenResult {
  std::vector<double> latency_ms;
  double late_ms = 0.0;  // max lateness of the send schedule
  size_t batches = 0;
  size_t windows_seen = 0;
  bool truncated = false;
};

// Batch i is due at t0 + 256 * i / rate. Until it is due the driver
// busy-polls every query's results. A sample is one (query, window): from
// when the first event with time >= the window's close was due, to the first
// row of that window the driver sees. Windows closing in the first tenth of
// the phase are warm-up and not sampled.
void RunOpenLoop(Workload& w, double rate, double seconds, Tracer* tracer,
                 Tally* tally, OpenResult* r) {
  const size_t nq = w.spec.queries.size();
  const size_t total = std::max<size_t>(
      1, static_cast<size_t>(rate * seconds / static_cast<double>(kBatchRows)));
  const size_t warm = total / 10;
  std::vector<Ts> batch_max_time;
  std::vector<uint64_t> batch_due;
  batch_max_time.reserve(total);
  batch_due.reserve(total);
  std::vector<WindowId> last_wid(nq, -1);
  std::vector<size_t> cursor(nq, 0);

  std::unique_ptr<runtime::ShardedRuntime> rt = MakeRuntime(w, tracer);
  Replayer replay(w);
  EventBatch batch;
  batch.Reserve(kBatchRows, 8);

  auto poll = [&] {
    for (size_t q = 0; q < nq; ++q) {
      std::vector<ResultRow> rows;
      {
        Span span(tracer, kRuntime, "TakeResults");
        rows = rt->TakeResults(q);
      }
      if (rows.empty()) continue;
      const uint64_t now = SteadyNowNs();
      for (const ResultRow& row : rows) {
        if (row.wid <= last_wid[q]) continue;
        last_wid[q] = row.wid;
        ++r->windows_seen;
        const Ts close = WindowCloseTime(row.wid, w.windows[q]);
        while (cursor[q] < batch_max_time.size() &&
               batch_max_time[cursor[q]] < close) {
          ++cursor[q];
        }
        if (cursor[q] >= batch_max_time.size() || cursor[q] < warm) continue;
        r->latency_ms.push_back(
            static_cast<double>(now - batch_due[cursor[q]]) / 1e6);
      }
    }
  };

  const double ns_per_batch = 1e9 * static_cast<double>(kBatchRows) / rate;
  const uint64_t t0 = SteadyNowNs() + 1'000'000;
  // Far behind schedule (the rate is past capacity): stop instead of
  // running for minutes; the latencies measured so far show it.
  const uint64_t give_up = t0 + static_cast<uint64_t>(2e9 * seconds + 5e9);
  for (size_t i = 0; i < total; ++i) {
    {
      Span span(tracer, kGen, "Replayer::Next");
      replay.Next(kBatchRows, &batch);
    }
    const uint64_t due =
        t0 + static_cast<uint64_t>(ns_per_batch * static_cast<double>(i));
    uint64_t now = SteadyNowNs();
    while (now < due) {
      poll();
      now = SteadyNowNs();
    }
    if (now > give_up) {
      r->truncated = true;
      break;
    }
    r->late_ms = std::max(r->late_ms, static_cast<double>(now - due) / 1e6);
    batch_max_time.push_back(batch.time(batch.size() - 1));
    batch_due.push_back(due);
    Status s;
    {
      Span span(tracer, kRuntime, "ProcessBatch");
      s = rt->ProcessBatch(batch);
    }
    tally->Call(s);
    if (!s.ok()) break;
    ++r->batches;
    poll();
  }
  DestroyRuntime(&rt, tracer);
}

// -------------------------------------------------------------------- main

struct Config {
  std::string workload;
  std::string spec_path;
  std::string out_dir;
  std::string git_sha;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  double light_eps = 0.0;
  double heavy_eps = 0.0;
  size_t closed_events = 0;
};

std::string ProvenanceJson(const Config& c) {
  std::string out = "{";
  out += "\"git_sha\": \"" + JsonEscape(c.git_sha) + "\"";
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": \"" + JsonEscape(CpuModel()) + "\"";
  out += ", \"isa\": \"" + std::string(simd::IsaName(simd::DispatchedIsa())) +
         "\"";
  out += ", \"build_type\": \"" + std::string(GRETA_BENCH_BUILD_TYPE) + "\"";
  out += ", \"greta_telemetry\": " +
         std::string(GRETA_BENCH_TELEMETRY ? "true" : "false");
  out += ", \"seed\": " + std::to_string(c.seed);
  return out + "}";
}

void PrintOpen(const char* label, double rate, const OpenResult& o) {
  std::printf(
      "  open %-5s %9.0f ev/s: %zu batches, %zu windows, %zu samples, "
      "p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, generator late by up to "
      "%.3f ms%s\n",
      label, rate, o.batches, o.windows_seen, o.latency_ms.size(),
      Percentile(o.latency_ms, 0.5), Percentile(o.latency_ms, 0.9),
      Percentile(o.latency_ms, 0.99), o.late_ms,
      o.truncated ? " (TRUNCATED: far behind schedule)" : "");
}

// Per-layer metrics of a traced run: the registry as the traced capacity
// phase left it, plus the driver's own timings.
std::vector<Metric> LayerMetrics(const Workload& w, const SetupResult& setup,
                                 const ClosedResult& closed,
                                 const ClosedResult& traced,
                                 const SingleResult& single) {
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  auto counter = [&](const std::string& name) {
    return static_cast<double>(reg.GetCounter(name)->Value());
  };
  auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  // Kernel coverage comes from the registry: ShardedRuntime::stats() does
  // not sum the engines' batch_rows_fast / batch_rows_fallback / simd_rows.
  double fast = 0.0;
  for (const char* s : {"shared_fold", "suffix_merge", "per_event"}) {
    fast += counter(std::string("greta_core_batch_rows_total{strategy=\"") +
                    s + "\"}");
  }
  double fallback = 0.0;
  for (const char* s : {"disabled", "semantics", "negation", "bounds"}) {
    fallback += counter(
        std::string("greta_core_batch_fallback_rows_total{reason=\"") + s +
        "\"}");
  }
  const double simd_rows =
      counter(std::string("greta_core_simd_rows_total{isa=\"") +
              simd::IsaName(simd::DispatchedIsa()) + "\"}");
  telemetry::Histogram::Snapshot e2e;
  for (size_t s = 0; s < w.spec.runtime.num_shards; ++s) {
    const telemetry::Histogram::Snapshot snap =
        reg.GetHistogram(telemetry::Labeled("greta_runtime_e2e_latency_ns",
                                            "shard", s))
            ->Snap();
    e2e.count += snap.count;
    e2e.sum += snap.sum;
    for (size_t b = 0; b < telemetry::Histogram::kBuckets; ++b) {
      e2e.buckets[b] += snap.buckets[b];
    }
  }
  const telemetry::Histogram::Snapshot emit =
      reg.GetHistogram("greta_core_window_emit_ns")->Snap();
  const double peak_eps = Median(closed.eps);
  const double events = static_cast<double>(traced.events);
  auto kernel = [&](const char* k) {
    return counter(std::string("greta_core_kernel_dispatch_total{kernel=\"") +
                   k + "\"}");
  };
  return {
      {"query.parse_ms", Median(setup.parse_ms), "ms"},
      {"sharing.create_ms", Median(setup.plan_ms), "ms"},
      {"sharing.clusters", static_cast<double>(setup.clusters), "count"},
      {"sharing.merged_queries", static_cast<double>(setup.merged_queries),
       "count"},
      {"sharing.migrations", static_cast<double>(traced.migrations), "count"},
      {"runtime.ingest_ns.p50", Percentile(traced.ingest_ns, 0.5), "ns"},
      {"runtime.ingest_ns.p99", Percentile(traced.ingest_ns, 0.99), "ns"},
      {"runtime.ingest_busy_frac", frac(traced.busy_s, traced.wall_s),
       "ratio"},
      {"runtime.producer_stalls", static_cast<double>(traced.producer_stalls),
       "count"},
      {"runtime.queue_depth_hwm", static_cast<double>(traced.queue_depth_hwm),
       "batches"},
      {"runtime.take_ns.p50", Percentile(traced.take_ns, 0.5), "ns"},
      {"runtime.take_ns.p99", Percentile(traced.take_ns, 0.99), "ns"},
      {"runtime.flush_ms", Median(traced.flush_ms), "ms"},
      {"runtime.e2e_ns.p50", HistQuantile(e2e, 0.5), "ns"},
      {"runtime.e2e_ns.p99", HistQuantile(e2e, 0.99), "ns"},
      {"runtime.merger_pending_windows", traced.pending_windows_max, "count"},
      {"runtime.shard_skew", setup.shard_skew, "ratio"},
      {"runtime.st_ratio", frac(peak_eps, single.eps), "ratio"},
      {"core.st_eps", single.eps, "events/s"},
      {"core.batch_ns.p50", Percentile(single.batch_ns, 0.5), "ns"},
      {"core.batch_ns.p99", Percentile(single.batch_ns, 0.99), "ns"},
      {"core.edges_per_event",
       frac(counter("greta_core_edges_traversed_total"), events), "ratio"},
      {"core.vertices", counter("greta_core_vertices_created_total"), "count"},
      {"core.batch_path_frac",
       frac(fast + fallback, counter("greta_core_events_routed_total")),
       "ratio"},
      {"core.batch_fast_frac", frac(fast, fast + fallback), "ratio"},
      {"core.simd_rows_frac", frac(simd_rows, fast + fallback), "ratio"},
      {"core.kernel_dispatch.count_modular", kernel("count_modular"),
       "count"},
      {"core.kernel_dispatch.count_exact", kernel("count_exact"), "count"},
      {"core.kernel_dispatch.generic", kernel("generic"), "count"},
      {"core.window_emit_ns.p50", HistQuantile(emit, 0.5), "ns"},
      {"core.window_emit_ns.p99", HistQuantile(emit, 0.99), "ns"},
      {"core.windows_closed", counter("greta_core_windows_closed_total"),
       "count"},
      {"storage.shard_state_peak_bytes", Median(traced.shard_peak_bytes),
       "bytes"},
      {"storage.pane_bytes", reg.GetGauge("greta_core_pane_bytes")->Value(),
       "bytes"},
      {"telemetry.overhead_frac", 1.0 - frac(Median(traced.eps), peak_eps),
       "ratio"},
  };
}

int Run(const Config& c) {
  const uint64_t run_start = SteadyNowNs();
  Tracer tracer(c.trace);
  tracer.set_phase(kRun);
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::string detail;
  Tally tally;
  Workload w;
  {
    Span root(&tracer, kDriver, "greta_bench");

    // Inputs: the spec text and one segment generated from --seed.
    ArmTelemetry(false);
    if (!ReadFile(c.spec_path, &w.spec_text)) {
      std::fprintf(stderr, "error: cannot read %s\n", c.spec_path.c_str());
      return 2;
    }
    {
      auto spec = workload::ParseWorkloadSpec(w.spec_text, &w.catalog);
      if (!spec.ok() || !spec.value().stock.has_value()) {
        std::fprintf(stderr, "error: %s: %s\n", c.spec_path.c_str(),
                     spec.ok() ? "no stock dataset"
                               : spec.status().ToString().c_str());
        return 2;
      }
      w.spec = std::move(spec).value();
    }
    for (const QuerySpec& q : w.spec.queries) w.windows.push_back(q.window);
    w.spec.stock->seed = c.seed;
    w.span = w.spec.stock->duration;
    {
      Span span(&tracer, kGen, "GenerateStockStream");
      w.segment = GenerateStockStream(&w.catalog, *w.spec.stock);
    }
    GRETA_CHECK(!w.segment.empty());

    tracer.set_phase(kGate);
    const GateResult gate = [&] {
      Span span(&tracer, kDriver, "gate");
      return RunGate(w, c.smoke ? 20000 : SIZE_MAX, c.seed, &tracer, &tally);
    }();
    std::printf(
        "%s: gate %zu events, %zu rows vs reference; SASE oracle on %zu "
        "queries (%zu skipped), %zu rows; %zu mismatches\n",
        c.workload.c_str(), gate.events, gate.rows, gate.oracle_queries,
        gate.oracle_skipped, gate.oracle_rows, gate.mismatches);

    // A trace run keeps one round: its closed loop is the untraced
    // reference of the telemetry overhead, so spans pause there, and the
    // traced phases follow it.
    const size_t rounds = c.trace || c.smoke ? 1 : kRounds;
    const double closed_s =
        (c.trace ? 0.2 : kClosedShare) * c.seconds / static_cast<double>(rounds);
    const double open_s =
        (c.trace ? 0.2 : kOpenShare) * c.seconds / static_cast<double>(rounds);
    const size_t builds = c.smoke ? 3 : kSetupBuilds / rounds;
    SetupResult setup;
    ClosedResult closed;
    OpenResult light;
    OpenResult heavy;
    SingleResult single;
    ClosedResult traced;
    for (size_t round = 0; round < rounds; ++round) {
      tracer.set_phase(kSetup);
      {
        Span span(&tracer, kDriver, "setup");
        MeasureSetup(w, builds, &tracer, &setup);
      }
      tracer.set_phase(kClosed);
      {
        Span span(&tracer, kDriver, "closed_loop");
        tracer.set_paused(true);
        RunClosedLoop(w, c.closed_events, closed_s, false, &tracer, &tally,
                      &closed);
        tracer.set_paused(false);
      }
      if (c.trace) {
        tracer.set_phase(kSingleThread);
        {
          Span span(&tracer, kDriver, "single_thread");
          single = RunSingleThread(w, c.closed_events, &tracer, &tally);
        }
        ArmTelemetry(true);
        telemetry::MetricRegistry::Default().Reset();
        tracer.set_phase(kClosedTraced);
        {
          Span span(&tracer, kDriver, "closed_loop_traced");
          RunClosedLoop(w, c.closed_events, closed_s, true, &tracer, &tally,
                        &traced);
        }
        // Scraped before the open loops add to the registry.
        metrics = LayerMetrics(w, setup, closed, traced, single);
      }
      tracer.set_phase(kOpenLight);
      {
        Span span(&tracer, kDriver, "open_loop_light");
        RunOpenLoop(w, c.light_eps, open_s, &tracer, &tally, &light);
      }
      tracer.set_phase(kOpenHeavy);
      {
        Span span(&tracer, kDriver, "open_loop_heavy");
        RunOpenLoop(w, c.heavy_eps, open_s, &tracer, &tally, &heavy);
      }
    }
    tracer.set_phase(kRun);

    const double peak_eps = Median(closed.eps);
    std::printf("  closed loop: %zu reps of %zu events, median %.0f ev/s, "
                "state peak %.3f MB\n",
                closed.eps.size(), c.closed_events, peak_eps,
                Median(closed.peak_mb));
    if (c.trace) {
      std::printf("  single-threaded engine: %.0f ev/s\n", single.eps);
    }
    PrintOpen("light", c.light_eps, light);
    PrintOpen("heavy", c.heavy_eps, heavy);
    for (const OpenResult* o : {&light, &heavy}) {
      if (!c.smoke && !c.trace && o->latency_ms.size() < 1000) {
        std::printf("  warning: fewer than 1000 latency samples in a phase\n");
      }
    }

    // The end-to-end metrics, and the end-to-end numbers a shared host cannot
    // hold within a bound (README "Run-to-run spread"): those go to the
    // record's "extra" of an untraced run and join the per-layer metrics of
    // a traced one.
    const std::vector<Metric> end_to_end = {
        {"setup_s", Median(setup.setup_s), "s"},
        {"lat_p50_ms.light", Percentile(light.latency_ms, 0.5), "ms"},
        {"lat_p90_ms.light", Percentile(light.latency_ms, 0.9), "ms"},
        {"state_peak_mb", Median(closed.peak_mb), "MB"},
    };
    const std::vector<Metric> unbounded = {
        {"peak_eps", peak_eps, "events/s"},
        {"lat_p50_ms.heavy", Percentile(heavy.latency_ms, 0.5), "ms"},
        {"lat_p90_ms.heavy", Percentile(heavy.latency_ms, 0.9), "ms"},
        {"lat_p99_ms.light", Percentile(light.latency_ms, 0.99), "ms"},
        {"lat_p99_ms.heavy", Percentile(heavy.latency_ms, 0.99), "ms"},
        {"gen.late_ms.light", light.late_ms, "ms"},
        {"gen.late_ms.heavy", heavy.late_ms, "ms"},
    };
    if (c.trace) {
      metrics.insert(metrics.end(), unbounded.begin(), unbounded.end());
    } else {
      metrics = end_to_end;
      extra = unbounded;
    }
    detail = "{\"closed_eps\": " + NumList(closed.eps) +
             ", \"closed_events\": " + std::to_string(c.closed_events) +
             ", \"light_eps\": " + Num(c.light_eps) +
             ", \"heavy_eps\": " + Num(c.heavy_eps) +
             ", \"light_samples\": " + std::to_string(light.latency_ms.size()) +
             ", \"heavy_samples\": " + std::to_string(heavy.latency_ms.size()) +
             ", \"gate_events\": " + std::to_string(gate.events) +
             ", \"gate_rows\": " + std::to_string(gate.rows) +
             ", \"oracle_queries\": " + std::to_string(gate.oracle_queries) +
             ", \"oracle_skipped\": " + std::to_string(gate.oracle_skipped) +
             ", \"oracle_rows\": " + std::to_string(gate.oracle_rows) +
             ", \"mismatches\": " + std::to_string(gate.mismatches) + "}";
  }
  const uint64_t wall_ns = SteadyNowNs() - run_start;

  const std::string provenance = ProvenanceJson(c);
  if (c.trace) {
    uint64_t self_sum = 0;
    std::printf("  self time per layer on the driver thread (ms):\n");
    std::printf("    %-14s", "phase");
    for (const char* layer : kLayerNames) std::printf("%11s", layer);
    std::printf("\n");
    for (size_t p = 0; p < kNumPhases; ++p) {
      std::printf("    %-14s", kPhaseNames[p]);
      for (size_t l = 0; l < kNumLayers; ++l) {
        const uint64_t ns =
            tracer.self_ns(static_cast<Phase>(p), static_cast<Layer>(l));
        self_sum += ns;
        std::printf("%11.2f", static_cast<double>(ns) / 1e6);
      }
      std::printf("\n");
    }
    for (size_t l = 0; l < kNumLayers; ++l) {
      metrics.push_back(
          {std::string("self_ms.") + kLayerNames[l],
           static_cast<double>(tracer.layer_self_ns(static_cast<Layer>(l))) /
               1e6,
           "ms"});
    }
    const double coverage =
        static_cast<double>(self_sum) / static_cast<double>(wall_ns);
    metrics.push_back({"trace.self_sum_frac", coverage, "ratio"});
    std::printf("  self times sum to %.4f of the driver thread's wall time\n",
                coverage);
    const std::string path = c.out_dir + "/" + c.workload + ".trace.json";
    if (tracer.WriteChromeTrace(path, provenance)) {
      std::printf("  chrome trace: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    }
  }

  const bool correct = tally.failed == 0;
  const std::string head =
      std::string("\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally.attempted) +
      ", \"failed\": " + std::to_string(tally.failed) +
      ", \"metrics\": " + MetricsJson(metrics);
  std::printf(
      "record: {\"workload\": \"%s\", \"trace\": %s, \"smoke\": %s, "
      "\"wall_s\": %s, \"provenance\": %s, %s, \"extra\": %s, "
      "\"detail\": %s}\n",
      c.workload.c_str(), c.trace ? "true" : "false",
      c.smoke ? "true" : "false",
      Num(static_cast<double>(wall_ns) / 1e9).c_str(), provenance.c_str(),
      head.c_str(), MetricsJson(extra).c_str(), detail.c_str());
  std::printf("{%s}\n", head.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace greta::e2e

int main(int argc, char** argv) {
  greta::bench::Flags flags(argc, argv);
  greta::e2e::Config c;
  c.workload = flags.GetString("workload", "");
  c.spec_path = flags.GetString("spec", "");
  c.out_dir = flags.GetString("out-dir", ".");
  c.git_sha = flags.GetString("git-sha", "unknown");
  c.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  c.seconds = flags.GetDouble("seconds", 20.0);
  c.trace = flags.GetBool("trace", false);
  c.smoke = flags.GetBool("smoke", false);
  c.light_eps = flags.GetDouble("light-eps", 0.0);
  c.heavy_eps = flags.GetDouble("heavy-eps", 0.0);
  c.closed_events = static_cast<size_t>(flags.GetInt("closed-events", 0));
  if (c.workload.empty() || c.spec_path.empty() || c.light_eps <= 0.0 ||
      c.heavy_eps <= 0.0 || c.closed_events == 0 || c.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: greta_bench --workload=NAME --spec=FILE --seed=N "
                 "--seconds=S --light-eps=R --heavy-eps=R --closed-events=N "
                 "[--trace=0|1] [--smoke] [--out-dir=DIR] [--git-sha=SHA]\n");
    return 2;
  }
  return greta::e2e::Run(c);
}
