// Telemetry subsystem unit tests (src/telemetry/): sharded counters and
// gauges under concurrent updates, log2-histogram bucketing and quantiles,
// the seqlock trace ring (capacity rounding, lap overwrite, torn-read
// rejection under concurrent emitters), registry lookup-or-create and
// arm/disarm gating, and both exporters — Prometheus text framing and JSON
// validity including escaping of the quotes labeled names embed.

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "telemetry/exporters.h"
#include "telemetry/telemetry.h"

namespace greta::telemetry {
namespace {

TEST(TelemetryCounter, AddAcrossCellsSums) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add(3);
  c.Add(4);
  // Explicit cell hints land in distinct cells; Value() must sum them all.
  for (size_t slot = 0; slot < Counter::kCells; ++slot) c.AddAt(slot, 1);
  EXPECT_EQ(c.Value(), 7u + Counter::kCells);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(TelemetryCounter, ConcurrentAddsLoseNothing) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(TelemetryGauge, SetAndSetMax) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_EQ(g.Value(), 2.5);
  g.Set(-1.0);
  EXPECT_EQ(g.Value(), -1.0);
  g.SetMax(3.0);
  EXPECT_EQ(g.Value(), 3.0);
  g.SetMax(1.0);  // smaller: no-op
  EXPECT_EQ(g.Value(), 3.0);
  g.Reset();
  EXPECT_EQ(g.Value(), 0.0);
}

TEST(TelemetryGauge, ConcurrentSetMaxKeepsMaximum) {
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 5000; ++i) {
        g.SetMax(static_cast<double>(t * 5000 + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(g.Value(), 7.0 * 5000.0 + 4999.0);
}

TEST(TelemetryHistogram, BucketsByBitWidth) {
  // Bucket i holds values of bit-width i: 0 -> bucket 0, 1 -> bucket 1,
  // [2,3] -> bucket 2, [4,7] -> bucket 3, ...
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(4);
  h.Record(1000);  // bit-width 10
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 4 + 1000);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.buckets[10], 1u);
  EXPECT_DOUBLE_EQ(s.Mean(), 1010.0 / 6.0);
}

TEST(TelemetryHistogram, BucketUpperBoundsAndQuantiles) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(63), UINT64_MAX);

  Histogram h;
  // 90 small samples, 10 large ones: p50 stays in the small bucket, p99
  // reaches the large one.
  for (int i = 0; i < 90; ++i) h.Record(3);
  for (int i = 0; i < 10; ++i) h.Record(1 << 20);
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.Quantile(0.50), Histogram::BucketUpperBound(2));
  EXPECT_EQ(s.Quantile(0.99), Histogram::BucketUpperBound(21));
  // Empty snapshot quantile is 0.
  EXPECT_EQ(Histogram::Snapshot{}.Quantile(0.99), 0u);
}

TEST(TelemetryHistogram, SaturatesAtLastBucket) {
  Histogram h;
  h.Record(UINT64_MAX);
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.buckets[Histogram::kBuckets - 1], 1u);
}

// ------------------------------------------------------------- trace ring

TraceEvent MakeTrace(TraceKind kind, uint64_t a) {
  TraceEvent e;
  e.kind = kind;
  e.shard = 3;
  e.cluster = 7;
  e.ts = 42;
  e.wid = 5;
  e.a = a;
  e.b = a + 1;
  e.x = 1.5;
  e.y = -2.5;
  return e;
}

TEST(TelemetryTraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(0).capacity(), 8u);   // min 8
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(8).capacity(), 8u);
  EXPECT_EQ(TraceRing(9).capacity(), 16u);
  EXPECT_EQ(TraceRing(1024).capacity(), 1024u);
}

TEST(TelemetryTraceRing, RoundTripsPayload) {
  TraceRing ring(8);
  ring.Emit(MakeTrace(TraceKind::kPanePurge, 11));
  std::vector<TraceEvent> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kind, TraceKind::kPanePurge);
  EXPECT_EQ(snap[0].shard, 3u);
  EXPECT_EQ(snap[0].cluster, 7u);
  EXPECT_EQ(snap[0].ts, 42);
  EXPECT_EQ(snap[0].wid, 5);
  EXPECT_EQ(snap[0].a, 11u);
  EXPECT_EQ(snap[0].b, 12u);
  EXPECT_EQ(snap[0].x, 1.5);
  EXPECT_EQ(snap[0].y, -2.5);
}

TEST(TelemetryTraceRing, LapKeepsNewestTail) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 20; ++i) {
    ring.Emit(MakeTrace(TraceKind::kWindowClose, i));
  }
  EXPECT_EQ(ring.total_emitted(), 20u);
  std::vector<TraceEvent> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 8u);  // the ring is a tail, not a log
  // Oldest first, and exactly the last capacity() events survive.
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].a, 12u + i);
    EXPECT_LT(i == 0 ? 0 : snap[i - 1].seq, snap[i].seq);
  }
  ring.Reset();
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(ring.total_emitted(), 0u);
}

TEST(TelemetryTraceRing, ConcurrentEmitNeverTearsEvents) {
  TraceRing ring(64);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  std::atomic<bool> stop{false};
  // Snapshot continuously while writers lap the ring; every decoded event
  // must be internally consistent (b == a + 1 is the writers' invariant).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const TraceEvent& e : ring.Snapshot()) {
        ASSERT_EQ(e.b, e.a + 1);
        ASSERT_EQ(e.kind, TraceKind::kShardStall);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ring.Emit(MakeTrace(TraceKind::kShardStall, t * kPerThread + i));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(ring.total_emitted(), kThreads * kPerThread);
  // Quiescent snapshot: full ring, strictly increasing seq.
  std::vector<TraceEvent> snap = ring.Snapshot();
  EXPECT_EQ(snap.size(), ring.capacity());
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].seq, snap[i].seq);
  }
}

// --------------------------------------------------------------- registry

TEST(TelemetryRegistry, LookupOrCreateIsStable) {
  MetricRegistry reg;
  Counter* c1 = reg.GetCounter("greta_test_total");
  Counter* c2 = reg.GetCounter("greta_test_total");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(reg.GetCounter("greta_other_total"), c1);
  Gauge* g = reg.GetGauge("greta_test_gauge");
  EXPECT_EQ(reg.GetGauge("greta_test_gauge"), g);
  Histogram* h = reg.GetHistogram("greta_test_hist");
  EXPECT_EQ(reg.GetHistogram("greta_test_hist"), h);

  c1->Add(5);
  g->Set(1.0);
  h->Record(2);
  reg.Reset();
  // Reset zeroes values but keeps registrations and addresses.
  EXPECT_EQ(reg.GetCounter("greta_test_total"), c1);
  EXPECT_EQ(c1->Value(), 0u);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Snap().count, 0u);
}

TEST(TelemetryRegistry, ArmedGatesIfAccessors) {
  MetricRegistry reg;
  EXPECT_TRUE(reg.enabled());
#if GRETA_TELEMETRY
  EXPECT_TRUE(reg.Armed());
  EXPECT_NE(reg.CounterIf("greta_armed_total"), nullptr);
  EXPECT_NE(reg.GaugeIf("greta_armed_gauge"), nullptr);
  EXPECT_NE(reg.HistogramIf("greta_armed_hist"), nullptr);
  EXPECT_NE(reg.TraceIf(), nullptr);
#endif
  reg.set_enabled(false);
  EXPECT_FALSE(reg.Armed());
  EXPECT_EQ(reg.CounterIf("greta_armed_total"), nullptr);
  EXPECT_EQ(reg.GaugeIf("greta_armed_gauge"), nullptr);
  EXPECT_EQ(reg.HistogramIf("greta_armed_hist"), nullptr);
  EXPECT_EQ(reg.TraceIf(), nullptr);
}

TEST(TelemetryRegistry, ConfigureAppliesOptions) {
  MetricRegistry reg;
  TelemetryOptions options;
  options.enabled = false;
  options.trace_capacity = 100;  // rounds to 128
  options.sample_every = 4;
  reg.Configure(options);
  EXPECT_FALSE(reg.enabled());
  EXPECT_EQ(reg.trace().capacity(), 128u);
  EXPECT_EQ(reg.sample_every(), 4u);
}

TEST(TelemetryRegistry, LabeledNames) {
  EXPECT_EQ(Labeled("greta_runtime_queue_depth_hwm", "shard", 2),
            "greta_runtime_queue_depth_hwm{shard=\"2\"}");
}

TEST(TelemetryRegistry, ScrapePreservesRegistrationOrder) {
  MetricRegistry reg;
  reg.GetCounter("greta_b_total")->Add(2);
  reg.GetCounter("greta_a_total")->Add(1);
  std::vector<MetricRegistry::CounterSample> counters =
      reg.ScrapeCounters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].name, "greta_b_total");
  EXPECT_EQ(counters[0].value, 2u);
  EXPECT_EQ(counters[1].name, "greta_a_total");
  EXPECT_EQ(counters[1].value, 1u);
}

// -------------------------------------------------------------- exporters

TEST(TelemetryExporters, PrometheusTextFraming) {
  MetricRegistry reg;
  reg.GetCounter("greta_events_total")->Add(7);
  reg.GetCounter(Labeled("greta_stalls_total", "shard", 1))->Add(2);
  reg.GetGauge("greta_lag")->Set(3.5);
  Histogram* h = reg.GetHistogram("greta_ns");
  h->Record(1);
  h->Record(6);
  h->Record(6);

  std::string text = ExportPrometheus(reg);
  EXPECT_NE(text.find("# TYPE greta_events_total counter\n"
                      "greta_events_total 7\n"),
            std::string::npos);
  // Labeled series: TYPE line carries the base name, the sample the labels.
  EXPECT_NE(text.find("# TYPE greta_stalls_total counter\n"
                      "greta_stalls_total{shard=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("greta_lag 3.5\n"), std::string::npos);
  // Histogram buckets are cumulative with le upper bounds and a +Inf cap.
  EXPECT_NE(text.find("greta_ns_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("greta_ns_bucket{le=\"7\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("greta_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("greta_ns_sum 13\n"), std::string::npos);
  EXPECT_NE(text.find("greta_ns_count 3\n"), std::string::npos);
}

TEST(TelemetryExporters, JsonEscapesLabeledNames) {
  MetricRegistry reg;
  reg.GetCounter(Labeled("greta_kernel_total", "kernel", 0))->Add(4);
  reg.GetGauge("greta_mode{shard=\"0\",cluster=\"1\"}")->Set(1.0);
  reg.GetHistogram("greta_plain_hist")->Record(9);
  reg.trace().Emit(MakeTrace(TraceKind::kShardStall, 1));

  std::string json = ExportJson(reg, /*include_trace=*/true);
  // The raw quotes of the labeled name must be escaped in the JSON key.
  EXPECT_NE(json.find("\"greta_kernel_total{kernel=\\\"0\\\"}\":4"),
            std::string::npos);
  EXPECT_NE(json.find("\"greta_mode{shard=\\\"0\\\",cluster=\\\"1\\\"}\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"trace\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"shard_stall\""), std::string::npos);
  // No unescaped quote may survive inside a key: every `{` of a labeled
  // name is preceded by characters, never by a bare '"' pair mismatch —
  // cheap structural sanity: balanced braces and quotes count is even.
  size_t quotes = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '"' && (i == 0 || json[i - 1] != '\\')) ++quotes;
  }
  EXPECT_EQ(quotes % 2, 0u);

  std::string no_trace = ExportJson(reg, /*include_trace=*/false);
  EXPECT_EQ(no_trace.find("\"trace\""), std::string::npos);
}

TEST(TelemetryExporters, ExplainReportSmoke) {
  MetricRegistry reg;
  reg.GetCounter("greta_events_total")->Add(3);
  reg.GetGauge("greta_lag")->Set(0.5);
  reg.GetHistogram("greta_ns")->Record(100);
  for (uint64_t i = 0; i < 40; ++i) {
    reg.trace().Emit(MakeTrace(TraceKind::kWatermarkAdvance, i));
  }
  std::string report = ExplainTelemetry(reg, /*trace_tail=*/8);
  EXPECT_NE(report.find("greta_events_total"), std::string::npos);
  EXPECT_NE(report.find("greta_lag"), std::string::npos);
  EXPECT_NE(report.find("greta_ns"), std::string::npos);
  EXPECT_NE(report.find("watermark_advance"), std::string::npos);
  // The tail cap holds: at most 8 trace lines are printed.
  size_t lines = 0;
  for (size_t pos = report.find("watermark_advance");
       pos != std::string::npos;
       pos = report.find("watermark_advance", pos + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, 8u);
}

// Minimal strict JSON acceptor (RFC 8259 grammar, no semantic decoding):
// proves the exporter emits one complete parseable document even when
// instrument names carry quotes, control characters and backslashes.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Literal(const char* word) {
    const size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool Object() {
    ++pos_;
    SkipWs();
    if (Peek('}')) return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Peek(':')) return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      if (Peek('}')) return ++pos_, true;
      return false;
    }
  }
  bool Array() {
    ++pos_;
    SkipWs();
    if (Peek(']')) return ++pos_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      if (Peek(']')) return ++pos_, true;
      return false;
    }
  }
  bool String() {
    if (!Peek('"')) return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') return ++pos_, true;
      if (c < 0x20) return false;  // raw control char: invalid JSON
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek('-')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(TelemetryExporters, PrometheusEscapesAdversarialLabelValues) {
  MetricRegistry reg;
  // A label value smuggling a backslash and a newline: both must render as
  // escape sequences, or the scrape format breaks at this line.
  reg.GetCounter("greta_bad_total{path=\"a\\b\nc\"}")->Add(1);
  std::string text = ExportPrometheus(reg);
  EXPECT_NE(text.find("greta_bad_total{path=\"a\\\\b\\nc\"} 1\n"),
            std::string::npos)
      << text;
  // No sample line may contain a raw newline mid-line: every '\n' is
  // followed by a '#', a name character, or end-of-document.
  for (size_t pos = text.find('\n'); pos != std::string::npos;
       pos = text.find('\n', pos + 1)) {
    if (pos + 1 == text.size()) break;
    const char next = text[pos + 1];
    EXPECT_TRUE(next == '#' || std::isalpha(static_cast<unsigned char>(next)))
        << "raw newline mid-sample at offset " << pos;
  }
}

TEST(TelemetryExporters, PrometheusRendersEmptyHistogram) {
  MetricRegistry reg;
  reg.GetHistogram("greta_empty_ns");  // registered, never recorded
  std::string text = ExportPrometheus(reg);
  // All value buckets are sparse-skipped; the +Inf cap, sum and count must
  // still frame a complete (zero) histogram.
  EXPECT_NE(text.find("greta_empty_ns_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("greta_empty_ns_sum 0\n"), std::string::npos);
  EXPECT_NE(text.find("greta_empty_ns_count 0\n"), std::string::npos);
}

TEST(TelemetryExporters, PrometheusRendersOverflowOnlyHistogram) {
  MetricRegistry reg;
  reg.GetHistogram("greta_sat_ns")->Record(UINT64_MAX);
  std::string text = ExportPrometheus(reg);
  // The saturating bucket's upper bound is UINT64_MAX, then the +Inf cap.
  EXPECT_NE(text.find("greta_sat_ns_bucket{le=\"18446744073709551615\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("greta_sat_ns_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("greta_sat_ns_count 1\n"), std::string::npos);
}

TEST(TelemetryExporters, JsonRoundTripsAdversarialNames) {
  MetricRegistry reg;
  reg.GetCounter("greta_evil\ntotal{k=\"a\tb\"}")->Add(1);
  reg.GetGauge(std::string("greta_ctl_") + '\x01' + "gauge")->Set(2.0);
  reg.GetHistogram("greta_\"quoted\"_hist")->Record(5);
  reg.trace().Emit(MakeTrace(TraceKind::kWindowClose, 9));
  std::string json = ExportJson(reg, /*include_trace=*/true);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  std::string no_trace = ExportJson(reg, /*include_trace=*/false);
  EXPECT_TRUE(JsonChecker(no_trace).Valid()) << no_trace;
}

TEST(TelemetryExporters, FormatIso8601KnownInstants) {
  EXPECT_EQ(FormatIso8601(0), "-");
  EXPECT_EQ(FormatIso8601(-5), "-");
  EXPECT_EQ(FormatIso8601(1000000000LL), "1970-01-01T00:00:01.000Z");
  EXPECT_EQ(FormatIso8601(1700000000123000000LL),
            "2023-11-14T22:13:20.123Z");
}

TEST(TelemetryRegistry, ClockAnchorMapsSteadyToSystem) {
  MetricRegistry reg;
  const ClockAnchor anchor = reg.clock_anchor();
  ASSERT_TRUE(anchor.valid());
  // Identity at the anchor point, then linear in the steady delta.
  EXPECT_EQ(anchor.ToSystemNs(static_cast<uint64_t>(anchor.steady_ns)),
            anchor.system_ns);
  EXPECT_EQ(anchor.ToSystemNs(static_cast<uint64_t>(anchor.steady_ns) + 5),
            anchor.system_ns + 5);
  // Configure re-captures the pair; the new anchor cannot move backwards.
  reg.Configure(TelemetryOptions{});
  const ClockAnchor again = reg.clock_anchor();
  ASSERT_TRUE(again.valid());
  EXPECT_GE(again.steady_ns, anchor.steady_ns);
  EXPECT_GE(again.system_ns, 0);
}

TEST(TelemetryTraceRing, StampsWallClockOnEmit) {
  TraceRing ring(8);
  ring.Emit(MakeTrace(TraceKind::kWindowClose, 1));
  std::vector<TraceEvent> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_NE(snap[0].when_ns, 0u);  // stamped at emission
  // An explicit caller stamp is preserved verbatim.
  TraceEvent e = MakeTrace(TraceKind::kWindowClose, 2);
  e.when_ns = 1234;
  ring.Emit(e);
  snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[1].when_ns, 1234u);
}

TEST(TelemetryTraceKinds, AllNamed) {
  for (TraceKind kind :
       {TraceKind::kNone, TraceKind::kWindowClose,
        TraceKind::kWatermarkAdvance, TraceKind::kPanePurge,
        TraceKind::kShardStall}) {
    EXPECT_NE(std::string(TraceKindName(kind)), "");
  }
}

}  // namespace
}  // namespace greta::telemetry
