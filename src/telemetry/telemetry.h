#ifndef GRETA_TELEMETRY_TELEMETRY_H_
#define GRETA_TELEMETRY_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/// Compile-out switch: building with -DGRETA_TELEMETRY=0 (CMake option
/// GRETA_TELEMETRY=OFF) turns every GRETA_TM_* macro below into nothing and
/// makes Enabled() a compile-time false, so the instrumented hot paths carry
/// zero code. The default build compiles the instruments in; whether they
/// RECORD is then a runtime property of the registry (set_enabled /
/// TelemetryOptions), sampled by subsystems when they cache their
/// instrument pointers at construction.
#ifndef GRETA_TELEMETRY
#define GRETA_TELEMETRY 1
#endif

namespace greta::telemetry {

/// Runtime configuration (workload spec block "telemetry").
struct TelemetryOptions {
  /// Master runtime switch of the default registry. Engines built while the
  /// registry is disabled cache null instrument pointers and skip every
  /// update; configure telemetry BEFORE building engines.
  bool enabled = true;
  /// TraceRing capacity in events (rounded up to a power of two, min 8).
  size_t trace_capacity = 1024;
  /// Histogram sampling period for per-batch observations: subsystems
  /// record every Nth sample (1 = record all). Counters and gauges are
  /// never sampled — they are O(1) relaxed atomics.
  size_t sample_every = 1;
  /// Host the live observability endpoint (telemetry/http_server.h): when
  /// true, servers/examples arm an HttpServer over the default registry
  /// serving /metrics, /snapshot, /trace, /explain, /queries and /healthz.
  bool serve = false;
  /// TCP port of the endpoint on 127.0.0.1; 0 binds an ephemeral port
  /// (the bound port is reported by HttpServer::port()).
  uint16_t http_port = 0;
};

/// Steady-clock now in nanoseconds — the time base of arrival stamps, e2e
/// latency histograms and trace wall-clock stamps. Mapped to system time
/// through the registry's ClockAnchor at export time.
uint64_t SteadyNowNs() noexcept;

/// A (steady, system) clock pair captured at the same instant, recorded by
/// MetricRegistry::Configure: system_ns + (steady_sample - steady_ns) maps
/// any steady-clock stamp to wall-clock time for ISO-8601 rendering in the
/// exporters. Zero-initialized until the first Configure.
struct ClockAnchor {
  int64_t steady_ns = 0;
  int64_t system_ns = 0;

  bool valid() const noexcept { return system_ns != 0; }
  /// Maps a steady-clock stamp (ns) onto the system clock (ns since epoch).
  int64_t ToSystemNs(uint64_t steady_sample_ns) const noexcept {
    return system_ns + (static_cast<int64_t>(steady_sample_ns) - steady_ns);
  }
};

// ----------------------------------------------------------- instruments
//
// All instruments are updatable from any thread with relaxed atomics and
// aggregated only at scrape time. Counters are sharded across cache-line
// separated cells (indexed by a thread-local slot) so concurrent shard
// workers never contend on one line; Value() sums the cells.

/// Small per-thread slot id used to spread counter updates across cells.
size_t ThreadSlot() noexcept;

class Counter {
 public:
  static constexpr size_t kCells = 8;  // power of two

  void Add(uint64_t n) noexcept {
    cells_[ThreadSlot() & (kCells - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  /// Explicit cell hint (e.g. a shard index) when the caller knows a better
  /// spread than the thread id.
  void AddAt(size_t slot, uint64_t n) noexcept {
    cells_[slot & (kCells - 1)].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const noexcept {
    uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() noexcept {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kCells> cells_;
};

/// Last-value gauge holding a double (bit-cast through u64 so the atomic is
/// always lock-free).
class Gauge {
 public:
  void Set(double v) noexcept { bits_.store(Pack(v), std::memory_order_relaxed); }

  /// Monotonic maximum (high-watermarks). Relaxed CAS loop; losing a race
  /// to a larger value is fine.
  void SetMax(double v) noexcept {
    uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (Unpack(cur) < v &&
           !bits_.compare_exchange_weak(cur, Pack(v),
                                        std::memory_order_relaxed)) {
    }
  }

  double Value() const noexcept {
    return Unpack(bits_.load(std::memory_order_relaxed));
  }

  void Reset() noexcept { bits_.store(0, std::memory_order_relaxed); }

 private:
  static uint64_t Pack(double v) noexcept {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double Unpack(uint64_t bits) noexcept {
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::atomic<uint64_t> bits_{0};  // Pack(0.0) == 0
};

/// Fixed log2-bucketed histogram for latencies (ns) and sizes: bucket i
/// counts samples whose value has bit-width i, i.e. v in [2^(i-1), 2^i).
/// Recording is one relaxed add into a bucket plus sum/count; scraping
/// reads everything relaxed (counts may be momentarily ahead of sum — the
/// exporters treat a snapshot as approximate by design).
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(uint64_t v) noexcept {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kBuckets> buckets{};

    double Mean() const {
      return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                       : 0.0;
    }
    /// Upper bound of the bucket holding quantile `q` (0..1): a coarse
    /// (factor-of-two) percentile good enough for dashboards.
    uint64_t Quantile(double q) const;
  };

  Snapshot Snap() const noexcept {
    Snapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kBuckets; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

  void Reset() noexcept {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (std::atomic<uint64_t>& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
  }

  /// Inclusive upper bound of bucket `i` (2^i - 1; bucket 0 holds v == 0).
  static uint64_t BucketUpperBound(size_t i) noexcept {
    return i >= 63 ? UINT64_MAX : (uint64_t{1} << i) - 1;
  }

 private:
  static size_t BucketOf(uint64_t v) noexcept {
    size_t width = 0;
    while (v != 0) {
      ++width;
      v >>= 1;
    }
    return width < kBuckets ? width : kBuckets - 1;
  }

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// ------------------------------------------------------------- trace ring
//
// Bounded lock-free ring of structured lifecycle events. Writers claim a
// ticket with one fetch_add and publish through a per-slot sequence word
// (odd = being written, even = complete, encodes the ticket); the payload
// itself is stored in relaxed atomic words, so concurrent scrape never
// reads a torn event — a slot whose sequence moved mid-read is skipped.
// When the ring laps, the oldest events are overwritten (a trace is a tail,
// not a log).

enum class TraceKind : uint8_t {
  kNone = 0,
  kWindowClose,       // wid, a=rows emitted, b=vertices delta
  kWatermarkAdvance,  // ts=new watermark, a=lag behind ingest clock
  kPanePurge,         // ts=purge horizon, a=tracked bytes after purge
  kShardStall,        // shard, a=queue depth at stall
};

const char* TraceKindName(TraceKind kind);

/// One decoded trace event. `a`/`b` and `x`/`y` are kind-specific (see the
/// TraceKind comments); unused fields are zero.
struct TraceEvent {
  uint64_t seq = 0;  // global emission order (ring ticket)
  TraceKind kind = TraceKind::kNone;
  uint16_t shard = 0;
  uint32_t cluster = 0;
  int64_t ts = 0;   // stream time of the event
  int64_t wid = 0;  // window id, when meaningful
  uint64_t a = 0;
  uint64_t b = 0;
  double x = 0.0;
  double y = 0.0;
  /// Steady-clock emission stamp (SteadyNowNs), filled by TraceRing::Emit —
  /// callers never set it. Exporters map it to wall-clock ISO-8601 through
  /// the registry's ClockAnchor.
  uint64_t when_ns = 0;
};

class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Emit(const TraceEvent& e) noexcept;

  /// Decodes the surviving events, oldest first. Concurrent-safe; events
  /// half-written or overwritten during the walk are skipped.
  std::vector<TraceEvent> Snapshot() const;

  uint64_t total_emitted() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  size_t capacity() const noexcept { return slots_.size(); }

  /// Zeroes the ring. Quiescent-only (no concurrent Emit).
  void Reset() noexcept;

 private:
  // 9 atomic words: [0] seq, [1] kind|shard|cluster, [2] ts, [3] wid,
  // [4] a, [5] b, [6] bits(x), [7] bits(y), [8] when_ns. 72 bytes,
  // alignas pads to two cache lines — fine for a lifecycle-rate ring.
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};  // 0 = never written
    std::array<std::atomic<uint64_t>, 8> w{};
  };

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  std::atomic<uint64_t> next_{0};
};

// --------------------------------------------------------------- registry

/// Process-wide registry of named instruments. Names follow the Prometheus
/// convention `greta_<layer>_<what>` with optional labels appended as
/// `{key="value",...}` (see Labeled()); the full string is the identity.
/// Get* is lookup-or-create under a mutex — call it at construction time
/// and cache the returned pointer, which stays valid for the registry's
/// lifetime. The hot path then touches only the instrument's atomics.
class MetricRegistry {
 public:
  MetricRegistry();

  /// The process-wide default registry every subsystem instruments into.
  static MetricRegistry& Default();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Null when telemetry is compiled out or the registry is runtime-
  /// disabled; the instrument otherwise. The construction-time gate every
  /// subsystem uses for its cached pointers.
  Counter* CounterIf(std::string_view name) {
    return Armed() ? GetCounter(name) : nullptr;
  }
  Gauge* GaugeIf(std::string_view name) {
    return Armed() ? GetGauge(name) : nullptr;
  }
  Histogram* HistogramIf(std::string_view name) {
    return Armed() ? GetHistogram(name) : nullptr;
  }
  TraceRing* TraceIf() { return Armed() ? &trace() : nullptr; }

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Compile-time AND runtime gate.
  bool Armed() const noexcept { return GRETA_TELEMETRY != 0 && enabled(); }

  /// Applies a TelemetryOptions block: enabled flag, trace capacity
  /// (re-allocates the ring — quiescent-only), sampling period.
  void Configure(const TelemetryOptions& options);

  size_t sample_every() const noexcept {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// The steady→system mapping captured at construction and re-captured by
  /// every Configure() — the wall-clock base of trace timestamps.
  ClockAnchor clock_anchor() const;

  TraceRing& trace();

  /// Zeroes every instrument and the trace ring (benches and tests isolate
  /// runs this way). Quiescent-only. Registered names survive — cached
  /// pointers stay valid.
  void Reset();

  // Scrape API (exporters): stable registration order.
  struct CounterSample {
    std::string name;
    uint64_t value;
  };
  struct GaugeSample {
    std::string name;
    double value;
  };
  struct HistogramSample {
    std::string name;
    Histogram::Snapshot snap;
  };
  std::vector<CounterSample> ScrapeCounters() const;
  std::vector<GaugeSample> ScrapeGauges() const;
  std::vector<HistogramSample> ScrapeHistograms() const;

 private:
  template <typename T>
  struct Named {
    std::string name;
    // deque: stable addresses under growth.
    T instrument;
  };

  mutable std::mutex mu_;
  std::deque<Named<Counter>> counters_;
  std::deque<Named<Gauge>> gauges_;
  std::deque<Named<Histogram>> histograms_;
  std::unique_ptr<TraceRing> trace_;
  ClockAnchor anchor_;  // guarded by mu_
  std::atomic<bool> enabled_{true};
  std::atomic<size_t> sample_every_{1};
};

/// `base{key="index"}` — the labeled-instrument naming helper.
std::string Labeled(std::string_view base, std::string_view key,
                    size_t index);

}  // namespace greta::telemetry

// ------------------------------------------------------ hot-path macros
//
// Call sites cache instrument pointers (null when disarmed) and wrap every
// update in these macros so -DGRETA_TELEMETRY=0 removes the code entirely.

#if GRETA_TELEMETRY
#define GRETA_TM(stmt) \
  do {                 \
    stmt;              \
  } while (0)
#else
#define GRETA_TM(stmt) \
  do {                 \
  } while (0)
#endif

#define GRETA_TM_ADD(counter, n) \
  GRETA_TM(if ((counter) != nullptr) (counter)->Add(n))
#define GRETA_TM_SET(gauge, v) \
  GRETA_TM(if ((gauge) != nullptr) (gauge)->Set(v))
#define GRETA_TM_SETMAX(gauge, v) \
  GRETA_TM(if ((gauge) != nullptr) (gauge)->SetMax(v))
#define GRETA_TM_RECORD(hist, v) \
  GRETA_TM(if ((hist) != nullptr) (hist)->Record(v))
#define GRETA_TM_TRACE(ring, event) \
  GRETA_TM(if ((ring) != nullptr) (ring)->Emit(event))

#endif  // GRETA_TELEMETRY_TELEMETRY_H_
