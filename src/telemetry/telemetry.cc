#include "telemetry/telemetry.h"

#include <algorithm>
#include <chrono>

namespace greta::telemetry {

size_t ThreadSlot() noexcept {
  static std::atomic<size_t> next{0};
  thread_local size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

uint64_t SteadyNowNs() noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

ClockAnchor CaptureAnchor() {
  ClockAnchor anchor;
  anchor.steady_ns = static_cast<int64_t>(SteadyNowNs());
  anchor.system_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  return anchor;
}

}  // namespace

uint64_t Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen > rank || (seen == count && seen > 0)) {
      return Histogram::BucketUpperBound(i);
    }
  }
  return Histogram::BucketUpperBound(kBuckets - 1);
}

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kNone: return "none";
    case TraceKind::kWindowClose: return "window_close";
    case TraceKind::kWatermarkAdvance: return "watermark_advance";
    case TraceKind::kPanePurge: return "pane_purge";
    case TraceKind::kShardStall: return "shard_stall";
  }
  return "unknown";
}

namespace {

uint64_t PackDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double UnpackDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

size_t RoundUpPow2(size_t n, size_t minimum) {
  size_t cap = minimum;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

TraceRing::TraceRing(size_t capacity)
    : slots_(RoundUpPow2(capacity, 8)) {
  mask_ = slots_.size() - 1;
}

void TraceRing::Emit(const TraceEvent& e) noexcept {
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  // Odd sequence = write in progress; the final even value encodes the
  // ticket so a reader can tell WHICH generation it validated.
  slot.seq.store(ticket * 2 + 1, std::memory_order_release);
  slot.w[0].store(static_cast<uint64_t>(e.kind) |
                      (static_cast<uint64_t>(e.shard) << 16) |
                      (static_cast<uint64_t>(e.cluster) << 32),
                  std::memory_order_relaxed);
  slot.w[1].store(static_cast<uint64_t>(e.ts), std::memory_order_relaxed);
  slot.w[2].store(static_cast<uint64_t>(e.wid), std::memory_order_relaxed);
  slot.w[3].store(e.a, std::memory_order_relaxed);
  slot.w[4].store(e.b, std::memory_order_relaxed);
  slot.w[5].store(PackDouble(e.x), std::memory_order_relaxed);
  slot.w[6].store(PackDouble(e.y), std::memory_order_relaxed);
  // Emission-time wall-clock stamp: traces are lifecycle-rate (window
  // closes, plan decisions), never per-event, so one clock read is cheap.
  slot.w[7].store(e.when_ns != 0 ? e.when_ns : SteadyNowNs(),
                  std::memory_order_relaxed);
  slot.seq.store((ticket + 1) * 2, std::memory_order_release);
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  const uint64_t end = next_.load(std::memory_order_acquire);
  const uint64_t cap = slots_.size();
  const uint64_t begin = end > cap ? end - cap : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (uint64_t ticket = begin; ticket < end; ++ticket) {
    const Slot& slot = slots_[ticket & mask_];
    if (slot.seq.load(std::memory_order_acquire) != (ticket + 1) * 2) {
      continue;  // mid-write or already lapped
    }
    TraceEvent e;
    const uint64_t packed = slot.w[0].load(std::memory_order_relaxed);
    e.seq = ticket;
    e.kind = static_cast<TraceKind>(packed & 0xff);
    e.shard = static_cast<uint16_t>((packed >> 16) & 0xffff);
    e.cluster = static_cast<uint32_t>(packed >> 32);
    e.ts = static_cast<int64_t>(slot.w[1].load(std::memory_order_relaxed));
    e.wid = static_cast<int64_t>(slot.w[2].load(std::memory_order_relaxed));
    e.a = slot.w[3].load(std::memory_order_relaxed);
    e.b = slot.w[4].load(std::memory_order_relaxed);
    e.x = UnpackDouble(slot.w[5].load(std::memory_order_relaxed));
    e.y = UnpackDouble(slot.w[6].load(std::memory_order_relaxed));
    e.when_ns = slot.w[7].load(std::memory_order_relaxed);
    // Re-validate: if the slot moved underneath us the payload may mix
    // generations — drop it.
    if (slot.seq.load(std::memory_order_acquire) != (ticket + 1) * 2) {
      continue;
    }
    out.push_back(e);
  }
  return out;
}

void TraceRing::Reset() noexcept {
  for (Slot& slot : slots_) {
    slot.seq.store(0, std::memory_order_relaxed);
    for (std::atomic<uint64_t>& w : slot.w) {
      w.store(0, std::memory_order_relaxed);
    }
  }
  next_.store(0, std::memory_order_relaxed);
}

MetricRegistry::MetricRegistry()
    : trace_(std::make_unique<TraceRing>(TelemetryOptions{}.trace_capacity)),
      anchor_(CaptureAnchor()) {}

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

Counter* MetricRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Named<Counter>& c : counters_) {
    if (c.name == name) return &c.instrument;
  }
  // emplace + assign: the instruments hold atomics and cannot be moved.
  counters_.emplace_back();
  counters_.back().name = std::string(name);
  return &counters_.back().instrument;
}

Gauge* MetricRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Named<Gauge>& g : gauges_) {
    if (g.name == name) return &g.instrument;
  }
  gauges_.emplace_back();
  gauges_.back().name = std::string(name);
  return &gauges_.back().instrument;
}

Histogram* MetricRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Named<Histogram>& h : histograms_) {
    if (h.name == name) return &h.instrument;
  }
  histograms_.emplace_back();
  histograms_.back().name = std::string(name);
  return &histograms_.back().instrument;
}

void MetricRegistry::Configure(const TelemetryOptions& options) {
  set_enabled(options.enabled);
  sample_every_.store(std::max<size_t>(options.sample_every, 1),
                      std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  anchor_ = CaptureAnchor();
  if (RoundUpPow2(options.trace_capacity, 8) != trace_->capacity()) {
    trace_ = std::make_unique<TraceRing>(options.trace_capacity);
  }
}

ClockAnchor MetricRegistry::clock_anchor() const {
  std::lock_guard<std::mutex> lock(mu_);
  return anchor_;
}

TraceRing& MetricRegistry::trace() {
  std::lock_guard<std::mutex> lock(mu_);
  return *trace_;
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Named<Counter>& c : counters_) c.instrument.Reset();
  for (Named<Gauge>& g : gauges_) g.instrument.Reset();
  for (Named<Histogram>& h : histograms_) h.instrument.Reset();
  trace_->Reset();
}

std::vector<MetricRegistry::CounterSample> MetricRegistry::ScrapeCounters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CounterSample> out;
  out.reserve(counters_.size());
  for (const Named<Counter>& c : counters_) {
    out.push_back({c.name, c.instrument.Value()});
  }
  return out;
}

std::vector<MetricRegistry::GaugeSample> MetricRegistry::ScrapeGauges()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<GaugeSample> out;
  out.reserve(gauges_.size());
  for (const Named<Gauge>& g : gauges_) {
    out.push_back({g.name, g.instrument.Value()});
  }
  return out;
}

std::vector<MetricRegistry::HistogramSample>
MetricRegistry::ScrapeHistograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistogramSample> out;
  out.reserve(histograms_.size());
  for (const Named<Histogram>& h : histograms_) {
    out.push_back({h.name, h.instrument.Snap()});
  }
  return out;
}

std::string Labeled(std::string_view base, std::string_view key,
                    size_t index) {
  std::string out(base);
  out += '{';
  out += key;
  out += "=\"";
  out += std::to_string(index);
  out += "\"}";
  return out;
}

}  // namespace greta::telemetry
