#include "bench_util/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <vector>

#include "core/engine.h"
#include "runtime/sharded_runtime.h"
#include "sharing/shared_engine.h"
#include "telemetry/exporters.h"
#include "telemetry/telemetry.h"

namespace greta::bench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string Format(double value, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g%s", value, suffix);
  return buf;
}

// Arrival→emit samples for one run: one sample per drain that returned at
// least one result row, measured from the ingest tick of the work just
// submitted. Exact nearest-rank percentiles (the telemetry histograms are
// log2-bucketed; the bench wants precise numbers).
class LatencySamples {
 public:
  void Record(double ms) { samples_ms_.push_back(ms); }

  void Finish(RunResult* result) {
    result->latency_samples = samples_ms_.size();
    if (samples_ms_.empty()) return;
    std::sort(samples_ms_.begin(), samples_ms_.end());
    result->latency_p50_ms = Percentile(0.50);
    result->latency_p95_ms = Percentile(0.95);
    result->latency_p99_ms = Percentile(0.99);
  }

 private:
  double Percentile(double q) const {
    const size_t n = samples_ms_.size();
    size_t rank = static_cast<size_t>(q * static_cast<double>(n) + 0.999999);
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    return samples_ms_[rank - 1];
  }

  std::vector<double> samples_ms_;
};

}  // namespace

size_t NumQueries(const EngineInterface& engine) {
  if (auto* g = dynamic_cast<const GretaEngine*>(&engine)) {
    return g->num_queries();
  }
  if (auto* s = dynamic_cast<const sharing::SharedWorkloadEngine*>(&engine)) {
    return s->num_queries();
  }
  if (auto* r = dynamic_cast<const runtime::ShardedRuntime*>(&engine)) {
    return r->num_queries();
  }
  return 1;
}

std::vector<ResultRow> TakeQueryResults(EngineInterface* engine, size_t q) {
  if (auto* g = dynamic_cast<GretaEngine*>(engine)) {
    return g->TakeResultsFor(q);
  }
  if (auto* s = dynamic_cast<sharing::SharedWorkloadEngine*>(engine)) {
    return s->TakeResults(q);
  }
  if (auto* r = dynamic_cast<runtime::ShardedRuntime*>(engine)) {
    return r->TakeResults(q);
  }
  return engine->TakeResults();
}

const AggPlan& QueryAggPlan(const EngineInterface& engine, size_t q) {
  if (auto* g = dynamic_cast<const GretaEngine*>(&engine)) {
    const ExecPlan& plan = g->plan();
    return plan.query_aggs.empty() ? plan.agg : plan.query_aggs[q];
  }
  if (auto* s = dynamic_cast<const sharing::SharedWorkloadEngine*>(&engine)) {
    return s->agg_plan_for(q);
  }
  if (auto* r = dynamic_cast<const runtime::ShardedRuntime*>(&engine)) {
    return r->agg_plan_for(q);
  }
  return engine.agg_plan();
}

RunResult RunStream(EngineInterface* engine, const Stream& stream,
                    size_t batch_size, std::vector<ResultRow>* rows,
                    QueryRows* query_rows) {
  RunResult result;
  result.engine = engine->name();
  LatencySamples latency;
  if (query_rows != nullptr) query_rows->resize(NumQueries(*engine));
  auto keep = [&](std::vector<ResultRow> out, std::vector<ResultRow>* to) {
    result.rows_emitted += out.size();
    if (to != nullptr) {
      to->insert(to->end(), std::make_move_iterator(out.begin()),
                 std::make_move_iterator(out.end()));
    }
  };
  auto drain = [&](Clock::time_point arrival) {
    const size_t before = result.rows_emitted;
    if (query_rows == nullptr) {
      keep(engine->TakeResults(), rows);
    } else {
      for (size_t q = 0; q < query_rows->size(); ++q) {
        keep(TakeQueryResults(engine, q), &(*query_rows)[q]);
      }
    }
    if (result.rows_emitted > before) {
      latency.Record(SecondsSince(arrival) * 1e3);
    }
  };
  const Clock::time_point run_start = Clock::now();
  EventBatch batch;
  const std::vector<Event>& events = stream.events();
  size_t i = 0;
  while (i < events.size() && !engine->stats().dnf) {
    const size_t n =
        std::min(std::max<size_t>(batch_size, 1), events.size() - i);
    Clock::time_point arrival;
    Status s;
    if (batch_size <= 1) {
      arrival = Clock::now();
      s = engine->Process(events[i]);
    } else {
      batch.clear();
      for (size_t k = i; k < i + n; ++k) batch.Append(events[k]);
      arrival = Clock::now();
      // Stamp the batch's arrival column so engines that propagate it (the
      // sharded runtime) fill their e2e latency histograms with real ticks.
      batch.StampArrivals(telemetry::SteadyNowNs());
      s = engine->ProcessBatch(batch);
    }
    if (!s.ok()) {
      result.status = s;
      break;
    }
    result.events_accepted += n;
    i += n;
    drain(arrival);
  }
  Clock::time_point flush_arrival = Clock::now();
  Status flushed = engine->Flush();
  if (result.status.ok()) result.status = flushed;
  drain(flush_arrival);
  result.total_seconds = SecondsSince(run_start);
  latency.Finish(&result);
  result.stats = engine->stats();
  result.dnf = result.stats.dnf;
  result.peak_memory_bytes = result.stats.peak_bytes;
  result.throughput_eps =
      result.total_seconds > 0.0
          ? static_cast<double>(result.events_accepted) / result.total_seconds
          : 0.0;
#if GRETA_TELEMETRY
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  if (reg.Armed()) {
    result.telemetry_json =
        telemetry::ExportJson(reg, /*include_trace=*/false);
  }
#endif
  return result;
}

std::string FormatCount(double value) {
  if (value >= 1e9) return Format(value / 1e9, "G");
  if (value >= 1e6) return Format(value / 1e6, "M");
  if (value >= 1e3) return Format(value / 1e3, "k");
  return Format(value, "");
}

std::string FormatBytes(double bytes) {
  // Thresholds at 1000x the unit keep the mantissa below 1000 (no "1e+03KB").
  if (bytes >= 1000.0 * 1024.0 * 1024.0) {
    return Format(bytes / (1024.0 * 1024.0 * 1024.0), "GB");
  }
  if (bytes >= 1000.0 * 1024.0) return Format(bytes / (1024.0 * 1024.0), "MB");
  if (bytes >= 1000.0) return Format(bytes / 1024.0, "KB");
  return Format(bytes, "B");
}

std::string FormatMillis(double ms) {
  if (ms >= 60000.0) return Format(ms / 60000.0, "min");
  if (ms >= 1000.0) return Format(ms / 1000.0, "s");
  return Format(ms, "ms");
}

std::string RunResult::LatencyCell() const {
  if (dnf) return "DNF";
  if (latency_samples == 0) return "-";
  return FormatMillis(latency_p99_ms);
}

std::string RunResult::MemoryCell() const {
  if (dnf) return "DNF";
  return FormatBytes(static_cast<double>(peak_memory_bytes));
}

std::string RunResult::ThroughputCell() const {
  if (dnf) return "DNF";
  return FormatCount(throughput_eps) + "/s";
}

}  // namespace greta::bench
