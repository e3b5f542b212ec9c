#include "runtime/sharded_runtime.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "storage/window.h"

namespace greta::runtime {

StatusOr<std::unique_ptr<ShardedRuntime>> ShardedRuntime::Create(
    const Catalog* catalog, const std::vector<QuerySpec>& workload,
    const ShardedOptions& options) {
  if (workload.empty()) {
    return Status::InvalidArgument("sharded runtime needs at least one query");
  }
  StatusOr<ShardRouter> router =
      ShardRouter::Create(workload, *catalog, options.num_shards,
                          options.workload.engine);
  if (!router.ok()) return router.status();

  auto rt = std::unique_ptr<ShardedRuntime>(new ShardedRuntime());
  rt->catalog_ = catalog;
  rt->router_ = std::move(router).value();
  rt->options_ = options;
  if (rt->options_.batch_size == 0) rt->options_.batch_size = 1;

  const size_t num_shards = rt->router_.num_shards();
  rt->shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->memory = std::make_unique<MemoryTracker>(&rt->total_memory_);
    if (workload.size() == 1) {
      EngineOptions engine_options = options.workload.engine;
      engine_options.memory = shard->memory.get();
      StatusOr<std::unique_ptr<GretaEngine>> engine =
          GretaEngine::Create(catalog, workload[0], engine_options);
      if (!engine.ok()) return engine.status();
      shard->greta = std::move(engine).value();
    } else {
      sharing::SharedEngineOptions shard_options = options.workload;
      shard_options.engine.memory = shard->memory.get();
      shard_options.telemetry_shard = s;
      StatusOr<std::unique_ptr<sharing::SharedWorkloadEngine>> engine =
          sharing::SharedWorkloadEngine::Create(catalog, workload,
                                                shard_options);
      if (!engine.ok()) return engine.status();
      shard->shared = std::move(engine).value();
    }
    shard->queue = std::make_unique<SpscQueue<Batch>>(
        std::max<size_t>(options.queue_capacity, 2));
    shard->pending.Reserve(rt->options_.batch_size);
    rt->shards_.push_back(std::move(shard));
  }

  // Emission grids and merge plans come from shard 0's compiled workload
  // (identical on every shard). The merger gates every query on its own
  // window, partial and adaptive clusters included. Each shard's controller
  // may migrate a cluster at different times, but a handover releases both
  // generations' rows at the query's own close (SharedWorkloadEngine), so
  // a shard's clock past that close still means every row of the window
  // is staged, independent of per-shard migration timing.
  const Shard& shard0 = *rt->shards_[0];
  std::vector<WindowSpec> windows;
  std::vector<AggPlan> plans;
  for (size_t q = 0; q < workload.size(); ++q) {
    rt->query_windows_.push_back(workload[q].window);
    if (shard0.greta != nullptr) {
      windows.push_back(shard0.greta->plan().window);
      plans.push_back(shard0.greta->agg_plan());
    } else {
      windows.push_back(shard0.shared->emission_window_bound(q));
      plans.push_back(shard0.shared->agg_plan_for(q));
    }
  }
  rt->merger_ = std::make_unique<ResultMerger>(num_shards, std::move(windows),
                                               std::move(plans));
  rt->next_close_ = rt->NextWindowClose();

#if GRETA_TELEMETRY
  telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Default();
  for (size_t s = 0; s < num_shards; ++s) {
    Shard& shard = *rt->shards_[s];
    shard.tm_depth_hwm = reg.GaugeIf(
        telemetry::Labeled("greta_runtime_queue_depth_hwm", "shard", s));
    shard.tm_stalls = reg.CounterIf(telemetry::Labeled(
        "greta_runtime_producer_stalls_total", "shard", s));
    shard.tm_batch_events = reg.HistogramIf(
        telemetry::Labeled("greta_runtime_batch_events", "shard", s));
    shard.tm_e2e = reg.HistogramIf(
        telemetry::Labeled("greta_runtime_e2e_latency_ns", "shard", s));
  }
  rt->tm_watermark_lag_ = reg.GaugeIf("greta_runtime_watermark_lag");
  rt->tm_watermark_lag_ns_ = reg.GaugeIf("greta_runtime_watermark_lag_ns");
  // Arm router-side arrival stamping when the e2e histograms are live, so
  // scalar Process callers get latency tracking without opting in.
  rt->tm_stamp_arrivals_ = rt->shards_[0]->tm_e2e != nullptr;
  rt->tm_merger_holdback_ =
      reg.GaugeIf("greta_runtime_merger_pending_windows");
  rt->tm_trace_ = reg.TraceIf();
#endif

  ShardedRuntime* raw = rt.get();
  rt->workers_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    rt->workers_.emplace_back([raw, s] { raw->DrainLoop(s); });
  }
  return rt;
}

ShardedRuntime::~ShardedRuntime() {
  shutting_down_.store(true, std::memory_order_release);  // frees paused workers
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (shard->queue != nullptr) shard->queue->Close();
  }
  // The drain loops exit once their queue is closed and empty; join them
  // before shards_/merger_ die.
  for (std::thread& worker : workers_) worker.join();
}

Status ShardedRuntime::Process(const Event& e) {
  if (any_error_.load(std::memory_order_relaxed)) return FirstShardError();
  if (saw_events_ && e.time < clock_) {
    return Status::InvalidArgument(
        "events must arrive in-order by timestamp (Section 2)");
  }
  merger_->ClearFlushed();
  saw_events_ = true;
  clock_ = e.time;
  ++events_processed_;

  RouteOne(e, tm_stamp_arrivals_ ? telemetry::SteadyNowNs() : 0);
  MaybeHeartbeat();
  return Status::Ok();
}

Status ShardedRuntime::ProcessBatch(const EventBatch& batch) {
  if (batch.empty()) return Status::Ok();
  if (any_error_.load(std::memory_order_relaxed)) return FirstShardError();
  if (!batch.time_ordered() ||
      (saw_events_ && batch.time(0) < clock_)) {
    return Status::InvalidArgument(
        "events must arrive in-order by timestamp (Section 2)");
  }
  merger_->ClearFlushed();
  saw_events_ = true;
  // Arrival ticks: propagate the caller's per-row stamps (bench_util's
  // RunStreamBatched stamps at ingest) or, when telemetry wants e2e latency
  // and the batch carries none, stamp the whole batch once now.
  const bool stamped = batch.has_arrivals();
  const uint64_t now_ns =
      (!stamped && tm_stamp_arrivals_) ? telemetry::SteadyNowNs() : 0;
  // Resolve every row's shard up front: the router hashes the shard keys
  // row-wise but runs the avalanche finalization as one bulk column pass
  // over the whole batch (ShardOfRows == ShardOf per row).
  route_scratch_.resize(batch.size());
  router_.ShardOfRows(batch, route_scratch_.data());
  for (size_t i = 0; i < batch.size(); ++i) {
    clock_ = batch.time(i);
    ++events_processed_;
    DeliverRouted(batch.ref(i), stamped ? batch.arrival_ns(i) : now_ns,
                  route_scratch_[i]);
    MaybeHeartbeat();
  }
  return Status::Ok();
}

void ShardedRuntime::RouteOne(const EventRef& e, uint64_t arrival_ns) {
  DeliverRouted(e, arrival_ns, router_.ShardOf(e));
}

void ShardedRuntime::DeliverRouted(const EventRef& e, uint64_t arrival_ns,
                                   int target) {
  // The arrival column must stay row-aligned even if stamping toggles
  // between fills: a pending batch is stamped iff its FIRST row carried a
  // stamp, and a stamped batch records every later row (0 = unknown).
  auto append_row = [&](EventBatch* pending) {
    const bool stamp =
        pending->empty() ? arrival_ns != 0 : pending->has_arrivals();
    pending->Append(e);
    if (stamp) pending->AppendArrival(arrival_ns);
  };
  if (target == ShardRouter::kBroadcast) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      append_row(&shards_[s]->pending);
      if (shards_[s]->pending.size() >= options_.batch_size) {
        FlushShardBatch(s, /*flush=*/false);
      }
    }
  } else if (target >= 0) {
    Shard& shard = *shards_[target];
    append_row(&shard.pending);
    if (shard.pending.size() >= options_.batch_size) {
      FlushShardBatch(static_cast<size_t>(target), /*flush=*/false);
    }
  }
}

void ShardedRuntime::MaybeHeartbeat() {
  const bool heartbeat_due =
      options_.heartbeat_events > 0 &&
      ++events_since_heartbeat_ >= options_.heartbeat_events;
  if (heartbeat_due || clock_ >= next_close_) FlushAllShards();
}

void ShardedRuntime::FlushAllShards() {
  // Watermark-only batches for idle shards: every shard's clock keeps up
  // with the stream, so the low watermark — and emission — advances even
  // when the key distribution starves some shards.
  for (size_t s = 0; s < shards_.size(); ++s) {
    FlushShardBatch(s, /*flush=*/false);
  }
  events_since_heartbeat_ = 0;
  next_close_ = NextWindowClose();
  TelemetryHeartbeat();
}

Ts ShardedRuntime::NextWindowClose() const {
  Ts next = kMaxTs;
  for (size_t q = 0; q < merger_->num_queries(); ++q) {
    next = std::min(next, NextCloseTime(clock_, merger_->emission_window(q)));
  }
  return next;
}

void ShardedRuntime::TelemetryHeartbeat() {
#if GRETA_TELEMETRY
  // Real-clock watermark lag: the worst shard's distance between NOW and
  // the arrival tick of the newest batch it finished, counted only while
  // work is still queued behind it (an idle shard is caught up, not
  // lagging). Complements greta_runtime_watermark_lag, which measures
  // event-time distance.
  if (tm_watermark_lag_ns_ != nullptr) {
    const uint64_t now_ns = telemetry::SteadyNowNs();
    uint64_t worst = 0;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      if (shard->queue->size() == 0) continue;
      const uint64_t done =
          shard->processed_arrival_ns.load(std::memory_order_relaxed);
      if (done != 0 && now_ns > done) worst = std::max(worst, now_ns - done);
    }
    tm_watermark_lag_ns_->Set(static_cast<double>(worst));
  }
  const Ts lw = merger_->low_watermark();
  if (lw <= kMinTs) return;  // no shard published a clock yet
  GRETA_TM_SET(tm_watermark_lag_, static_cast<double>(clock_ - lw));
  if (tm_trace_ != nullptr && lw > tm_last_low_wm_) {
    telemetry::TraceEvent e;
    e.kind = telemetry::TraceKind::kWatermarkAdvance;
    e.ts = lw;
    e.a = static_cast<uint64_t>(clock_ - lw);  // router lead over the fleet
    e.b = shards_.size();
    tm_trace_->Emit(e);
    tm_last_low_wm_ = lw;
  }
#endif
}

void ShardedRuntime::FlushShardBatch(size_t shard_index, bool flush) {
  Shard& shard = *shards_[shard_index];
  Batch batch;
  // Heartbeats on idle shards are frequent: moving an EMPTY pending batch
  // would hand its reserved columns to a throwaway watermark-only Batch, so
  // only a non-empty pending is moved — and immediately re-reserved for the
  // next fill, keeping the router side allocation-free at steady state.
  if (!shard.pending.empty()) {
    batch.events = std::move(shard.pending);
    shard.pending.Reserve(options_.batch_size);
  }
  batch.watermark = clock_;
  batch.flush = flush;
#if GRETA_TELEMETRY
  GRETA_TM_RECORD(shard.tm_batch_events, batch.events.size());
  GRETA_TM_SETMAX(
      shard.tm_depth_hwm,
      static_cast<double>(shard.queue->depth_high_watermark()));
  if (shard.tm_stalls != nullptr) {
    const size_t stalls = shard.queue->producer_stalls();
    if (stalls > shard.tm_stalls_seen) {
      shard.tm_stalls->Add(stalls - shard.tm_stalls_seen);
      shard.tm_stalls_seen = stalls;
    }
  }
  // About to block on a full ring: record the stall before Push parks.
  if (tm_trace_ != nullptr &&
      shard.queue->size() >= shard.queue->capacity()) {
    telemetry::TraceEvent e;
    e.kind = telemetry::TraceKind::kShardStall;
    e.shard = static_cast<uint16_t>(shard_index);
    e.ts = clock_;
    e.a = shard.queue->size();
    e.b = shard.queue->producer_stalls();
    tm_trace_->Emit(e);
  }
#endif
  shard.queue->Push(std::move(batch));
}

Status ShardedRuntime::Flush() {
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    flush_acks_ = 0;
    flush_target_ = shards_.size();
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    FlushShardBatch(s, /*flush=*/true);
  }
  {
    std::unique_lock<std::mutex> lock(flush_mu_);
    flush_cv_.wait(lock, [this] { return flush_acks_ >= flush_target_; });
    flush_target_ = 0;
  }
  merger_->MarkFlushed();
  events_since_heartbeat_ = 0;
  TelemetryHeartbeat();
  return FirstShardError();
}

void ShardedRuntime::DrainLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  Batch batch;
  while (shard.queue->Pop(&batch)) {
    // Test hook: a paused worker parks HERE with the popped batch in hand —
    // its clock freezes while the queue behind it fills, which is exactly
    // the wedged-worker signature the stall detector exists to flag.
    while (shard.paused.load(std::memory_order_acquire) &&
           !shutting_down_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    bool healthy;
    {
      std::lock_guard<std::mutex> lock(shard.snapshot_mu);
      healthy = shard.error.ok();
    }
    if (healthy) {
      // Whole-batch delivery: both engines take their native columnar path
      // (the shared workload engine hands row ranges to its unit engines).
      // Row order within the batch is arrival order.
      Status status = shard.greta != nullptr
                          ? shard.greta->ProcessBatch(batch.events)
                          : shard.shared->ProcessBatch(batch.events);
      if (status.ok()) {
        status = shard.greta != nullptr
                     ? shard.greta->AdvanceWatermark(batch.watermark)
                     : shard.shared->AdvanceWatermark(batch.watermark);
      }
      if (status.ok() && batch.flush) {
        status = shard.greta != nullptr ? shard.greta->Flush()
                                        : shard.shared->Flush();
      }
      const size_t staged = DrainShardResults(shard_index, &shard);
      if (batch.events.has_arrivals()) {
        shard.processed_arrival_ns.store(batch.events.arrival_ns(0),
                                         std::memory_order_relaxed);
        // End-to-end latency, recorded only for batches that emitted rows:
        // arrival at the router -> rows staged for the merger, covering
        // queue wait + processing + emission. Batches that close no window
        // are skipped — they have no result whose latency could be meant.
        if (staged > 0 && shard.tm_e2e != nullptr) {
          const uint64_t now_ns = telemetry::SteadyNowNs();
          const uint64_t arrived = batch.events.arrival_ns(0);
          if (now_ns > arrived && arrived != 0) {
            shard.tm_e2e->Record(now_ns - arrived);
          }
        }
      }
      {
        std::lock_guard<std::mutex> lock(shard.snapshot_mu);
        if (!status.ok()) {
          shard.error = status;
          any_error_.store(true, std::memory_order_relaxed);
        }
        shard.stats_snapshot = shard.greta != nullptr
                                   ? shard.greta->stats()
                                   : shard.shared->stats();
        shard.query_stats_snapshot =
            shard.greta != nullptr ? shard.greta->query_exec_stats()
                                   : shard.shared->query_exec_stats();
        if (shard.shared != nullptr) {
          shard.adapt_snapshot = shard.shared->adaptation_states();
        }
      }
    }
    // Clock and flush ack even when poisoned: a stalled shard would
    // otherwise freeze the low watermark and deadlock Flush. The clock is
    // the batch watermark even for flush batches — publishing kMaxTs would
    // leave a STALE infinity on a shard that lags behind the others after a
    // mid-stream Flush, letting the merger emit a later window without that
    // shard's rows (and then re-emit it). Flush-time completeness is
    // guaranteed by the ack rendezvous + MarkFlushed instead.
    merger_->PublishClock(shard_index, batch.watermark);
    if (batch.flush) {
      std::lock_guard<std::mutex> lock(flush_mu_);
      ++flush_acks_;
      flush_cv_.notify_all();
    }
    batch = Batch();  // drop event storage before blocking on the queue
  }
}

size_t ShardedRuntime::DrainShardResults(size_t shard_index, Shard* shard) {
  const size_t nq = merger_->num_queries();
  size_t staged = 0;
  for (size_t q = 0; q < nq; ++q) {
    std::vector<ResultRow> rows = shard->greta != nullptr
                                      ? shard->greta->TakeResultsFor(q)
                                      : shard->shared->TakeResults(q);
    if (!rows.empty()) {
      staged += rows.size();
      merger_->Stage(shard_index, q, std::move(rows));
    }
  }
  return staged;
}

std::vector<ResultRow> ShardedRuntime::TakeResults() {
  merger_->Merge();
  GRETA_TM_SET(tm_merger_holdback_,
               static_cast<double>(merger_->pending_windows()));
  std::vector<ResultRow> all;
  for (size_t q = 0; q < merger_->num_queries(); ++q) {
    std::vector<ResultRow> rows = merger_->TakeReady(q);
    all.insert(all.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  return all;
}

std::vector<ResultRow> ShardedRuntime::TakeResults(size_t query_id) {
  merger_->Merge();
  GRETA_TM_SET(tm_merger_holdback_,
               static_cast<double>(merger_->pending_windows()));
  return merger_->TakeReady(query_id);
}

const MemoryTracker& ShardedRuntime::shard_memory(size_t shard) const {
  GRETA_CHECK(shard < shards_.size());
  return *shards_[shard]->memory;
}

size_t ShardedRuntime::RecomputeShardTrackedBytes(size_t shard) const {
  GRETA_CHECK(shard < shards_.size());
  const Shard& s = *shards_[shard];
  return s.greta != nullptr ? s.greta->RecomputeTrackedBytes()
                            : s.shared->RecomputeTrackedBytes();
}

std::vector<sharing::AdaptationStats> ShardedRuntime::ShardAdaptationStates(
    size_t shard) const {
  GRETA_CHECK(shard < shards_.size());
  const Shard& s = *shards_[shard];
  if (s.shared == nullptr) return {};
  return s.shared->adaptation_states();
}

ShardedRuntime::ShardQueueStats ShardedRuntime::shard_queue_stats(
    size_t shard) const {
  GRETA_CHECK(shard < shards_.size());
  const SpscQueue<Batch>& q = *shards_[shard]->queue;
  ShardQueueStats out;
  out.capacity = q.capacity();
  out.depth_high_watermark = q.depth_high_watermark();
  out.producer_stalls = q.producer_stalls();
  return out;
}

HealthReport ShardedRuntime::CheckHealth() {
  std::vector<ShardHealthSample> samples;
  samples.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const SpscQueue<Batch>& q = *shards_[s]->queue;
    ShardHealthSample sample;
    sample.shard = s;
    sample.clock = merger_->shard_clock(s);
    sample.queue_size = q.size();
    sample.queue_capacity = q.capacity();
    sample.producer_stalls = q.producer_stalls();
    samples.push_back(sample);
  }
  std::lock_guard<std::mutex> lock(health_mu_);
  return stall_detector_.Observe(samples);
}

std::vector<QueryExecStats> ShardedRuntime::WorkloadQueryExecStats() const {
  std::vector<QueryExecStats> total(merger_->num_queries());
  for (size_t q = 0; q < total.size(); ++q) total[q].query_id = q;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->snapshot_mu);
    for (const QueryExecStats& s : shard->query_stats_snapshot) {
      if (s.query_id >= total.size()) continue;
      QueryExecStats& acc = total[s.query_id];
      acc.windows_closed += s.windows_closed;
      acc.events_routed += s.events_routed;
      acc.vertices_created += s.vertices_created;
      acc.edges_traversed += s.edges_traversed;
      acc.rows_emitted += s.rows_emitted;
      acc.emit_ns += s.emit_ns;
    }
  }
  return total;
}

std::vector<sharing::AdaptationStats> ShardedRuntime::ShardAdaptationSnapshot(
    size_t shard) const {
  GRETA_CHECK(shard < shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard]->snapshot_mu);
  return shards_[shard]->adapt_snapshot;
}

const sharing::SharingPlan* ShardedRuntime::sharing_plan() const {
  const Shard& shard0 = *shards_[0];
  return shard0.shared != nullptr ? &shard0.shared->sharing_plan() : nullptr;
}

void ShardedRuntime::SetShardPausedForTest(size_t shard, bool paused) {
  GRETA_CHECK(shard < shards_.size());
  shards_[shard]->paused.store(paused, std::memory_order_release);
}

size_t ShardedRuntime::TotalMigrations() const {
  size_t n = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->shared != nullptr) n += shard->shared->total_migrations();
  }
  return n;
}

Status ShardedRuntime::FirstShardError() const {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->snapshot_mu);
    if (!shard->error.ok()) return shard->error;
  }
  return Status::Ok();
}

const EngineStats& ShardedRuntime::stats() const {
  EngineStats total;
  total.events_processed = events_processed_;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->snapshot_mu);
    total.AddWork(shard->stats_snapshot);
  }
  total.peak_bytes = total_memory_.peak_bytes();
  stats_ = total;
  return stats_;
}

}  // namespace greta::runtime
