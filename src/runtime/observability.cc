#include "runtime/observability.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "runtime/sharded_runtime.h"

namespace greta::runtime {

namespace {

void AppendKV(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

const sharing::QueryCluster* ClusterOf(const sharing::SharingPlan* plan,
                                       size_t query_id, size_t* index) {
  if (plan == nullptr) return nullptr;
  for (size_t i = 0; i < plan->clusters.size(); ++i) {
    for (size_t qid : plan->clusters[i].query_ids) {
      if (qid == query_id) {
        *index = i;
        return &plan->clusters[i];
      }
    }
  }
  return nullptr;
}

// The estimated-vs-observed join for one query, shared by the JSON and the
// human rendering. Observed structural cost per event mirrors the planner's
// unit: graph work (vertices + edges) per routed event.
struct QueryReport {
  bool valid = false;
  QueryExecStats observed;
  double observed_cost_per_event = 0.0;
  const sharing::QueryCluster* cluster = nullptr;  // null: single-query
  size_t cluster_index = 0;
  // The grid the merger releases the query's rows on; "union" flags a gate
  // that is not the query's own window (no execution mode has one).
  WindowSpec emission;
  bool own_grid = true;
};

const char* GridName(bool own_grid) { return own_grid ? "own" : "union"; }

// "within":W,"slide":S — null for an unbounded window.
void AppendWindowJson(std::string* out, const WindowSpec& w) {
  if (w.unbounded()) {
    *out += "\"within\":null,\"slide\":null";
    return;
  }
  AppendKV(out, "\"within\":%lld,\"slide\":%lld",
           static_cast<long long>(w.within), static_cast<long long>(w.slide));
}

QueryReport BuildReport(const ShardedRuntime& runtime, size_t query_id) {
  QueryReport r;
  std::vector<QueryExecStats> all = runtime.WorkloadQueryExecStats();
  if (query_id >= all.size()) return r;
  r.valid = true;
  r.observed = all[query_id];
  if (r.observed.events_routed > 0) {
    r.observed_cost_per_event =
        static_cast<double>(r.observed.vertices_created +
                            r.observed.edges_traversed) /
        static_cast<double>(r.observed.events_routed);
  }
  r.emission = runtime.emission_window(query_id);
  const WindowSpec& own = runtime.query_window(query_id);
  r.own_grid = r.emission.within == own.within && r.emission.slide == own.slide;
  r.cluster = ClusterOf(runtime.sharing_plan(), query_id, &r.cluster_index);
  return r;
}

void AppendReportJson(std::string* out, const QueryReport& r) {
  AppendKV(out,
           "{\"query_id\":%zu,\"observed\":{\"windows_closed\":%zu,"
           "\"events_routed\":%zu,\"vertices_created\":%zu,"
           "\"edges_traversed\":%zu,\"rows_emitted\":%zu,\"emit_ns\":%llu,"
           "\"cost_per_event\":%.4f}",
           r.observed.query_id, r.observed.windows_closed,
           r.observed.events_routed, r.observed.vertices_created,
           r.observed.edges_traversed, r.observed.rows_emitted,
           static_cast<unsigned long long>(r.observed.emit_ns),
           r.observed_cost_per_event);
  *out += ",\"emission\":{";
  AppendWindowJson(out, r.emission);
  AppendKV(out, ",\"grid\":\"%s\"}", GridName(r.own_grid));
  if (r.cluster != nullptr) {
    AppendKV(out,
             ",\"cluster\":{\"index\":%zu,\"queries\":%zu,\"shared\":%s,"
             "\"partial\":%s,\"estimated_shared_cost_per_event\":%.4f,"
             "\"estimated_independent_cost_per_event\":%.4f}",
             r.cluster_index, r.cluster->query_ids.size(),
             r.cluster->shared ? "true" : "false",
             r.cluster->partial ? "true" : "false", r.cluster->shared_cost,
             r.cluster->independent_cost);
  }
  *out += "}";
}

}  // namespace

std::string QueryReportsJson(const ShardedRuntime& runtime) {
  std::string out = "[";
  const size_t nq = runtime.num_queries();
  for (size_t q = 0; q < nq; ++q) {
    if (q > 0) out += ",";
    AppendReportJson(&out, BuildReport(runtime, q));
  }
  out += "]";
  return out;
}

std::string QueryReportJson(const ShardedRuntime& runtime, size_t query_id) {
  QueryReport r = BuildReport(runtime, query_id);
  if (!r.valid) return "";
  std::string out;
  AppendReportJson(&out, r);
  return out;
}

std::string ExplainAnalyze(const ShardedRuntime& runtime, size_t query_id) {
  QueryReport r = BuildReport(runtime, query_id);
  if (!r.valid) return "unknown query\n";
  std::string out;
  AppendKV(&out, "== EXPLAIN ANALYZE query %zu ==\n", query_id);
  AppendKV(&out,
           "observed:  windows_closed=%zu events_routed=%zu "
           "vertices_created=%zu edges_traversed=%zu rows_emitted=%zu "
           "emit_ms=%.3f\n",
           r.observed.windows_closed, r.observed.events_routed,
           r.observed.vertices_created, r.observed.edges_traversed,
           r.observed.rows_emitted,
           static_cast<double>(r.observed.emit_ns) / 1e6);
  AppendKV(&out, "observed structural cost/event: %.4f\n",
           r.observed_cost_per_event);
  if (r.emission.unbounded()) {
    AppendKV(&out, "emission:  grid=%s unbounded (rows at Flush)\n",
             GridName(r.own_grid));
  } else {
    AppendKV(&out, "emission:  grid=%s within=%lld slide=%lld\n",
             GridName(r.own_grid), static_cast<long long>(r.emission.within),
             static_cast<long long>(r.emission.slide));
  }
  if (r.cluster != nullptr) {
    AppendKV(&out,
             "plan:      cluster %zu (%zu queries, %s%s) estimated "
             "cost/event shared=%.4f independent=%.4f\n",
             r.cluster_index, r.cluster->query_ids.size(),
             r.cluster->shared ? "SHARED" : "DEDICATED",
             r.cluster->partial ? ", partial" : "", r.cluster->shared_cost,
             r.cluster->independent_cost);
  } else {
    out += "plan:      single-query workload (no sharing layer)\n";
  }
  return out;
}

void AttachRuntimeObservability(telemetry::HttpServer* server,
                                ShardedRuntime* runtime) {
  using Response = telemetry::HttpServer::Response;
  server->SetHandler("/healthz", [runtime](const std::string&) {
    HealthReport report = runtime->CheckHealth();
    return Response{report.healthy ? 200 : 503, "application/json",
                    report.ToJson()};
  });
  server->SetHandler("/queries", [runtime](const std::string& rest) {
    if (rest.empty() || rest == "/") {
      return Response{200, "application/json", QueryReportsJson(*runtime)};
    }
    char* end = nullptr;
    const unsigned long id = std::strtoul(rest.c_str() + 1, &end, 10);
    if (end == rest.c_str() + 1 || *end != '\0') {
      return Response{404, "text/plain", "bad query id\n"};
    }
    std::string body = QueryReportJson(*runtime, static_cast<size_t>(id));
    if (body.empty()) {
      return Response{404, "text/plain", "unknown query\n"};
    }
    return Response{200, "application/json", body};
  });
}

}  // namespace greta::runtime
