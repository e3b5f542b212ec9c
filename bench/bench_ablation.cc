// Ablations of the two load-bearing runtime design choices of the paper
// (Sections 6 and 7):
//  (1) tree-indexed predecessor range queries (Section 7 Vertex Trees) vs.
//      scanning every stored predecessor and filtering;
//  (2) one shared GRETA graph across overlapping sliding windows (Section
//      6, Figure 9(b)) vs. naive per-window sub-graph replication (9(a)).

#include <cstdio>

#include "bench_util/harness.h"
#include "storage/window.h"
#include "workload/linear_road.h"

namespace greta::bench {
namespace {

RunResult RunGreta(const Catalog& catalog, const QuerySpec& spec,
                   const Stream& stream, bool tree_ranges) {
  EngineOptions options;
  options.counter_mode = CounterMode::kModular;
  options.enable_tree_ranges = tree_ranges;
  auto engine_or = GretaEngine::Create(&catalog, spec.Clone(), options);
  GRETA_CHECK(engine_or.ok());
  auto engine = std::move(engine_or).value();
  return RunStream(engine.get(), stream);
}

void TreeVersusScan(const Flags& flags) {
  int64_t events = flags.GetInt("events", 20000);
  double selectivity = flags.GetDouble("selectivity", 0.1);
  Ts within = flags.GetInt("within", 10);

  std::printf("\n--- Ablation 1: Vertex-Tree range query vs. full scan ---\n");
  std::printf(
      "Low-selectivity edge predicate (%.0f%%): the tree touches only "
      "matching predecessors; the scan touches all of them.\n\n",
      selectivity * 100);
  Table table({"predecessor lookup", "time", "throughput", "edges"});
  Catalog catalog;
  LinearRoadConfig config;
  config.num_vehicles = 5;
  config.rate = static_cast<int>(events / within);
  config.duration = within;
  Stream stream = GenerateLinearRoadStream(&catalog, config);
  auto spec = MakeQ3Selectivity(&catalog, within, within, selectivity);
  GRETA_CHECK(spec.ok());
  for (bool tree : {true, false}) {
    RunResult r = RunGreta(catalog, spec.value(), stream, tree);
    table.AddRow({tree ? "B+-tree range query" : "full scan + filter",
                  FormatMillis(r.total_seconds * 1e3), r.ThroughputCell(),
                  FormatCount(static_cast<double>(r.stats.edges_traversed))});
  }
  table.Print();
}

void SharedVersusReplicated(const Flags& flags) {
  int64_t events = flags.GetInt("events", 4000);
  Ts within = flags.GetInt("within", 12);
  Ts slide = flags.GetInt("slide", 2);

  std::printf(
      "\n--- Ablation 2: shared graph across windows vs. replication ---\n");
  std::printf(
      "WITHIN %lld SLIDE %lld (every event in %d windows): sharing stores "
      "each event once with k aggregate slots; replication rebuilds the "
      "sub-graph per window (Figure 9).\n\n",
      static_cast<long long>(within), static_cast<long long>(slide),
      MaxWindowsPerEvent(WindowSpec::Sliding(within, slide)));

  Catalog catalog;
  LinearRoadConfig config;
  config.num_vehicles = 5;
  config.rate = static_cast<int>(events / within);
  config.duration = within * 3;
  Stream stream = GenerateLinearRoadStream(&catalog, config);
  auto spec = MakeQ3Selectivity(&catalog, within, slide, 0.2);
  GRETA_CHECK(spec.ok());

  Table table({"strategy", "time", "vertices stored", "peak mem"});

  RunResult shared = RunGreta(catalog, spec.value(), stream, true);
  table.AddRow({"shared graph (GRETA)",
                FormatMillis(shared.total_seconds * 1e3),
                FormatCount(static_cast<double>(shared.stats.vertices_stored)),
                FormatBytes(static_cast<double>(shared.peak_memory_bytes))});

  // Replication: run one unbounded-window engine per window over that
  // window's sub-stream; costs add up across windows.
  double total_seconds = 0.0;
  size_t vertices = 0;
  size_t peak = 0;
  WindowSpec w = WindowSpec::Sliding(within, slide);
  auto unbounded = MakeQ3Selectivity(&catalog, within, slide, 0.2);
  GRETA_CHECK(unbounded.ok());
  QuerySpec per_window = std::move(unbounded).value();
  per_window.window = WindowSpec::Unbounded();
  for (WindowId wid = 0; wid <= LastWindowOf(stream.max_time(), w); ++wid) {
    Stream sub;
    for (const Event& e : stream.events()) {
      if (e.time >= WindowStartTime(wid, w) &&
          e.time < WindowCloseTime(wid, w)) {
        sub.Append(e);
      }
    }
    if (sub.empty()) continue;
    EngineOptions options;
    options.counter_mode = CounterMode::kModular;
    auto engine_or = GretaEngine::Create(&catalog, per_window.Clone(),
                                         options);
    GRETA_CHECK(engine_or.ok());
    auto engine = std::move(engine_or).value();
    RunResult r = RunStream(engine.get(), sub);
    total_seconds += r.total_seconds;
    vertices += r.stats.vertices_stored;
    peak += r.peak_memory_bytes;  // Windows coexist in a real deployment.
  }
  table.AddRow({"replicated per window", FormatMillis(total_seconds * 1e3),
                FormatCount(static_cast<double>(vertices)),
                FormatBytes(static_cast<double>(peak))});
  table.Print();
}

int Run(const Flags& flags) {
  PrintHeader("Ablation benches",
              "Design choices of the paper's Sections 6 and 7.",
              "Tree ranges beat scans at low selectivity; the shared graph "
              "stores each event once instead of k times.");
  TreeVersusScan(flags);
  SharedVersusReplicated(flags);
  return 0;
}

}  // namespace
}  // namespace greta::bench

int main(int argc, char** argv) {
  return greta::bench::Run(greta::bench::Flags(argc, argv));
}
