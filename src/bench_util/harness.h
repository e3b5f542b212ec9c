#ifndef GRETA_BENCH_UTIL_HARNESS_H_
#define GRETA_BENCH_UTIL_HARNESS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cet.h"
#include "baselines/flink_flat.h"
#include "baselines/sase.h"
#include "bench_util/metrics.h"
#include "core/engine.h"

namespace greta::bench {

/// Minimal --key=value flag parsing for the end-to-end benchmark binary
/// (bench/e2e/greta_bench.cc); the bench/ binaries take no flags.
class Flags {
 public:
  Flags(int argc, char** argv);

  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Fixed-width text table used to print the figure reproductions.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// One engine of the paper's comparison: its name and the engine, or the
/// status that kept it from building (engine null).
struct EngineSlot {
  std::string name;
  std::unique_ptr<EngineInterface> engine;
  Status status;
};

/// Builds every engine the paper compares (Section 10.1), counting modulo
/// 2^64: GRETA plus the two-step baselines with a work budget, always four
/// slots in that order. A build failure is reported on stderr and kept in
/// its slot.
std::vector<EngineSlot> MakeAllEngines(const Catalog* catalog,
                                       const QuerySpec& spec,
                                       size_t baseline_budget);

/// One JSON object naming where a bench ran: git sha (`git describe
/// --dirty` of the working directory, "unknown" outside a checkout),
/// nproc, CPU model, build type and whether telemetry is compiled in.
std::string ProvenanceJson();

/// Prints the standard figure banner.
void PrintHeader(const std::string& figure, const std::string& description,
                 const std::string& expectation);

}  // namespace greta::bench

#endif  // GRETA_BENCH_UTIL_HARNESS_H_
