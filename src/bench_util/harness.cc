#include "bench_util/harness.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "telemetry/telemetry.h"

namespace greta::bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg.substr(2)] = "true";
    } else {
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

namespace {

// A value the whole string does not spell (trailing garbage, empty, out of
// range) aborts: "--rate=1e3" must not silently run at rate 1.
[[noreturn]] void BadNumber(const std::string& key, const std::string& value) {
  std::fprintf(stderr, "--%s: malformed number '%s'\n", key.c_str(),
               value.c_str());
  std::abort();
}

}  // namespace

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const char* begin = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    BadNumber(key, it->second);
  }
  return value;
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const char* begin = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    BadNumber(key, it->second);
  }
  return value;
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return it->second != "false" && it->second != "0";
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("  ");
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : "";
      std::printf("%-*s  ", static_cast<int>(widths[i]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::vector<std::string> rule;
  rule.reserve(widths.size());
  for (size_t w : widths) rule.push_back(std::string(w, '-'));
  print_row(rule);
  for (const auto& row : rows_) print_row(row);
}

std::vector<EngineSlot> MakeAllEngines(const Catalog* catalog,
                                       const QuerySpec& spec,
                                       size_t baseline_budget) {
  std::vector<EngineSlot> slots;
  auto add = [&](const char* name, auto built) {
    EngineSlot slot{name, nullptr, built.status()};
    if (built.ok()) {
      slot.engine = std::move(built).value();
    } else {
      std::fprintf(stderr, "%s: %s\n", name, slot.status.ToString().c_str());
    }
    slots.push_back(std::move(slot));
  };
  EngineOptions greta_options;
  greta_options.counter_mode = CounterMode::kModular;
  add("GRETA", GretaEngine::Create(catalog, spec.Clone(), greta_options));
  TwoStepOptions two_step;
  two_step.counter_mode = CounterMode::kModular;
  two_step.work_budget = baseline_budget;
  add("SASE", SaseEngine::Create(catalog, spec.Clone(), two_step));
  add("CET", CetEngine::Create(catalog, spec.Clone(), two_step));
  add("Flink-flat", FlinkFlatEngine::Create(catalog, spec.Clone(), two_step));
  return slots;
}

std::string ProvenanceJson() {
  std::string sha = "unknown";
  if (FILE* git = popen("git describe --always --dirty --abbrev=40 2>/dev/null",
                        "r")) {
    char buf[128] = {0};
    if (std::fgets(buf, sizeof(buf), git) != nullptr && buf[0] != '\0') {
      sha = buf;
      sha.erase(sha.find_last_not_of("\n") + 1);
    }
    pclose(git);
  }
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(": ") != line.npos) {
      cpu = line.substr(line.find(": ") + 2);
      break;
    }
  }
  return "{\"git_sha\":\"" + sha + "\",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu_model\":\"" + cpu + "\",\"build_type\":\"" +
         GRETA_BENCH_BUILD_TYPE + "\",\"greta_telemetry\":" +
         (GRETA_TELEMETRY ? "true" : "false") + "}";
}

void PrintHeader(const std::string& figure, const std::string& description,
                 const std::string& expectation) {
  std::printf("\n=== %s ===\n%s\nPaper shape: %s\n\n", figure.c_str(),
              description.c_str(), expectation.c_str());
}

}  // namespace greta::bench
