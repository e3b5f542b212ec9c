#include "workload/spec.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <utility>

#include "query/parser.h"

namespace greta::workload {

namespace {

// ------------------------------------------------------------------ JSON
// Minimal recursive-descent JSON parser — the toolchain bakes in no JSON
// library and the container must not grow one, so workload files are read
// by this ~150-line subset (objects, arrays, strings with the common
// escapes, numbers, booleans, null). Errors carry byte offsets.

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;                          // kArray
  std::vector<std::pair<std::string, Json>> fields;  // kObject, file order

  const Json* Find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<Json> Parse() {
    StatusOr<Json> value = ParseValue();
    if (!value.ok()) return value;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::ParseError("workload spec JSON, byte " +
                              std::to_string(pos_) + ": " + message);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<Json> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      StatusOr<std::string> s = ParseString();
      if (!s.ok()) return s.status();
      Json out;
      out.kind = Json::Kind::kString;
      out.str = std::move(s).value();
      return out;
    }
    if (c == 't' || c == 'f') return ParseKeyword(c == 't');
    if (c == 'n') {
      if (text_.substr(pos_, 4) != "null") return Error("expected 'null'");
      pos_ += 4;
      return Json{};
    }
    return ParseNumber();
  }

  StatusOr<Json> ParseKeyword(bool value) {
    std::string_view word = value ? "true" : "false";
    if (text_.substr(pos_, word.size()) != word) {
      return Error("expected 'true' or 'false'");
    }
    pos_ += word.size();
    Json out;
    out.kind = Json::Kind::kBool;
    out.boolean = value;
    return out;
  }

  StatusOr<Json> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Error("malformed number '" + token + "'");
    }
    Json out;
    out.kind = Json::Kind::kNumber;
    out.number = value;
    return out;
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          default:
            return Error(std::string("unsupported escape '\\") + esc + "'");
        }
      } else {
        out += c;
      }
    }
    return Error("unterminated string");
  }

  StatusOr<Json> ParseArray() {
    if (!Consume('[')) return Error("expected '['");
    Json out;
    out.kind = Json::Kind::kArray;
    if (Consume(']')) return out;
    for (;;) {
      StatusOr<Json> item = ParseValue();
      if (!item.ok()) return item.status();
      out.items.push_back(std::move(item).value());
      if (Consume(']')) return out;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<Json> ParseObject() {
    if (!Consume('{')) return Error("expected '{'");
    Json out;
    out.kind = Json::Kind::kObject;
    if (Consume('}')) return out;
    for (;;) {
      SkipSpace();
      StatusOr<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      if (!Consume(':')) return Error("expected ':' after object key");
      StatusOr<Json> value = ParseValue();
      if (!value.ok()) return value.status();
      out.fields.emplace_back(std::move(key).value(),
                              std::move(value).value());
      if (Consume('}')) return out;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// ------------------------------------------------------- field extraction

Status ExpectKeys(const Json& object, const std::string& block,
                  std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : object.fields) {
    (void)value;
    bool known = false;
    for (const char* a : allowed) known |= (key == a);
    if (!known) {
      return Status::InvalidArgument("workload spec: unknown key '" + key +
                                     "' in " + block);
    }
  }
  return Status::Ok();
}

Status ReadInt(const Json& object, const char* key, int64_t* out) {
  const Json* v = object.Find(key);
  if (v == nullptr) return Status::Ok();
  // The range test also keeps the cast below defined (|number| < 2^63).
  if (v->kind != Json::Kind::kNumber ||
      v->number != std::floor(v->number) || !(v->number > -0x1p63) ||
      !(v->number < 0x1p63)) {
    return Status::InvalidArgument(std::string("workload spec: '") + key +
                                   "' must be an integer");
  }
  *out = static_cast<int64_t>(v->number);
  return Status::Ok();
}

Status ReadSize(const Json& object, const char* key, size_t* out) {
  int64_t value = static_cast<int64_t>(*out);
  Status s = ReadInt(object, key, &value);
  if (!s.ok()) return s;
  if (value < 0) {
    return Status::InvalidArgument(std::string("workload spec: '") + key +
                                   "' must be non-negative");
  }
  *out = static_cast<size_t>(value);
  return Status::Ok();
}

Status ReadDouble(const Json& object, const char* key, double* out) {
  const Json* v = object.Find(key);
  if (v == nullptr) return Status::Ok();
  if (v->kind != Json::Kind::kNumber) {
    return Status::InvalidArgument(std::string("workload spec: '") + key +
                                   "' must be a number");
  }
  *out = v->number;
  return Status::Ok();
}

Status ReadBool(const Json& object, const char* key, bool* out) {
  const Json* v = object.Find(key);
  if (v == nullptr) return Status::Ok();
  if (v->kind != Json::Kind::kBool) {
    return Status::InvalidArgument(std::string("workload spec: '") + key +
                                   "' must be true or false");
  }
  *out = v->boolean;
  return Status::Ok();
}

Status ReadEngine(const Json& block, EngineOptions* engine) {
  Status keys = ExpectKeys(
      block, "\"engine\"",
      {"counter_mode", "semantics", "max_windows_per_event",
       "enable_tree_ranges", "enable_pruning", "enable_specialized_kernels"});
  if (!keys.ok()) return keys;
  if (const Json* v = block.Find("counter_mode"); v != nullptr) {
    if (v->str == "exact") {
      engine->counter_mode = CounterMode::kExact;
    } else if (v->str == "modular") {
      engine->counter_mode = CounterMode::kModular;
    } else {
      return Status::InvalidArgument(
          "workload spec: counter_mode must be \"exact\" or \"modular\"");
    }
  }
  if (const Json* v = block.Find("semantics"); v != nullptr) {
    if (v->str == "skip-till-any-match") {
      engine->semantics = Semantics::kSkipTillAnyMatch;
    } else if (v->str == "skip-till-next-match") {
      engine->semantics = Semantics::kSkipTillNextMatch;
    } else if (v->str == "contiguous") {
      engine->semantics = Semantics::kContiguous;
    } else {
      return Status::InvalidArgument(
          "workload spec: semantics must be \"skip-till-any-match\", "
          "\"skip-till-next-match\" or \"contiguous\"");
    }
  }
  int64_t max_windows = engine->max_windows_per_event;
  Status s = ReadInt(block, "max_windows_per_event", &max_windows);
  if (s.ok()) s = ReadBool(block, "enable_tree_ranges",
                           &engine->enable_tree_ranges);
  if (s.ok()) s = ReadBool(block, "enable_pruning", &engine->enable_pruning);
  if (s.ok()) s = ReadBool(block, "enable_specialized_kernels",
                           &engine->enable_specialized_kernels);
  if (!s.ok()) return s;
  // A vertex stores its window count as int16_t (GraphVertex::num_wids).
  if (max_windows < 1 || max_windows > INT16_MAX) {
    return Status::InvalidArgument(
        "workload spec: 'max_windows_per_event' must be in [1, " +
        std::to_string(INT16_MAX) + "]");
  }
  engine->max_windows_per_event = static_cast<int>(max_windows);
  return Status::Ok();
}

Status ReadSharing(const Json& block, sharing::SharingOptions* sharing) {
  Status keys = ExpectKeys(
      block, "\"sharing\"",
      {"enable_sharing", "enable_partial_sharing", "min_cluster_size"});
  if (!keys.ok()) return keys;
  Status s = ReadBool(block, "enable_sharing", &sharing->enable_sharing);
  if (s.ok()) s = ReadBool(block, "enable_partial_sharing",
                           &sharing->enable_partial_sharing);
  if (s.ok()) s = ReadSize(block, "min_cluster_size",
                           &sharing->min_cluster_size);
  return s;
}

Status ReadAdaptive(const Json& block, sharing::AdaptiveOptions* adaptive) {
  Status keys = ExpectKeys(
      block, "\"adaptive\"",
      {"enabled", "observation_windows", "hysteresis",
       "min_windows_between_migrations", "per_event_cost"});
  if (!keys.ok()) return keys;
  Status s = ReadBool(block, "enabled", &adaptive->enabled);
  if (s.ok()) {
    s = ReadSize(block, "observation_windows",
                 &adaptive->observation_windows);
  }
  if (s.ok()) s = ReadDouble(block, "hysteresis", &adaptive->hysteresis);
  if (s.ok()) {
    s = ReadSize(block, "min_windows_between_migrations",
                 &adaptive->min_windows_between_migrations);
  }
  if (s.ok()) s = ReadDouble(block, "per_event_cost",
                             &adaptive->per_event_cost);
  if (!s.ok()) return s;
  if (adaptive->hysteresis < 1.0) {
    return Status::InvalidArgument(
        "workload spec: adaptive.hysteresis must be >= 1.0");
  }
  if (adaptive->observation_windows == 0) {
    return Status::InvalidArgument(
        "workload spec: adaptive.observation_windows must be >= 1");
  }
  if (adaptive->per_event_cost < 0.0) {
    return Status::InvalidArgument(
        "workload spec: adaptive.per_event_cost must be non-negative");
  }
  return Status::Ok();
}

Status ReadBursts(const Json& array, std::vector<BurstPhase>* bursts) {
  if (array.kind != Json::Kind::kArray) {
    return Status::InvalidArgument(
        "workload spec: \"bursts\" must be an array of phase objects");
  }
  for (const Json& item : array.items) {
    if (item.kind != Json::Kind::kObject) {
      return Status::InvalidArgument(
          "workload spec: every \"bursts\" entry must be an object");
    }
    Status keys = ExpectKeys(
        item, "\"bursts\" entry",
        {"start", "end", "stock_multiplier", "halt_multiplier"});
    if (!keys.ok()) return keys;
    BurstPhase phase;
    int64_t start = 0;
    int64_t end = 0;
    Status s = ReadInt(item, "start", &start);
    if (s.ok()) s = ReadInt(item, "end", &end);
    if (s.ok()) s = ReadDouble(item, "stock_multiplier",
                               &phase.stock_multiplier);
    if (s.ok()) s = ReadDouble(item, "halt_multiplier",
                               &phase.halt_multiplier);
    if (!s.ok()) return s;
    if (end < start || phase.stock_multiplier < 0.0 ||
        phase.halt_multiplier < 0.0) {
      return Status::InvalidArgument(
          "workload spec: burst phase needs end >= start and non-negative "
          "multipliers");
    }
    phase.start = start;
    phase.end = end;
    bursts->push_back(phase);
  }
  return Status::Ok();
}

Status ReadRuntime(const Json& block, runtime::ShardedOptions* options) {
  Status keys = ExpectKeys(
      block, "\"runtime\"",
      {"num_shards", "batch_size", "queue_capacity", "heartbeat_events"});
  if (!keys.ok()) return keys;
  Status s = ReadSize(block, "num_shards", &options->num_shards);
  if (s.ok()) s = ReadSize(block, "batch_size", &options->batch_size);
  if (s.ok()) s = ReadSize(block, "queue_capacity", &options->queue_capacity);
  if (s.ok()) {
    s = ReadSize(block, "heartbeat_events", &options->heartbeat_events);
  }
  return s;
}

Status ReadIngest(const Json& block, IngestOptions* options) {
  Status keys = ExpectKeys(block, "\"ingest\"",
                           {"batch_size", "sort_within_batch"});
  if (!keys.ok()) return keys;
  Status s = ReadSize(block, "batch_size", &options->batch_size);
  if (s.ok()) {
    s = ReadBool(block, "sort_within_batch", &options->sort_within_batch);
  }
  return s;
}

Status ReadTelemetry(const Json& block, telemetry::TelemetryOptions* options) {
  Status keys = ExpectKeys(
      block, "\"telemetry\"",
      {"enabled", "trace_capacity", "sample_every", "serve", "http_port"});
  if (!keys.ok()) return keys;
  Status s = ReadBool(block, "enabled", &options->enabled);
  if (s.ok()) s = ReadSize(block, "trace_capacity", &options->trace_capacity);
  if (s.ok()) s = ReadSize(block, "sample_every", &options->sample_every);
  if (s.ok()) s = ReadBool(block, "serve", &options->serve);
  size_t port = options->http_port;
  if (s.ok()) s = ReadSize(block, "http_port", &port);
  if (!s.ok()) return s;
  if (port > 65535) {
    return Status::InvalidArgument(
        "workload spec: telemetry.http_port must be <= 65535");
  }
  options->http_port = static_cast<uint16_t>(port);
  if (options->sample_every == 0) {
    return Status::InvalidArgument(
        "workload spec: telemetry.sample_every must be >= 1");
  }
  return Status::Ok();
}

Status ReadDataset(const Json& block, std::optional<StockConfig>* stock) {
  const Json* kind = block.Find("kind");
  if (kind == nullptr || kind->kind != Json::Kind::kString) {
    return Status::InvalidArgument(
        "workload spec: \"dataset\" needs a string \"kind\"");
  }
  if (kind->str != "stock") {
    return Status::Unsupported("workload spec: unknown dataset kind '" +
                               kind->str + "' (supported: \"stock\")");
  }
  Status keys = ExpectKeys(
      block, "\"dataset\"",
      {"kind", "seed", "rate", "duration", "num_companies", "num_sectors",
       "drift", "volatility", "start_price", "halt_probability", "bursts"});
  if (!keys.ok()) return keys;
  StockConfig config;
  int64_t seed = static_cast<int64_t>(config.seed);
  int64_t rate = config.rate;
  int64_t duration = config.duration;
  int64_t companies = config.num_companies;
  int64_t sectors = config.num_sectors;
  Status s = ReadInt(block, "seed", &seed);
  if (s.ok()) s = ReadInt(block, "rate", &rate);
  if (s.ok()) s = ReadInt(block, "duration", &duration);
  if (s.ok()) s = ReadInt(block, "num_companies", &companies);
  if (s.ok()) s = ReadInt(block, "num_sectors", &sectors);
  if (s.ok()) s = ReadDouble(block, "drift", &config.drift);
  if (s.ok()) s = ReadDouble(block, "volatility", &config.volatility);
  if (s.ok()) s = ReadDouble(block, "start_price", &config.start_price);
  if (s.ok()) {
    s = ReadDouble(block, "halt_probability", &config.halt_probability);
  }
  if (s.ok()) {
    if (const Json* bursts = block.Find("bursts"); bursts != nullptr) {
      s = ReadBursts(*bursts, &config.bursts);
    }
  }
  if (!s.ok()) return s;
  config.seed = static_cast<uint64_t>(seed);
  config.rate = static_cast<int>(rate);
  config.duration = duration;
  config.num_companies = static_cast<int>(companies);
  config.num_sectors = static_cast<int>(sectors);
  *stock = config;
  return Status::Ok();
}

}  // namespace

StatusOr<WorkloadSpec> ParseWorkloadSpec(std::string_view json,
                                         Catalog* catalog) {
  StatusOr<Json> parsed = JsonParser(json).Parse();
  if (!parsed.ok()) return parsed.status();
  const Json& root = parsed.value();
  if (root.kind != Json::Kind::kObject) {
    return Status::InvalidArgument(
        "workload spec: top level must be a JSON object");
  }
  Status keys = ExpectKeys(
      root, "the top-level object",
      {"name", "queries", "engine", "sharing", "adaptive", "runtime",
       "ingest", "telemetry", "dataset"});
  if (!keys.ok()) return keys;

  WorkloadSpec spec;
  if (const Json* v = root.Find("name"); v != nullptr) spec.name = v->str;

  if (const Json* v = root.Find("dataset"); v != nullptr) {
    Status s = ReadDataset(*v, &spec.stock);
    if (!s.ok()) return s;
    // Stock datasets register their event types so the queries below parse
    // against a fully declared catalog.
    RegisterStockTypes(catalog);
  }

  const Json* queries = root.Find("queries");
  if (queries == nullptr || queries->kind != Json::Kind::kArray ||
      queries->items.empty()) {
    return Status::InvalidArgument(
        "workload spec: \"queries\" must be a non-empty array of query "
        "strings");
  }
  for (const Json& q : queries->items) {
    if (q.kind != Json::Kind::kString) {
      return Status::InvalidArgument(
          "workload spec: every entry of \"queries\" must be a string");
    }
    StatusOr<QuerySpec> query = ParseQuery(q.str, catalog);
    if (!query.ok()) {
      return Status(query.status().code(),
                    "workload spec query " +
                        std::to_string(spec.queries.size()) + ": " +
                        query.status().message());
    }
    spec.query_texts.push_back(q.str);
    spec.queries.push_back(std::move(query).value());
  }

  if (const Json* v = root.Find("engine"); v != nullptr) {
    Status s = ReadEngine(*v, &spec.options.engine);
    if (!s.ok()) return s;
  }
  if (const Json* v = root.Find("sharing"); v != nullptr) {
    Status s = ReadSharing(*v, &spec.options.sharing);
    if (!s.ok()) return s;
  }
  if (const Json* v = root.Find("adaptive"); v != nullptr) {
    Status s = ReadAdaptive(*v, &spec.options.adaptive);
    if (!s.ok()) return s;
  }
  if (const Json* v = root.Find("runtime"); v != nullptr) {
    Status s = ReadRuntime(*v, &spec.runtime);
    if (!s.ok()) return s;
  }
  if (const Json* v = root.Find("ingest"); v != nullptr) {
    Status s = ReadIngest(*v, &spec.ingest);
    if (!s.ok()) return s;
  }
  if (const Json* v = root.Find("telemetry"); v != nullptr) {
    Status s = ReadTelemetry(*v, &spec.telemetry);
    if (!s.ok()) return s;
  }
  spec.runtime.workload = spec.options;
  return spec;
}

StatusOr<WorkloadSpec> LoadWorkloadSpecFile(const std::string& path,
                                            Catalog* catalog) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open workload spec file '" + path + "'");
  }
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);
  return ParseWorkloadSpec(text, catalog);
}

}  // namespace greta::workload
