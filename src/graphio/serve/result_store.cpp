#include "graphio/serve/result_store.hpp"

#include <utility>

#include "graphio/engine/fingerprint.hpp"
#include "graphio/io/json.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/telemetry/metrics.hpp"

namespace graphio::serve {

namespace {

// The registry side of Stats (`result_store.<key>`, by its counter table):
// process-wide lifetime totals across every ResultStore instance.
const telemetry::Mirror<ResultStore::Stats>& registry() {
  static const telemetry::Mirror<ResultStore::Stats> mirror("result_store.");
  return mirror;
}

engine::BoundKind kind_from_string(const std::string& s) {
  if (s == "lower") return engine::BoundKind::kLower;
  if (s == "upper") return engine::BoundKind::kUpper;
  if (s == "exact") return engine::BoundKind::kExact;
  if (s == "certificate") return engine::BoundKind::kCertificate;
  GIO_EXPECTS_MSG(false, "unknown bound kind '" + s + "'");
  return engine::BoundKind::kLower;  // unreachable
}

std::string record_line(const ResultStore::Key& key,
                        const engine::MethodRow& row) {
  io::JsonWriter w;
  w.begin_object();
  w.key("graph").value(engine::fingerprint_hex(key.graph_fingerprint));
  w.key("method").value(key.method);
  w.key("memory").value(key.memory);
  w.key("processors").value(key.processors);
  w.key("orders").value(key.sim_random_orders);
  w.key("solver").value(key.solver);
  w.key("decompose").value(key.decompose);
  w.key("row").begin_object();
  w.key("kind").value(engine::to_string(row.kind));
  w.key("applicable").value(row.applicable);
  w.key("bound").value(row.value);
  w.key("best_k").value(row.best_k);
  w.key("converged").value(row.converged);
  w.key("seconds").value(row.seconds);
  w.key("note").value(row.note);
  w.end_object();
  w.end_object();
  return w.str();
}

/// Parses one log line back into (key, row). Throws on malformed lines;
/// the loader catches and counts.
std::pair<ResultStore::Key, engine::MethodRow> parse_record(
    const std::string& line) {
  const io::JsonValue v = io::JsonValue::parse(line);
  ResultStore::Key key;
  key.graph_fingerprint =
      engine::parse_fingerprint_hex(v.at("graph").as_string());
  key.method = v.at("method").as_string();
  key.memory = v.at("memory").as_double();
  key.processors = v.at("processors").as_int();
  key.sim_random_orders = static_cast<int>(v.at("orders").as_int());
  // Absent in logs written before the solver-policy fields existed; those
  // rows were computed with the defaults, which the scheduler keys as
  // "auto" for the spectral families (and "" for everything else) — so
  // default, not leave empty, or pre-upgrade spectral rows could never
  // hit again.
  const bool spectral_family = key.method == "spectral" ||
                               key.method == "spectral-plain" ||
                               key.method == "parallel";
  key.solver = spectral_family ? "auto" : "";
  if (const io::JsonValue* solver = v.get("solver"))
    key.solver = solver->as_string();
  if (const io::JsonValue* decompose = v.get("decompose"))
    key.decompose = decompose->as_bool();

  const io::JsonValue& r = v.at("row");
  engine::MethodRow row;
  row.method = key.method;
  row.memory = key.memory;
  row.processors = key.processors;
  row.kind = kind_from_string(r.at("kind").as_string());
  row.applicable = r.at("applicable").as_bool();
  row.value = r.at("bound").as_double();
  row.best_k = static_cast<int>(r.at("best_k").as_int());
  row.converged = r.at("converged").as_bool();
  row.seconds = r.at("seconds").as_double();
  row.note = r.at("note").as_string();
  return {std::move(key), std::move(row)};
}

}  // namespace

std::string ResultStore::encode_key(const Key& key) {
  std::string out = engine::fingerprint_hex(key.graph_fingerprint);
  out += '|';
  out += key.method;
  out += '|';
  out += io::format_double_exact(key.memory);
  out += '|';
  out += std::to_string(key.processors);
  out += '|';
  out += std::to_string(key.sim_random_orders);
  out += '|';
  out += key.solver;
  out += key.decompose ? "" : "|mono";
  return out;
}

ResultStore::ResultStore(const std::filesystem::path& dir)
    : log_(dir, {"results.jsonl", "store", "result_store",
                 "result store disk tier", "continuing memory-only"}) {
  std::int64_t loaded = 0;
  const std::int64_t corrupt =
      log_.replay([this, &loaded](const std::string& line) {
        auto [key, row] = parse_record(line);
        if (rows_.emplace(encode_key(key), std::move(row)).second) ++loaded;
      });
  registry().add<&Stats::loaded>(stats_, loaded);
  registry().add<&Stats::corrupt>(stats_, corrupt);
}

std::optional<engine::MethodRow> ResultStore::lookup(const Key& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = rows_.find(encode_key(key));
  if (it == rows_.end()) {
    registry().add<&Stats::misses>(stats_, 1);
    return std::nullopt;
  }
  registry().add<&Stats::hits>(stats_, 1);
  return it->second;
}

void ResultStore::insert(const Key& key, const engine::MethodRow& row) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!rows_.emplace(encode_key(key), row).second) return;
  if (log_.append(record_line(key, row)))
    registry().add<&Stats::appended>(stats_, 1);
}

void ResultStore::sync() { log_.sync(); }

ResultStore::Stats ResultStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.demoted = log_.demoted();
  return out;
}

std::size_t ResultStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rows_.size();
}

}  // namespace graphio::serve
