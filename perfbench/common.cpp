#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <iterator>
#include <sstream>
#include <unordered_map>

#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/trace.hpp"

namespace perfbench {

namespace {

// Registry counters the per-layer metrics are derived from.
const char* const kCounters[] = {
    "cache.eigensolves",          "cache.component_hits",
    "cache.subgraph_extractions", "cache.mincut_sweeps",
    "cache.topo_computes",        "cache.memsim_runs",
    "cache.partition_runs",       "solver.iterations",
    "solver.warm_hits",           "stream.patches",
    "stream.dirty_components",    "stream.evicted",
    "store.disk.loaded",          "store.disk.appended",
    "store.spectrum.hits",        "store.spectrum.misses",
    "store.topo.hits",            "store.topo.misses",
    "store.mincut.hits",          "store.mincut.misses",
    "store.memsim.hits",          "store.memsim.misses",
    "store.partition.hits",       "store.partition.misses",
    "result_store.hits",          "result_store.misses",
};

// Large enough that no single op overflows it; harvest() empties it
// between ops.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;

std::map<std::string, std::int64_t> read_counters() {
  auto& registry = graphio::telemetry::MetricsRegistry::global();
  std::map<std::string, std::int64_t> values;
  for (const char* name : kCounters)
    values[name] = registry.counter(name).value();
  return values;
}

void append_escaped(std::string& out, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

namespace {

// Fixed work in the two shapes the library's time goes to: a power
// iteration on a seeded sparse matrix that fits in L2 (the iterative
// eigensolves) and string formatting, hashing and map inserts (parsing job
// lines, graph files and store logs).
struct ReferenceKernel {
  static constexpr std::uint32_t kRows = 2048;
  static constexpr std::uint32_t kPerRow = 8;
  static constexpr int kIterations = 24;
  static constexpr int kKeys = 2000;
  std::vector<std::uint32_t> cols;
  std::vector<double> vals;
  std::vector<double> x;
  std::vector<double> y;

  ReferenceKernel() : x(kRows, 1.0), y(kRows, 0.0) {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t k = 0; k < kRows * kPerRow; ++k) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      cols.push_back(static_cast<std::uint32_t>(state >> 33) % kRows);
      vals.push_back(static_cast<double>(state >> 11 & 0xffff) / 65536.0);
    }
  }

  double run() {
    std::fill(x.begin(), x.end(), 1.0);
    double norm = 0.0;
    for (int it = 0; it < kIterations; ++it) {
      norm = 0.0;
      for (std::uint32_t r = 0; r < kRows; ++r) {
        double sum = 0.0;
        for (std::uint32_t k = r * kPerRow; k < (r + 1) * kPerRow; ++k)
          sum += vals[k] * x[cols[k]];
        y[r] = sum;
        norm += sum * sum;
      }
      const double scale = 1.0 / std::sqrt(norm);
      for (std::uint32_t r = 0; r < kRows; ++r) x[r] = y[r] * scale;
    }
    std::unordered_map<std::string, double> map;
    for (int k = 0; k < kKeys; ++k)
      map["{\"job\": " + std::to_string(k * 7919 % kKeys) + "}"] += x[k % kRows];
    for (int k = 0; k < kKeys; ++k)
      norm += map.count("{\"job\": " + std::to_string(k) + "}");
    return norm;
  }
};

}  // namespace

double reference_seconds() {
  static ReferenceKernel kernel;
  static volatile double sink = 0.0;
  sink = sink + kernel.run();  // brings its data back into cache
  const Clock::time_point start = Clock::now();
  sink = sink + kernel.run();
  return seconds_since(start);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::vector<std::string> check_bound_rows(
    std::span<const graphio::engine::MethodRow> rows) {
  using graphio::engine::BoundKind;
  std::vector<std::string> problems;
  auto describe = [](const graphio::engine::MethodRow& row) {
    std::ostringstream out;
    out << row.method << " at M=" << row.memory << " = " << row.value;
    return out.str();
  };
  for (const auto& row : rows) {
    if (!row.applicable) continue;
    if (!std::isfinite(row.value) || row.value < 0.0)
      problems.push_back("not finite and >= 0: " + describe(row));
  }
  for (const auto& upper : rows) {
    if (upper.kind != BoundKind::kUpper || !upper.applicable) continue;
    for (const auto& lower : rows) {
      const bool is_lower =
          lower.kind == BoundKind::kLower || lower.kind == BoundKind::kExact;
      if (!is_lower || !lower.applicable || lower.memory != upper.memory)
        continue;
      if (lower.value > upper.value)
        problems.push_back("lower bound above upper bound: " +
                           describe(lower) + " > " + describe(upper));
    }
  }
  return problems;
}

std::vector<std::string> diff_sorted_lines(std::vector<std::string> expected,
                                           std::vector<std::string> actual) {
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  std::vector<std::string> missing;
  std::vector<std::string> unexpected;
  std::set_difference(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), std::back_inserter(missing));
  std::set_difference(actual.begin(), actual.end(), expected.begin(),
                      expected.end(), std::back_inserter(unexpected));
  std::vector<std::string> problems;
  for (const auto& line : missing) problems.push_back("missing: " + line);
  for (const auto& line : unexpected) problems.push_back("unexpected: " + line);
  return problems;
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += '"';
    append_escaped(out, m.name);
    out += "\": {\"value\": ";
    out += value;
    out += ", \"unit\": \"";
    append_escaped(out, m.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

LayerTrace::LayerTrace() : start_(read_counters()) {
  graphio::telemetry::Tracer::global().enable(kTraceCapacity);
}

LayerTrace::~LayerTrace() { graphio::telemetry::Tracer::global().disable(); }

void LayerTrace::harvest() {
  auto& tracer = graphio::telemetry::Tracer::global();
  const graphio::telemetry::TraceSummary summary = tracer.summarize();
  for (const auto& row : summary.rows) {
    Totals& totals = spans_[row.name];
    totals.self_us += row.self_us;
    totals.total_us += row.total_us;
  }
  dropped_ += static_cast<std::int64_t>(tracer.dropped());
  tracer.clear();
}

void LayerTrace::exclude(const std::function<void()>& work) {
  harvest();
  const auto before = read_counters();
  work();
  const auto after = read_counters();
  // Counted as if the phase had started after `work`.
  for (const auto& [name, value] : after) start_[name] += value - before.at(name);
  auto& tracer = graphio::telemetry::Tracer::global();
  dropped_ += static_cast<std::int64_t>(tracer.dropped());
  tracer.clear();
}

void LayerTrace::finish() {
  harvest();
  const auto end = read_counters();
  for (const auto& [name, value] : end) delta_[name] = value - start_[name];
}

double LayerTrace::self_seconds(const std::string& span) const {
  const auto it = spans_.find(span);
  return it == spans_.end() ? 0.0 : it->second.self_us * 1e-6;
}

double LayerTrace::total_seconds(const std::string& span) const {
  const auto it = spans_.find(span);
  return it == spans_.end() ? 0.0 : it->second.total_us * 1e-6;
}

std::int64_t LayerTrace::delta(const std::string& counter) const {
  const auto it = delta_.find(counter);
  return it == delta_.end() ? 0 : it->second;
}

std::string build_type() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "";
#endif
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  const std::string type = build_type();
  return type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel";
#else
  return false;
#endif
}

}  // namespace perfbench
