#pragma once

// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms, cheap enough to update from hot paths (single atomic op per
// event) and snapshottable to JSON at any time.
//
// The registry is the one source of lifetime totals. Registry values are
// monotone: they survive cache reinstalls and session restarts within the
// process. Components that also keep per-instance counts (ArtifactCache,
// ArtifactStore, ResultStore, StreamSession) declare them once, as a
// counter table on their Stats struct (see "Counter tables" below); one
// call per event then updates the instance field and its registry metric
// together, and the same table drives aggregation, deltas and rendering.
//
// Telemetry is observe-only: nothing in here may influence results.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace graphio::telemetry {

// Monotone event counter.
class Counter {
 public:
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Last-value / accumulating double. `add` makes it usable for cumulative
// seconds (phase totals) as well as levels.
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

// Point-in-time copy of a histogram. Subtractable, so a caller can bracket
// a run with two snapshots and compute percentiles over just that run even
// though the underlying histogram is process-wide.
struct HistogramSnapshot {
  std::vector<double> bounds;        // upper bounds, ascending; +inf implied
  std::vector<std::int64_t> counts;  // bounds.size() + 1 (overflow last)
  std::int64_t count = 0;
  double sum = 0.0;

  // Linear interpolation inside the bucket containing rank p*count.
  // Exact for uniform-within-bucket data; for the overflow bucket the
  // last finite bound is returned (the upper edge is unknown).
  double percentile(double p) const;

  HistogramSnapshot operator-(const HistogramSnapshot& other) const;
  bool empty() const { return count == 0; }
};

// Fixed-bucket histogram with atomic bucket counts. Bucket bounds are set
// at construction and never change, so observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) noexcept;
  HistogramSnapshot snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Log-spaced 1-2-5 bounds in seconds, 1us .. 100s. Good resolution for
// latency distributions across six decades.
std::vector<double> default_latency_bounds();

// Named metric registry. Lookup takes a mutex; returned references are
// stable for the registry's lifetime, so hot paths resolve once and then
// touch only atomics.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // Creates with the given bounds on first use (default: latency bounds);
  // later calls return the existing histogram regardless of bounds.
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {});

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  //  p50, p95, p99, buckets: [{le, count}, ...nonzero...]}}}
  std::string to_json() const;

  // Prometheus text exposition format: one family per metric under a
  // `graphio_` prefix with dots mapped to underscores — counters as
  // `_total`, gauges verbatim, histograms as *cumulative* `_bucket{le=}`
  // series ending at `+Inf`, plus `_sum`/`_count`.
  std::string to_prometheus() const;

  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// ------------------------------------------------------- Counter tables
//
// A stats struct S lists its fields once, as the Field rows returned by
// `static constexpr fields()`. Every helper below works from those rows.

/// One row of a counter table: an integer field (a registry Counter), a
/// double field (a Gauge), or neither — a registry-only counter another
/// component writes, resolved with the rest of the group.
template <class S>
struct Field {
  std::string_view key;  ///< JSON key; registry name `<prefix><key>`
  std::int64_t S::*count = nullptr;
  double S::*gauge = nullptr;
  bool mirrored = true;  ///< false: instance-only, no registry metric
};

namespace detail {

template <class S, class T>
S owner_of(T S::*);
template <class S, class T>
T type_of(T S::*);
template <auto Member>
using FieldType = decltype(type_of(Member));

/// Row index of `Member`; a member missing from its table reads past the
/// end, which fails to compile.
template <auto Member>
inline constexpr std::size_t kSlot = [] {
  constexpr auto rows = decltype(owner_of(Member))::fields();
  std::size_t i = 0;
  if constexpr (std::is_same_v<FieldType<Member>, double>)
    while (rows[i].gauge != Member) ++i;
  else
    while (rows[i].count != Member) ++i;
  return i;
}();

}  // namespace detail

/// total += sign * part, field by field.
template <class S>
void accumulate(S& total, const S& part, int sign = 1) {
  for (const Field<S>& row : S::fields()) {
    if (row.count != nullptr) total.*row.count += sign * part.*row.count;
    if (row.gauge != nullptr) total.*row.gauge += sign * part.*row.gauge;
  }
}

template <class S>
S difference(S after, const S& before) {
  accumulate(after, before, -1);
  return after;
}

/// The registry metrics `<prefix><key>` of S's mirrored rows, resolved
/// once (each lookup takes the registry mutex). add() then updates an
/// instance field and its metric together: one relaxed atomic op, the row
/// found at compile time.
template <class S>
class Mirror {
 public:
  explicit Mirror(std::string_view prefix) {
    MetricsRegistry& registry = MetricsRegistry::global();
    constexpr auto rows = S::fields();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!rows[i].mirrored) continue;
      const std::string name = std::string(prefix).append(rows[i].key);
      if (rows[i].gauge != nullptr)
        gauges_[i] = &registry.gauge(name);
      else
        counters_[i] = &registry.counter(name);
    }
  }

  template <auto Member>
  void add(S& stats, detail::FieldType<Member> delta) const noexcept {
    constexpr std::size_t i = detail::kSlot<Member>;
    stats.*Member += delta;
    if constexpr (!S::fields()[i].mirrored)
      return;
    else if constexpr (std::is_same_v<detail::FieldType<Member>, double>)
      gauges_[i]->add(delta);
    else
      counters_[i]->add(delta);
  }

 private:
  std::array<Counter*, S::fields().size()> counters_{};
  std::array<Gauge*, S::fields().size()> gauges_{};
};

}  // namespace graphio::telemetry
