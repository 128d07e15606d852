// Shared pieces of the graphio benchmark: the workload interface the
// main loop (main.cpp) runs, the output checks, the statistics, and the
// per-layer collection from the program's own telemetry (span self time
// from telemetry::Tracer::summarize() and MetricsRegistry counter deltas).
// Nothing here adds tracing inside the library; the benchmark only reads
// what the library already emits, plus spans it records around its own
// calls into the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graphio/engine/method.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User plus system CPU seconds of this process so far (all threads).
[[nodiscard]] double process_cpu_seconds();
/// One warm timing of a fixed reference kernel (a sparse power iteration
/// plus string hashing into a map), in seconds. Timed beside the ops, it tracks
/// how fast the host runs code at that moment.
[[nodiscard]] double reference_seconds();
/// The reference kernel's time on a quiet host (a 2.0 GHz Xeon core):
/// timings are reported at the speed that gives the kernel this time.
constexpr double kReferenceSeconds = 0.6e-3;
/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated percentile (the "closest ranks" rule, numpy's
/// default): p in [0, 100] over an unsorted sample. 0 for an empty one.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// Output check for a bound report: every applicable row is finite and
/// >= 0, and no lower bound (kind lower or exact) exceeds an upper bound
/// (kind upper) at the same memory. Certificate rows (partition-dp) bound
/// one evaluation order, not J*, so they are only checked for range.
/// Returns one message per violation (empty when the report is sound).
[[nodiscard]] std::vector<std::string> check_bound_rows(
    std::span<const graphio::engine::MethodRow> rows);

/// Compares two sets of JSONL result lines after sorting each: returns one
/// "missing: ..." / "unexpected: ..." message per line that is in one set
/// and not the other (empty when the sets are byte-identical).
[[nodiscard]] std::vector<std::string> diff_sorted_lines(
    std::vector<std::string> expected, std::vector<std::string> actual);

/// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(bool correct, std::int64_t attempted,
                                      std::int64_t failed,
                                      const std::vector<Metric>& metrics);

/// Accumulated view of the library's telemetry over a measured phase:
/// per-span-name self/total seconds (harvested from the global Tracer
/// after every op, so the ring buffer never wraps) and deltas of named
/// registry counters.
class LayerTrace {
 public:
  /// Enables the global tracer until destruction.
  LayerTrace();
  ~LayerTrace();
  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  /// Folds the spans recorded since the last harvest into the totals and
  /// clears the ring buffer. Call between ops, with no span open.
  void harvest();
  /// Runs `work` (between ops, with no span open) and keeps its spans and
  /// counter increments out of the totals.
  void exclude(const std::function<void()>& work);
  /// Freezes the counter deltas at the end of the phase.
  void finish();

  [[nodiscard]] double self_seconds(const std::string& span) const;
  [[nodiscard]] double total_seconds(const std::string& span) const;
  [[nodiscard]] std::int64_t delta(const std::string& counter) const;
  [[nodiscard]] std::int64_t dropped_spans() const { return dropped_; }

 private:
  struct Totals {
    double self_us = 0.0;
    double total_us = 0.0;
  };
  std::map<std::string, Totals> spans_;
  std::map<std::string, std::int64_t> start_;
  std::map<std::string, std::int64_t> delta_;
  std::int64_t dropped_ = 0;
};

/// A named workload: a fixed list of ops() distinct ops, generated from the
/// seed inside setup(), before any op is timed. main.cpp calls setup()
/// several times (timing each and keeping the last state), then runs
/// rounds for the run's duration: start_round(), then prepare(i) / op(i) /
/// verify(i) for i = 0 .. ops()-1, timing each op(i) from outside. Every
/// round repeats the same work, so op i's times over the rounds differ
/// only by the load on the host. check() runs once at the end.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs and the state the ops run against.
  virtual void setup() = 0;
  /// Number of distinct ops in one round.
  [[nodiscard]] virtual std::size_t ops() const = 0;
  /// Untimed: restores the state op 0 of a round starts from.
  virtual void start_round() {}
  /// Untimed preparation of op i (copying a pristine directory).
  virtual void prepare(std::size_t /*i*/) {}
  /// Runs op i; main.cpp times exactly this call.
  virtual void op(std::size_t i) = 0;
  /// Checks op i, which just ran, out of the timed region; false counts
  /// it in `failed`.
  virtual bool verify(std::size_t i) = 0;
  /// Verifies the program's outputs out of the timed region; returns one
  /// message per problem.
  virtual std::vector<std::string> check() = 0;
  /// Per-layer numbers only the workload can measure (p50s of its own
  /// sub-call timings, replay timings, steals...) for the phase that just
  /// ran, by metric name; resets the per-phase samples behind them.
  virtual std::map<std::string, double> take_extras() = 0;
};

struct WorkloadConfig {
  std::uint64_t seed = 1;
  /// Scratch directory inside the checkout for files the workload writes.
  std::filesystem::path workdir;
};

std::unique_ptr<Workload> make_stream_patch(const WorkloadConfig& config);
std::unique_ptr<Workload> make_bound_cold(const WorkloadConfig& config);
std::unique_ptr<Workload> make_batch_restart(const WorkloadConfig& config);

/// Build type the benchmark was compiled with ("" when CMake gave none).
[[nodiscard]] std::string build_type();
/// True for an optimized build (Release / RelWithDebInfo / MinSizeRel
/// with the compiler's optimizer on).
[[nodiscard]] bool optimized_build();

}  // namespace perfbench
