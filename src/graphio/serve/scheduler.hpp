// Scheduler — fans a corpus of jobs across a std::thread worker pool: the
// library's one request-level fan-out, behind `graphio batch` and
// `graphio compare` alike.
//
// Independent of OpenMP (support/parallel.hpp) by design: the serve layer
// must parallelize even in no-OpenMP builds, and its workers are long-
// lived request loops, not data-parallel loop bodies. Each worker owns a
// private engine::Engine, so per-spec ArtifactCache reuse (one
// eigendecomposition per graph) is preserved within a worker, and the
// JobQueue's spec-hash sharding sends every job for a given graph to the
// same worker unless stealing rebalances. Workers consult the optional
// shared ResultStore row-by-row before computing, so warm batches touch
// neither the eigensolver nor the flow substrate.
//
// Results are handed to a callback as they complete (any worker thread,
// serialized by an internal mutex) — the BatchSession streams them to the
// output without waiting for the batch. Every job produces exactly one
// JobResult, ok or failed; a worker never throws out of a job.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "graphio/engine/engine.hpp"
#include "graphio/serve/job.hpp"
#include "graphio/serve/result_store.hpp"

namespace graphio::serve {

/// Backoff before the first transient-failure retry in milliseconds,
/// doubled per retry.
inline constexpr double kRetryBackoffMs = 1.0;

struct SchedulerOptions {
  /// Worker count; 0 means hardware_threads().
  int threads = 0;
  /// Shared persistent cache; nullptr disables store lookups.
  ResultStore* store = nullptr;
  /// Content-addressed artifact store shared by every worker Engine
  /// (possibly disk-backed, --store-artifacts); the Scheduler creates a
  /// process-private memory-only one when null.
  std::shared_ptr<store::ArtifactStore> artifacts;
  /// Attempts per job for *transient* failures (bounded retry with
  /// exponential backoff). A job still failing transiently after the
  /// last attempt is quarantined (`serve.job.quarantined`); permanent
  /// failures (bad spec, cyclic graph) never retry.
  int max_attempts = 3;
  /// Soft per-job deadline in milliseconds (0 = none), the request's
  /// BoundRequest::deadline_seconds: over-budget component solves are
  /// skipped and the job returns a certified partial bound flagged
  /// degraded:true instead of hanging.
  std::int64_t job_timeout_ms = 0;
};

/// Store-backed evaluation, shared by the worker path and the stream
/// lane: per (method, M) rows are resolved from `store` under
/// `fingerprint` (all-or-nothing per method across the memory sweep),
/// methods with any missing row are computed through `evaluate`, and the
/// fresh converged rows are persisted. The assembled report mixes stored
/// and fresh rows in method-selection order — byte-identical to a fully
/// computed one under the deterministic serialization. `fingerprint` is
/// whatever durable identity the caller keys rows by: the whole-graph
/// content hash for spec/explicit-graph jobs, the order-independent
/// component-multiset session fingerprint for stream queries (a graph
/// that reverts to a prior state re-keys to — and hits — the prior
/// rows).
/// A non-null `storeable` predicate exempts methods from the store
/// entirely (computed fresh, never persisted, never counted hit/miss) —
/// the stream lane uses it to keep vertex-numbering-sensitive rows out
/// of its numbering-agnostic multiset keys.
engine::BoundReport evaluate_with_store(
    ResultStore& store, std::uint64_t fingerprint,
    const engine::BoundRequest& request, const std::string& display_name,
    std::int64_t vertices, std::int64_t edges,
    const std::function<engine::BoundReport(const engine::BoundRequest&)>&
        evaluate,
    std::int64_t* store_hits, std::int64_t* store_misses,
    const std::function<bool(std::string_view)>& storeable = nullptr);

struct JobResult {
  std::int64_t id = 0;
  bool ok = false;
  /// Failure reason when !ok (bad spec, unknown method, cyclic graph…).
  std::string error;
  /// Structured failure taxonomy when !ok: "transient", "io", "fatal"…
  /// from an injected fault's kind, "error" for ordinary exceptions.
  std::string error_kind;
  /// Fault site that produced the failure ("" for ordinary exceptions).
  std::string error_site;
  /// Evaluation attempts consumed (1 = first try; >1 means retried); 0
  /// for a job that never reached the retry loop (a rejected line or a
  /// stream-lane job).
  int attempts = 1;
  /// True when the job kept failing transiently through max_attempts and
  /// was quarantined instead of retried forever.
  bool quarantined = false;
  engine::BoundReport report;
  /// Worker wall time spent on this job (store lookups included).
  double seconds = 0.0;
  /// Rows served from / missed in the persistent store for this job.
  std::int64_t store_hits = 0;
  std::int64_t store_misses = 0;
};

class Scheduler {
 public:
  explicit Scheduler(const SchedulerOptions& options = {});

  /// Telemetry for one run() call; artifact activity is the caller's
  /// engine_stats() delta around it.
  struct RunStats {
    int threads = 0;
    std::int64_t steals = 0;
  };

  /// Runs every job to completion; `on_result` fires once per job, from
  /// worker threads, serialized (never concurrently). Worker Engines and
  /// their artifact caches persist across run() calls, so a long-lived
  /// serve loop keeps its spectra warm between batches.
  RunStats run(std::vector<Job> jobs,
               const std::function<void(const JobResult&)>& on_result);

  /// Evaluates one job on the calling thread with worker 0's Engine —
  /// the synchronous path behind the `graphio serve` stdin/stdout loop.
  JobResult run_one(const Job& job);

  [[nodiscard]] int threads() const noexcept {
    return static_cast<int>(engines_.size());
  }

  /// Lifetime artifact totals summed across every worker Engine.
  [[nodiscard]] engine::ArtifactCache::Stats engine_stats() const;

 private:
  JobResult evaluate_job(engine::Engine& engine, const Job& job,
                         std::size_t worker) const;

  std::vector<std::unique_ptr<engine::Engine>> engines_;
  ResultStore* store_ = nullptr;
  int max_attempts_ = 3;
  std::int64_t job_timeout_ms_ = 0;
};

}  // namespace graphio::serve
