// BatchSession — JSONL in, JSONL out: the serve subsystem's front door.
//
// run() ingests a jobs file (one job per line, see serve/job.hpp), fans
// it across the Scheduler, and streams one result line per job to the
// output as results complete:
//
//   {"job": 3, "report": {...}}          evaluated request (job = line no)
//   {"job": 5, "load": {...}}            stream graph created/replaced
//   {"job": 6, "patch": {...}}           stream mutations applied
//   {"job": 7, "error": {"kind": "reject", "message": "unknown …"}}
//
// Failed jobs carry a structured error object — kind ("reject" for
// unparseable lines, "error" for evaluation failures, an injected
// fault's kind otherwise), the fault site when one fired, the attempts
// consumed by the scheduler's transient-retry loop, and quarantined:true
// when a job exhausted its retry budget. Reports whose bound came from a
// deadline- or fault-degraded evaluation carry a top-level
// "degraded": true next to "report" (the bound is still a sound lower
// bound, just weaker than a full run).
//
// Stream jobs (any line with a "graph" key) address named evolving
// graphs (graphio/stream) owned by the session. Mutations are stateful,
// so the stream lane is *ordered*: stream jobs execute in file order
// during ingest, each query seeing exactly the patches above it, while
// run() fans the plain bound jobs out across the worker pool after
// ingest. Stream
// queries run on the owning StreamSession's engine (clean components
// served from its component cache), not on the worker engines. With a
// ResultStore configured they are persistent too, keyed by the session's
// order-independent component-multiset fingerprint — the durable
// identity of an evolving graph's *state* — so a graph that reverts to a
// previously analyzed state hits the disk store.
//
// Malformed lines are rejected as error records without aborting the rest
// of the batch. Result lines are *deterministic*: reports are serialized
// without timing/cache fields, so `sort` of two runs' outputs compares
// byte-identical across thread counts and warm/cold stores. Timing lives
// in the returned BatchSummary (and its to_json footer).
//
// serve() is the interactive sibling: a stdin/stdout request/response
// loop (one JSONL request line in, one result line out, flushed) for
// driving graphio from another process — and the engine behind
// `graphio stream`, which replays an updates file through it. Both modes
// are one job loop: the same ingest, result lines, counts and summary.
// They differ only in that serve() evaluates each bound job as soon as
// its line is read (worker 0's Engine) and flushes after every line,
// while run() finishes every stream job before the first bound job. The
// two print the same lines except where that order shows through the
// shared artifact store, as in a patch's `evicted` count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "graphio/audit/provenance.hpp"
#include "graphio/serve/scheduler.hpp"
#include "graphio/stream/session.hpp"
#include "graphio/telemetry/metrics.hpp"

namespace graphio::serve {

/// Eigenbasis budget in MiB that `graphio stream` and audit::replay()
/// default to when replaying an updates file.
inline constexpr std::int64_t kStreamWarmBasisMb = 64;

struct BatchOptions {
  /// Worker threads; 0 means hardware_threads().
  int threads = 0;
  /// Directory for the persistent ResultStore; empty disables it.
  std::string store_dir;
  /// Directory for the durable tier of the process-wide ArtifactStore
  /// (--store-artifacts); empty keeps the store memory-only.
  std::string artifact_dir;
  /// Eigenbasis LRU budget in MiB (--warm-basis-mb). With a budget,
  /// stream queries retain converged component eigenbases and warm-start
  /// the solves of patched successors from them; 0 turns the warm layer
  /// off entirely.
  std::int64_t warm_basis_mb = 0;
  /// Attach each report's provenance record to its result line
  /// (--explain). Off by default: result lines stay byte-identical
  /// across warm/cold stores, which `--explain` deliberately gives up
  /// (solver tiers differ between a cold and a warm run).
  bool explain = false;
  /// Directory for the append-only provenance JSONL (--provenance);
  /// empty disables the trail. Independent of `explain` — the trail can
  /// be recorded while result lines stay deterministic.
  std::string provenance_dir;
  /// fsync the ResultStore, artifact-store and provenance logs at batch
  /// boundaries (--durable): appended rows survive power loss, not just
  /// process death. Off by default — flush-only keeps serve latency flat.
  bool durable = false;
  /// Soft per-job deadline in milliseconds (--job-timeout-ms, 0 = none);
  /// see SchedulerOptions::job_timeout_ms.
  std::int64_t job_timeout_ms = 0;
  /// Transient-failure attempts per job; see SchedulerOptions.
  int max_attempts = 3;
};

struct BatchSummary {
  std::int64_t jobs = 0;           ///< parsed job lines (bound + stream)
  std::int64_t ok = 0;             ///< jobs that produced a result
  std::int64_t failed = 0;         ///< jobs that errored during evaluation
  std::int64_t rejected_lines = 0; ///< unparseable job lines
  std::int64_t retried = 0;        ///< extra attempts spent on transients
  std::int64_t quarantined = 0;    ///< jobs that exhausted their retries
  std::int64_t degraded = 0;       ///< ok jobs with a degraded bound
  int threads = 0;
  std::int64_t steals = 0;         ///< queue rebalance events
  double seconds = 0.0;            ///< batch wall time
  double throughput = 0.0;         ///< completed jobs per second
  double p50_seconds = 0.0;        ///< median per-job worker latency
  double p95_seconds = 0.0;        ///< 95th-percentile per-job latency
  double p99_seconds = 0.0;        ///< 99th-percentile, from `latency`
  /// Per-job latency distribution for this run: the delta of the
  /// process-wide "serve.job.seconds" registry histogram bracketing the
  /// run, so it covers exactly this batch even when several batches
  /// share the process. p99_seconds is interpolated from it.
  telemetry::HistogramSnapshot latency;
  std::int64_t store_hits = 0;     ///< rows served from the ResultStore
  std::int64_t store_misses = 0;
  engine::ArtifactCache::Stats cache;  ///< artifact activity this batch
  /// Stream-lane activity (zero when the input had no stream jobs).
  std::int64_t stream_jobs = 0;        ///< loads + patches + queries
  std::int64_t patches = 0;            ///< load/patch jobs applied
  std::int64_t mutations = 0;          ///< mutations across patches
  std::int64_t dirty_components = 0;   ///< components re-analyzed
  std::int64_t clean_components = 0;   ///< components reused as cached
  /// Fraction of store lookups served, 0 when the store was off/empty.
  [[nodiscard]] double store_hit_rate() const;
  [[nodiscard]] std::string to_json() const;
};

class BatchSession {
 public:
  /// Opens the store (when configured) and builds the worker pool.
  explicit BatchSession(const BatchOptions& options = {});
  ~BatchSession();

  /// Batch mode: evaluates every JSONL line of `in`, streaming result
  /// lines to `out` as they complete.
  BatchSummary run(std::istream& in, std::ostream& out);

  /// Interactive mode: one request line in, one result line out (flushed
  /// after every response), until EOF. Uses worker 0's Engine only, so
  /// artifacts stay warm across requests.
  BatchSummary serve(std::istream& in, std::ostream& out);

  [[nodiscard]] const ResultStore* store() const noexcept {
    return store_.get();
  }
  /// The process-wide content-addressed artifact store shared by every
  /// worker Engine and stream session (disk-backed iff artifact_dir).
  [[nodiscard]] const std::shared_ptr<store::ArtifactStore>&
  artifact_store() const noexcept {
    return artifacts_;
  }
  [[nodiscard]] Scheduler& scheduler() noexcept { return *scheduler_; }

  /// The named stream session, or nullptr before any load of that name
  /// (test/introspection hook).
  [[nodiscard]] const stream::StreamSession* stream_session(
      const std::string& name) const;

  /// The provenance trail, or nullptr when provenance_dir was empty.
  [[nodiscard]] const audit::ProvenanceLog* provenance_log() const noexcept {
    return provenance_.get();
  }

 private:
  struct Run;  ///< one run's output and tallies (batch_session.cpp)

  /// The job loop behind run() and serve(): `interactive` evaluates each
  /// bound job at once and flushes after every line; otherwise bound jobs
  /// queue for one Scheduler::run after ingest.
  BatchSummary process(std::istream& in, std::ostream& out,
                       bool interactive);

  /// Executes one stream-lane job in file order and records its result.
  void run_stream_job(const Job& job, Run& run);

  std::unique_ptr<ResultStore> store_;
  std::shared_ptr<store::ArtifactStore> artifacts_;
  std::unique_ptr<Scheduler> scheduler_;
  std::map<std::string, std::unique_ptr<stream::StreamSession>> streams_;
  std::unique_ptr<audit::ProvenanceLog> provenance_;
  bool explain_ = false;
  bool durable_ = false;

  /// --durable batch-boundary fsync of every configured log.
  void sync_durable();
};

}  // namespace graphio::serve
