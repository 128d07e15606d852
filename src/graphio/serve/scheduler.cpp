#include "graphio/serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "graphio/engine/fingerprint.hpp"
#include "graphio/faults/fault_injection.hpp"
#include "graphio/serve/job_queue.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/parallel.hpp"
#include "graphio/support/timer.hpp"
#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/trace.hpp"

namespace graphio::serve {

namespace {

struct JobMetrics {
  telemetry::Counter& failed;
  telemetry::Counter& retried;
  telemetry::Counter& quarantined;
};

JobMetrics& job_metrics() {
  static JobMetrics metrics{
      telemetry::MetricsRegistry::global().counter("serve.job.failed"),
      telemetry::MetricsRegistry::global().counter("serve.job.retried"),
      telemetry::MetricsRegistry::global().counter("serve.job.quarantined")};
  return metrics;
}

/// The store key for one (request, method, memory) cell. processors,
/// sim_random_orders, and the spectral solver knobs only key the methods
/// whose results they change, so e.g. a "spectral" row computed under a
/// processors=4 request still serves later processors=1 requests, and a
/// "mincut" row serves every solver setting.
ResultStore::Key store_key(std::uint64_t fingerprint,
                           const engine::BoundRequest& request,
                           std::string_view method, double memory) {
  ResultStore::Key key;
  key.graph_fingerprint = fingerprint;
  key.method = std::string(method);
  key.memory = memory;
  key.processors = method == "parallel" ? request.processors : 1;
  key.sim_random_orders =
      method == "memsim" ? request.sim_random_orders : 0;
  if (method == "spectral" || method == "spectral-plain" ||
      method == "parallel") {
    key.solver = la::solver_policy_name(request.spectral.solver);
    key.decompose = request.spectral.decompose;
  }
  return key;
}

}  // namespace

engine::BoundReport evaluate_with_store(
    ResultStore& store, std::uint64_t fingerprint,
    const engine::BoundRequest& request, const std::string& display_name,
    std::int64_t vertices, std::int64_t edges,
    const std::function<engine::BoundReport(const engine::BoundRequest&)>&
        evaluate,
    std::int64_t* store_hits, std::int64_t* store_misses,
    const std::function<bool(std::string_view)>& storeable) {
  GIO_EXPECTS_MSG(!request.memories.empty(),
                  "request needs at least one memory size");
  const std::vector<const engine::BoundMethod*> selected =
      engine::select_methods(request);

  // Per-method: either every (method, M) row is on disk, or the whole
  // sweep is recomputed (the sweep shares one spectrum/cut anyway and
  // partial hits are rare — they only happen when the memory list
  // changed between runs). Methods the caller declares non-storeable
  // bypass the store both ways.
  std::vector<std::vector<engine::MethodRow>> stored(selected.size());
  std::vector<std::string> missed;
  for (std::size_t s = 0; s < selected.size(); ++s) {
    const std::string id(selected[s]->id());
    if (storeable != nullptr && !storeable(id)) {
      missed.push_back(id);
      continue;
    }
    std::vector<engine::MethodRow> rows;
    rows.reserve(request.memories.size());
    for (double m : request.memories) {
      auto row = store.lookup(store_key(fingerprint, request, id, m));
      if (!row.has_value()) break;
      rows.push_back(std::move(*row));
    }
    if (rows.size() == request.memories.size()) {
      *store_hits += static_cast<std::int64_t>(request.memories.size());
      stored[s] = std::move(rows);
    } else {
      *store_misses += static_cast<std::int64_t>(request.memories.size());
      missed.push_back(id);
    }
  }

  engine::BoundReport computed;
  if (!missed.empty()) {
    engine::BoundRequest sub = request;
    sub.methods = missed;
    computed = evaluate(sub);
    // Only persist converged rows. Non-converged covers methods that
    // threw (possibly transiently: the Engine marks exception rows
    // converged=false), time-budget-cut min-cut sweeps, and partial
    // spectra — caching any of those would serve a degraded or stale
    // answer forever. Deterministic inapplicability verdicts ("graph
    // is cyclic", "exceeds 21 vertices") stay converged and cached,
    // preserving 100% warm-run hit rates.
    for (const engine::MethodRow& row : computed.rows)
      if (row.converged &&
          (storeable == nullptr || storeable(row.method)))
        store.insert(store_key(fingerprint, request, row.method, row.memory),
                     row);
  }

  // Assemble the report in selection order, mixing stored and fresh
  // rows; the deterministic serialization of both forms is identical.
  engine::BoundReport report;
  report.graph = display_name;
  report.vertices = vertices;
  report.edges = edges;
  report.processors = request.processors;
  report.memories = request.memories;
  report.cache = computed.cache;  // zero when fully warm
  // Lineage: the computed sub-evaluation's spectra and registry deltas
  // carry over verbatim (empty when fully warm); the row lineage is
  // rebuilt below so store-served rows are labeled as such.
  report.provenance = std::move(computed.provenance);
  report.provenance.graph = display_name;
  report.provenance.fingerprint = fingerprint;
  report.provenance.rows.clear();
  for (std::size_t s = 0; s < selected.size(); ++s) {
    const bool from_store = !stored[s].empty();
    std::vector<const engine::MethodRow*> method_rows;
    if (from_store) {
      for (engine::MethodRow& row : stored[s]) method_rows.push_back(&row);
    } else {
      method_rows = computed.rows_for(selected[s]->id());
    }
    for (const engine::MethodRow* row : method_rows) {
      report.provenance.rows.push_back(
          engine::row_lineage(*row, from_store ? "store" : "computed"));
      report.rows.push_back(*row);
    }
  }
  return report;
}

Scheduler::Scheduler(const SchedulerOptions& options)
    : store_(options.store),
      max_attempts_(std::max(1, options.max_attempts)),
      job_timeout_ms_(std::max<std::int64_t>(0, options.job_timeout_ms)) {
  int threads = options.threads > 0 ? options.threads : hardware_threads();
  threads = std::max(threads, 1);
  engines_.reserve(static_cast<std::size_t>(threads));
  // One content-addressed artifact store across all worker Engines (it
  // is mutex-guarded): a component shared by specs sharded to different
  // workers still computes each artifact once per process — and, when
  // the caller attached a disk tier, once ever.
  const auto artifacts = options.artifacts != nullptr
                             ? options.artifacts
                             : std::make_shared<store::ArtifactStore>();
  for (int t = 0; t < threads; ++t)
    engines_.push_back(std::make_unique<engine::Engine>(artifacts));
}

JobResult Scheduler::evaluate_job(engine::Engine& engine, const Job& job,
                                  std::size_t worker) const {
  JobResult result;
  result.id = job.id;
  telemetry::Span job_span("serve.job");
  job_span.attr("job", job.id)
      .attr("spec", job.request.display_name())
      .attr("worker", worker)
      .attr("shard",
            std::hash<std::string>{}(job.request.spec) % engines_.size());
  WallTimer timer;
  // The per-job soft deadline is the request's one budget for all of its
  // spectra, both Laplacian kinds (min-cut sweeps stay outside it):
  // over-budget component solves are skipped and the job returns a
  // certified partial bound flagged degraded instead of hanging.
  engine::BoundRequest request = job.request;
  if (job_timeout_ms_ > 0 && request.deadline_seconds <= 0.0)
    request.deadline_seconds = static_cast<double>(job_timeout_ms_) / 1000.0;
  // Bounded retry: only *transient* failures (an injected fault with
  // kind=transient — a stand-in for I/O hiccups) re-run, with exponential
  // backoff; a job still failing on the last attempt is quarantined.
  // Deterministic failures (bad spec, cyclic graph) fail once, first try.
  for (int attempt = 1;; ++attempt) {
    result.attempts = attempt;
    try {
      faults::inject("serve.worker");
      if (store_ == nullptr) {
        result.report = engine.evaluate(request);
      } else {
        // Content-addressing makes explicit-graph requests first-class
        // store citizens: they hash the carried graph, spec requests hash
        // (and cache) through the Engine.
        const std::uint64_t fingerprint =
            request.graph.has_value()
                ? engine::graph_fingerprint(*request.graph)
                : engine.fingerprint(request.spec);
        const Digraph& graph = request.graph.has_value()
                                   ? *request.graph
                                   : engine.graph(request.spec);
        result.report = evaluate_with_store(
            *store_, fingerprint, request, request.display_name(),
            graph.num_vertices(), graph.num_edges(),
            [&engine](const engine::BoundRequest& sub) {
              return engine.evaluate(sub);
            },
            &result.store_hits, &result.store_misses);
      }
      // Record the originating request in job-line form: `graphio audit`
      // re-evaluates it from scratch when replaying the trail.
      result.report.provenance.request = request_to_json_line(job.request);
      result.ok = true;
      break;
    } catch (const faults::FaultInjected& e) {
      result.ok = false;
      result.error = e.what();
      result.error_kind = e.kind();
      result.error_site = e.site();
      if (e.transient() && attempt < max_attempts_) {
        job_metrics().retried.increment();
        const double delay =
            kRetryBackoffMs *
            static_cast<double>(std::int64_t{1} << (attempt - 1));
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay));
        continue;
      }
      if (e.transient()) {
        result.quarantined = true;
        job_metrics().quarantined.increment();
      }
      break;
    } catch (const std::exception& e) {
      result.ok = false;
      result.error = e.what();
      result.error_kind = "error";
      break;
    }
  }
  if (!result.ok) job_metrics().failed.increment();
  result.seconds = timer.seconds();
  result.report.seconds = result.seconds;
  return result;
}

JobResult Scheduler::run_one(const Job& job) {
  return evaluate_job(*engines_.front(), job, 0);
}

engine::ArtifactCache::Stats Scheduler::engine_stats() const {
  engine::ArtifactCache::Stats total;
  for (const auto& engine : engines_)
    telemetry::accumulate(total, engine->stats());
  return total;
}

Scheduler::RunStats Scheduler::run(
    std::vector<Job> jobs,
    const std::function<void(const JobResult&)>& on_result) {
  JobQueue queue(threads());
  for (Job& job : jobs) queue.push(std::move(job));

  std::mutex result_mutex;
  auto worker = [&](std::size_t index) {
    // With several workers sharing the machine, inner library loops
    // (matvec, min-cut sweeps) must not fan out again — request-level
    // parallelism already saturates the cores. A lone worker keeps them.
    std::optional<SerialRegion> serial;
    if (engines_.size() > 1) serial.emplace();
    engine::Engine& engine = *engines_[index];
    Job job;
    while (queue.pop(index, job)) {
      JobResult result = evaluate_job(engine, job, index);
      // With several workers the process-wide solver counters interleave,
      // so no single report's registry delta is attributable to it alone.
      if (engines_.size() > 1)
        result.report.provenance.registry.exclusive = false;
      const std::lock_guard<std::mutex> lock(result_mutex);
      if (on_result) on_result(result);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(engines_.size() - 1);
  for (std::size_t t = 1; t < engines_.size(); ++t)
    pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : pool) t.join();

  return RunStats{threads(), queue.steals()};
}

}  // namespace graphio::serve
