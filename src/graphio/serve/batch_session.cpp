#include "graphio/serve/batch_session.hpp"

#include <algorithm>
#include <filesystem>
#include <istream>
#include <optional>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "graphio/faults/fault_injection.hpp"
#include "graphio/io/json.hpp"
#include "graphio/support/timer.hpp"

namespace graphio::serve {

namespace {

/// Any row served from a deadline- or fault-degraded evaluation. The
/// result line surfaces this at the top level so a consumer can tell
/// "sound but weaker" apart from full-strength bounds without walking
/// the rows.
bool report_degraded(const engine::BoundReport& report) {
  for (const engine::MethodRow& row : report.rows)
    if (row.degraded) return true;
  return false;
}

/// The structured error line of a failed job: kind ("reject" for an
/// unparseable line, "error" for an evaluation failure, an injected
/// fault's kind otherwise), the fault site when one fired, the attempts
/// when the job reached the scheduler's retry loop, and quarantined:true
/// when it exhausted them.
void write_error_line(std::ostream& out, const JobResult& result) {
  io::JsonWriter w;
  w.begin_object();
  w.key("job").value(result.id);
  w.key("error").begin_object();
  w.key("kind").value(result.error_kind.empty() ? std::string("error")
                                                : result.error_kind);
  if (!result.error_site.empty()) w.key("site").value(result.error_site);
  if (result.attempts > 0)
    w.key("attempts").value(static_cast<std::int64_t>(result.attempts));
  if (result.quarantined) w.key("quarantined").value(true);
  w.key("message").value(result.error);
  w.end_object();
  w.end_object();
  out << w.str() << '\n';
}

void write_report_line(std::ostream& out, const JobResult& result,
                       bool explain) {
  io::JsonWriter w;
  w.begin_object();
  w.key("job").value(result.id);
  w.key("report");
  result.report.append_json(w, /*include_timing=*/false,
                            /*include_provenance=*/explain);
  if (report_degraded(result.report)) w.key("degraded").value(true);
  w.end_object();
  out << w.str() << '\n';
}

/// Deterministic stream result line ({"job": N, "load"/"patch": {...}}):
/// structural counts and the session fingerprint, no wall-clock fields.
void write_stream_line(std::ostream& out, std::int64_t job_id,
                       std::string_view kind,
                       const stream::PatchReport& report) {
  io::JsonWriter w;
  w.begin_object();
  w.key("job").value(job_id);
  w.key(kind).begin_object();
  w.key("graph").value(report.graph);
  if (!report.label.empty()) w.key("label").value(report.label);
  w.key("mutations").value(report.mutations);
  w.key("vertices").value(report.vertices);
  w.key("edges").value(report.edges);
  w.key("components").value(static_cast<std::int64_t>(report.components));
  w.key("dirty").value(static_cast<std::int64_t>(report.dirty_components));
  w.key("clean").value(static_cast<std::int64_t>(report.clean_components));
  w.key("evicted").value(report.evicted);
  w.key("fingerprint").value(report.fingerprint);
  w.end_object();
  w.end_object();
  out << w.str() << '\n';
}

double percentile(std::vector<double> sorted_or_not, double p) {
  if (sorted_or_not.empty()) return 0.0;
  std::sort(sorted_or_not.begin(), sorted_or_not.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted_or_not.size() - 1) + 0.5);
  return sorted_or_not[std::min(rank, sorted_or_not.size() - 1)];
}

/// Process-wide per-job latency histogram — every lane (scheduler
/// workers, stream jobs, serve loop) observes into the same one, and a
/// run's summary carries the bracketing snapshot delta.
telemetry::Histogram& job_latency_histogram() {
  static telemetry::Histogram& h =
      telemetry::MetricsRegistry::global().histogram("serve.job.seconds");
  return h;
}

}  // namespace

double BatchSummary::store_hit_rate() const {
  const std::int64_t total = store_hits + store_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(store_hits) /
                          static_cast<double>(total);
}

std::string BatchSummary::to_json() const {
  io::JsonWriter w;
  w.begin_object();
  w.key("jobs").value(jobs);
  w.key("ok").value(ok);
  w.key("failed").value(failed);
  w.key("rejected_lines").value(rejected_lines);
  w.key("retried").value(retried);
  w.key("quarantined").value(quarantined);
  w.key("degraded").value(degraded);
  w.key("threads").value(threads);
  w.key("steals").value(steals);
  w.key("seconds").value(seconds);
  w.key("throughput").value(throughput);
  w.key("p50_seconds").value(p50_seconds);
  w.key("p95_seconds").value(p95_seconds);
  w.key("p99_seconds").value(p99_seconds);
  w.key("latency").begin_object();
  w.key("count").value(latency.count);
  w.key("sum_seconds").value(latency.sum);
  w.key("buckets").begin_array();
  for (std::size_t i = 0; i < latency.counts.size(); ++i) {
    if (latency.counts[i] == 0) continue;
    w.begin_object();
    if (i < latency.bounds.size())
      w.key("le").value(latency.bounds[i]);
    else
      w.key("le").value("+inf");
    w.key("count").value(latency.counts[i]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("store").begin_object();
  w.key("hits").value(store_hits);
  w.key("misses").value(store_misses);
  w.key("hit_rate").value(store_hit_rate());
  w.end_object();
  engine::append_cache_json(w, cache, /*phase_seconds=*/false);
  w.key("stream").begin_object();
  w.key("jobs").value(stream_jobs);
  w.key("patches").value(patches);
  w.key("mutations").value(mutations);
  w.key("dirty_components").value(dirty_components);
  w.key("clean_components").value(clean_components);
  w.end_object();
  w.end_object();
  return w.str();
}

BatchSession::BatchSession(const BatchOptions& options) {
  if (!options.store_dir.empty())
    store_ = std::make_unique<ResultStore>(options.store_dir);
  // One artifact store for the whole session: worker Engines and stream
  // sessions all resolve per-component artifacts from it, and with
  // artifact_dir set its disk tier makes them survive restarts.
  artifacts_ = options.artifact_dir.empty()
                   ? std::make_shared<store::ArtifactStore>()
                   : std::make_shared<store::ArtifactStore>(
                         std::filesystem::path(options.artifact_dir));
  // Stream sessions read the budget to decide whether to retain bases
  // and warm-start patched components (stream/session.cpp).
  artifacts_->set_eigenbasis_budget(options.warm_basis_mb << 20);
  telemetry::MetricsRegistry::global()
      .gauge("store.eigenbasis.budget_bytes")
      .set(static_cast<double>(artifacts_->eigenbasis_budget()));
  SchedulerOptions scheduler_options;
  scheduler_options.threads = options.threads;
  scheduler_options.store = store_.get();
  scheduler_options.artifacts = artifacts_;
  scheduler_options.max_attempts = options.max_attempts;
  scheduler_options.job_timeout_ms = options.job_timeout_ms;
  scheduler_ = std::make_unique<Scheduler>(scheduler_options);
  if (!options.provenance_dir.empty())
    provenance_ = std::make_unique<audit::ProvenanceLog>(
        std::filesystem::path(options.provenance_dir));
  explain_ = options.explain;
  durable_ = options.durable;
}

void BatchSession::sync_durable() {
  if (!durable_) return;
  if (store_ != nullptr) store_->sync();
  if (artifacts_ != nullptr) artifacts_->sync();
  if (provenance_ != nullptr) provenance_->sync();
}

BatchSession::~BatchSession() = default;

const stream::StreamSession* BatchSession::stream_session(
    const std::string& name) const {
  const auto it = streams_.find(name);
  return it == streams_.end() ? nullptr : it->second.get();
}

/// One run's output and tallies. Every finished job is reported through
/// record(): the scheduler's callback, serve's inline evaluations and
/// stream queries alike.
struct BatchSession::Run {
  std::ostream& out;
  bool explain = false;
  audit::ProvenanceLog* provenance = nullptr;
  BatchSummary summary;
  std::vector<double> latencies;

  /// The job on a non-blank input line, or nullopt after its reject line.
  std::optional<Job> parse(const std::string& line, std::int64_t line_no) {
    try {
      Job job = job_from_json_line(line);
      job.id = line_no;
      ++summary.jobs;
      return job;
    } catch (const std::exception& e) {
      JobResult reject;
      reject.id = line_no;
      reject.error = e.what();
      reject.error_kind = "reject";
      reject.attempts = 0;
      write_error_line(out, reject);
      ++summary.rejected_lines;
      return std::nullopt;
    }
  }

  void observe(double seconds) {
    job_latency_histogram().observe(seconds);
    latencies.push_back(seconds);
  }

  void record(const JobResult& result) {
    if (result.ok) {
      if (provenance != nullptr) provenance->append(result.report.provenance);
      write_report_line(out, result, explain);
      ++summary.ok;
      if (report_degraded(result.report)) ++summary.degraded;
    } else {
      write_error_line(out, result);
      ++summary.failed;
    }
    observe(result.seconds);
    if (result.attempts > 1) summary.retried += result.attempts - 1;
    if (result.quarantined) ++summary.quarantined;
    summary.store_hits += result.store_hits;
    summary.store_misses += result.store_misses;
  }
};

void BatchSession::run_stream_job(const Job& job, Run& run) {
  WallTimer timer;
  BatchSummary& summary = run.summary;
  ++summary.stream_jobs;
  JobResult result;
  result.id = job.id;
  result.attempts = 0;
  try {
    if (job.kind == JobKind::kLoad) {
      auto it = streams_.find(job.graph);
      if (it == streams_.end()) {
        // The constructor validates the name (must not collide with a
        // family spec); a bad name rejects this line only.
        it = streams_
                 .emplace(job.graph, std::make_unique<stream::StreamSession>(
                                         job.graph, artifacts_))
                 .first;
      }
      const stream::PatchReport report = it->second->load(job.load_spec);
      ++summary.patches;
      write_stream_line(run.out, job.id, "load", report);
      ++summary.ok;
      run.observe(timer.seconds());
      return;
    }

    const auto it = streams_.find(job.graph);
    GIO_EXPECTS_MSG(it != streams_.end(),
                    "unknown stream graph '" + job.graph +
                        "' — load it first ({\"graph\": \"" + job.graph +
                        "\", \"load\": SPEC})");
    stream::StreamSession& session = *it->second;
    if (job.kind == JobKind::kPatch) {
      const stream::PatchReport report = session.apply(job.patch);
      ++summary.patches;
      summary.mutations += report.mutations;
      summary.dirty_components += report.dirty_components;
      summary.clean_components += report.clean_components;
      write_stream_line(run.out, job.id, "patch", report);
      ++summary.ok;
      run.observe(timer.seconds());
      return;
    }

    if (store_ == nullptr) {
      result.report = session.evaluate(job.request);
    } else {
      // An evolving graph's durable identity is its *state*: the
      // order-independent component-multiset fingerprint the session
      // maintains incrementally. Keying rows by it means a graph that
      // reverts to a prior state (patch + inverse patch) re-keys to the
      // prior rows and hits the disk store — zero eigensolves even
      // though the dirty components' spectra were evicted in between.
      // The key is numbering-agnostic (isomorphic states share it), so
      // only isomorphism-invariant rows may live under it: memsim
      // simulates schedules that tie-break on vertex ids, and stays out.
      // Store lookups count only once the query has succeeded.
      std::int64_t hits = 0;
      std::int64_t misses = 0;
      result.report = evaluate_with_store(
          *store_, session.fingerprint(), job.request, session.name(),
          session.num_vertices(), session.num_edges(),
          [&session](const engine::BoundRequest& sub) {
            return session.evaluate(sub);
          },
          &hits, &misses,
          [](std::string_view method) { return method != "memsim"; });
      result.store_hits = hits;
      result.store_misses = misses;
    }
    telemetry::accumulate(summary.cache, result.report.cache);
    // Stream records replay from the updates file (the mutations matter,
    // not just the final query), but the query itself is still recorded.
    result.report.provenance.request = request_to_json_line(job.request);
    result.ok = true;
  } catch (const faults::FaultInjected& e) {
    // Injected mid-patch fault: the session already rolled the journal
    // back, so the graph is exactly its pre-patch state.
    result.error = e.what();
    result.error_kind = e.kind();
    result.error_site = e.site();
  } catch (const std::exception& e) {
    result.error = e.what();
    result.error_kind = "error";
  }
  result.seconds = timer.seconds();
  run.record(result);
}

BatchSummary BatchSession::run(std::istream& in, std::ostream& out) {
  return process(in, out, /*interactive=*/false);
}

BatchSummary BatchSession::serve(std::istream& in, std::ostream& out) {
  return process(in, out, /*interactive=*/true);
}

BatchSummary BatchSession::process(std::istream& in, std::ostream& out,
                                   bool interactive) {
  WallTimer timer;
  const telemetry::HistogramSnapshot latency_before =
      job_latency_histogram().snapshot();
  const engine::ArtifactCache::Stats before = scheduler_->engine_stats();
  Run run{out, explain_, provenance_.get(), {}, {}};

  // Stream jobs are stateful, so they execute during ingest, in file
  // order: each stream query sees exactly the loads/patches above it.
  // Batch mode queues bound jobs for the Scheduler, which fans them out
  // after ingest; interactive mode evaluates each at once on worker 0's
  // Engine and flushes its line. Job ids are 1-based line numbers so the
  // caller can join results back to the jobs file.
  std::vector<Job> queued;
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    if (std::optional<Job> job = run.parse(line, line_no)) {
      if (job->is_stream())
        run_stream_job(*job, run);
      else if (interactive)
        run.record(scheduler_->run_one(*job));
      else
        queued.push_back(std::move(*job));
    }
    if (interactive) out.flush();
  }

  BatchSummary& summary = run.summary;
  summary.threads = 1;
  if (!interactive) {
    // The callback is serialized by the scheduler's result mutex.
    const Scheduler::RunStats stats = scheduler_->run(
        std::move(queued), [&run](const JobResult& result) {
          run.record(result);
        });
    summary.threads = stats.threads;
    summary.steals = stats.steals;
  }
  // Accumulated, not assigned: stream queries already contributed their
  // sessions' engine deltas.
  telemetry::accumulate(
      summary.cache,
      telemetry::difference(scheduler_->engine_stats(), before));
  summary.seconds = timer.seconds();
  summary.throughput =
      summary.seconds > 0.0
          ? static_cast<double>(summary.ok + summary.failed) /
                summary.seconds
          : 0.0;
  summary.p50_seconds = percentile(run.latencies, 0.50);
  summary.p95_seconds = percentile(run.latencies, 0.95);
  summary.latency = job_latency_histogram().snapshot() - latency_before;
  summary.p99_seconds = summary.latency.percentile(0.99);
  sync_durable();
  return summary;
}

}  // namespace graphio::serve
