// Tests for the graphio::serve subsystem: job parsing, the work-stealing
// scheduler, the persistent ResultStore, and the BatchSession front-end.
//
// The load-bearing guarantees certified here:
//   * result sets are identical (as sorted JSONL) across thread counts,
//   * malformed job lines are rejected without aborting the batch,
//   * a warm-store rerun is 100% disk hits and performs zero eigensolves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graphio/engine/fingerprint.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/io/json.hpp"
#include "graphio/serve/batch_session.hpp"
#include "graphio/serve/job.hpp"
#include "graphio/serve/job_queue.hpp"
#include "graphio/serve/result_store.hpp"
#include "graphio/serve/scheduler.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::serve {
namespace {

// A small mixed corpus: cheap graphs, methods covering spectra, the DP
// certificate, closed forms, and the memsim upper bound.
std::string test_jobs() {
  return R"({"spec": "fft:4", "memories": [4, 8], "methods": ["spectral", "partition-dp"]}
{"spec": "bhk:5", "memories": [8], "methods": ["spectral", "analytic"]}
{"spec": "inner:4", "memories": [4, 8], "methods": ["spectral-plain", "memsim"]}
{"spec": "tree:3", "memories": [2, 4], "methods": ["spectral", "mincut"]}
{"spec": "fft:4", "memories": [2, 16], "methods": ["spectral"]}
{"spec": "grid:4:5", "memories": [4], "methods": ["spectral", "partition-dp"]}
)";
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

BatchSummary run_jobs(const std::string& jobs, int threads,
                      std::string* output,
                      const std::string& store_dir = "") {
  BatchOptions options;
  options.threads = threads;
  options.store_dir = store_dir;
  BatchSession session(options);
  std::istringstream in(jobs);
  std::ostringstream out;
  const BatchSummary summary = session.run(in, out);
  if (output != nullptr) *output = out.str();
  return summary;
}

/// Temp directory that cleans up after itself.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

// -------------------------------------------------------------- job parsing

TEST(ServeJob, ParsesFullJobLine) {
  const engine::BoundRequest request = request_from_json_line(
      R"({"spec": "fft:6", "name": "butterfly", "memories": [4, 8.5],)"
      R"( "methods": ["spectral", "mincut"], "processors": 4,)"
      R"( "sim_random_orders": 7})");
  EXPECT_EQ(request.spec, "fft:6");
  EXPECT_EQ(request.name, "butterfly");
  EXPECT_EQ(request.memories, (std::vector<double>{4.0, 8.5}));
  EXPECT_EQ(request.methods,
            (std::vector<std::string>{"spectral", "mincut"}));
  EXPECT_EQ(request.processors, 4);
  EXPECT_EQ(request.sim_random_orders, 7);
}

TEST(ServeJob, DefaultsAreMinimal) {
  const engine::BoundRequest request =
      request_from_json_line(R"({"spec": "bhk:5", "memories": [8]})");
  EXPECT_TRUE(request.methods.empty());  // empty selects every method
  EXPECT_EQ(request.processors, 1);
}

TEST(ServeJob, RejectsMalformedLines) {
  EXPECT_THROW(request_from_json_line("not json"), contract_error);
  EXPECT_THROW(request_from_json_line("[1, 2]"), contract_error);
  EXPECT_THROW(request_from_json_line(R"({"memories": [4]})"),
               contract_error);  // missing spec
  EXPECT_THROW(request_from_json_line(R"({"spec": "fft:4"})"),
               contract_error);  // missing memories
  EXPECT_THROW(
      request_from_json_line(R"({"spec": "fft:4", "memories": []})"),
      contract_error);  // empty sweep
  EXPECT_THROW(
      request_from_json_line(R"({"spec": "fft:4", "memories": [-1]})"),
      contract_error);  // negative memory
  EXPECT_THROW(request_from_json_line(
                   R"({"spec": "fft:4", "memories": [4], "bogus": 1})"),
               contract_error);  // unknown key
  EXPECT_THROW(request_from_json_line(
                   R"({"spec": "fft:4", "memories": [4], "processors": 0})"),
               contract_error);
}

TEST(ServeJob, RoundTripsThroughJsonLine) {
  engine::BoundRequest request;
  request.spec = "matmul:4";
  request.name = "mm";
  request.memories = {4, 8};
  request.methods = {"spectral"};
  request.processors = 2;
  const engine::BoundRequest back =
      request_from_json_line(request_to_json_line(request));
  EXPECT_EQ(back.spec, request.spec);
  EXPECT_EQ(back.name, request.name);
  EXPECT_EQ(back.memories, request.memories);
  EXPECT_EQ(back.methods, request.methods);
  EXPECT_EQ(back.processors, request.processors);
}

TEST(ServeJob, SolverPolicyKeysParseAndRoundTrip) {
  const engine::BoundRequest request = request_from_json_line(
      R"({"spec": "fft:5", "memories": [8], "solver": "dense",)"
      R"( "decompose": false})");
  EXPECT_EQ(request.spectral.solver, la::SolverKind::kDense);
  EXPECT_FALSE(request.spectral.decompose);

  const engine::BoundRequest back =
      request_from_json_line(request_to_json_line(request));
  EXPECT_EQ(back.spectral.solver, la::SolverKind::kDense);
  EXPECT_FALSE(back.spectral.decompose);

  // Defaults are omitted from the serialized line.
  engine::BoundRequest defaults;
  defaults.spec = "fft:5";
  defaults.memories = {8};
  const std::string line = request_to_json_line(defaults);
  EXPECT_EQ(line.find("solver"), std::string::npos);
  EXPECT_EQ(line.find("decompose"), std::string::npos);
}

TEST(ServeJob, UnknownSolverIsRejectedWithRegisteredNames) {
  try {
    request_from_json_line(
        R"({"spec": "fft:5", "memories": [8], "solver": "qr"})");
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("auto|dense|lanczos|lobpcg"),
              std::string::npos);
  }
}

// -------------------------------------------------------------- fingerprint

TEST(Fingerprint, EqualGraphsCollideDistinctGraphsDiffer) {
  const Digraph a = builders::fft(4);
  const Digraph b = builders::fft(4);
  const Digraph c = builders::fft(5);
  EXPECT_EQ(engine::graph_fingerprint(a), engine::graph_fingerprint(b));
  EXPECT_NE(engine::graph_fingerprint(a), engine::graph_fingerprint(c));

  // Same edge count, different wiring.
  Digraph d(3);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  Digraph e(3);
  e.add_edge(0, 1);
  e.add_edge(0, 2);
  EXPECT_NE(engine::graph_fingerprint(d), engine::graph_fingerprint(e));
}

TEST(Fingerprint, IgnoresNamesAndRendersHex) {
  Digraph a(2);
  a.add_edge(0, 1);
  Digraph b(2);
  b.add_edge(0, 1);
  b.set_name(0, "input");
  EXPECT_EQ(engine::graph_fingerprint(a), engine::graph_fingerprint(b));
  const std::string hex = engine::fingerprint_hex(0xDEADBEEFULL);
  EXPECT_EQ(hex, "00000000deadbeef");
}

// ---------------------------------------------------------------- job queue

TEST(JobQueue, ShardAffinityAndStealing) {
  JobQueue queue(2);
  for (int i = 0; i < 8; ++i) {
    Job job;
    job.id = i;
    job.request.spec = "fft:4";  // one spec -> one shard
    queue.push(std::move(job));
  }
  // Whichever shard owns the spec, both workers must drain all 8 jobs.
  std::vector<std::int64_t> seen;
  Job job;
  while (queue.pop(0, job)) seen.push_back(job.id);
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_FALSE(queue.pop(1, job));
}

TEST(JobQueue, StealsFromBack) {
  JobQueue queue(2);
  for (int i = 0; i < 4; ++i) {
    Job job;
    job.id = i;
    queue.push_to_shard(0, std::move(job));
  }
  Job job;
  ASSERT_TRUE(queue.pop(1, job));  // worker 1 owns nothing; steals
  EXPECT_EQ(job.id, 3);            // from the back
  EXPECT_EQ(queue.steals(), 1);
  ASSERT_TRUE(queue.pop(0, job));  // owner pops from the front
  EXPECT_EQ(job.id, 0);
}

// ---------------------------------------------------------------- scheduler

TEST(Scheduler, ResultsMatchSerialAcrossThreadCounts) {
  std::string serial;
  std::string threaded;
  const BatchSummary s1 = run_jobs(test_jobs(), 1, &serial);
  const BatchSummary s4 = run_jobs(test_jobs(), 4, &threaded);
  EXPECT_EQ(s1.ok, 6);
  EXPECT_EQ(s4.ok, 6);
  EXPECT_EQ(s1.failed, 0);
  // Completion order may differ; content may not.
  EXPECT_EQ(sorted_lines(serial), sorted_lines(threaded));
}

TEST(Scheduler, FingerprintResolverIsRaceFreeAcrossWorkers) {
  // Specs sharing component content shard to different workers, whose
  // Engines race fingerprint-first lookups and publishes on the one
  // shared ArtifactStore — the hook the TSan job pins down.
  // Determinism across thread counts certifies the resolved solves are
  // the same answers a serial run computes.
  std::string jobs;
  for (int copies = 1; copies <= 6; ++copies)
    jobs += "{\"spec\": \"multi:" + std::to_string(copies) +
            ":fft:4\", \"memories\": [4, 8], \"methods\": [\"spectral\"]}\n";
  std::string serial;
  std::string threaded;
  run_jobs(jobs, 1, &serial);
  const BatchSummary s4 = run_jobs(jobs, 4, &threaded);
  EXPECT_EQ(s4.ok, 6);
  EXPECT_EQ(sorted_lines(serial), sorted_lines(threaded));
  // Every job after the first resolves its components without solving:
  // at most one eigensolve per raced worker can slip through.
  EXPECT_GT(s4.cache.component_hits, 0);
  EXPECT_EQ(s4.cache.fingerprint_computes,
            s4.cache.component_hits + s4.cache.eigensolves);
}

TEST(Scheduler, FailedJobsReportWithoutSinkingTheBatch) {
  const std::string jobs =
      R"({"spec": "fft:4", "memories": [4], "methods": ["spectral"]}
{"spec": "nonsense:9", "memories": [4], "methods": ["spectral"]}
{"spec": "fft:4", "memories": [4], "methods": ["no-such-method"]}
)";
  std::string output;
  const BatchSummary summary = run_jobs(jobs, 2, &output);
  EXPECT_EQ(summary.jobs, 3);
  EXPECT_EQ(summary.ok, 1);
  EXPECT_EQ(summary.failed, 2);
  EXPECT_NE(output.find("\"error\""), std::string::npos);
  EXPECT_NE(output.find("unknown method"), std::string::npos);
}

TEST(Scheduler, RunOneEvaluatesSynchronously) {
  Scheduler scheduler(SchedulerOptions{.threads = 1});
  Job job;
  job.id = 42;
  job.request.spec = "inner:3";
  job.request.memories = {4};
  job.request.methods = {"spectral"};
  const JobResult result = scheduler.run_one(job);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.id, 42);
  ASSERT_EQ(result.report.rows.size(), 1u);
  EXPECT_EQ(result.report.rows[0].method, "spectral");
}

TEST(Scheduler, MatchesSequentialEvaluation) {
  std::vector<Job> jobs(3);
  jobs[0].request.spec = "fft:4";
  jobs[1].request.spec = "bhk:5";
  jobs[2].request.spec = "inner:5";
  std::vector<engine::BoundRequest> requests;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<std::int64_t>(i);
    jobs[i].request.memories = {3.0, 6.0};
    jobs[i].request.methods = {"spectral", "mincut", "partition-dp"};
    requests.push_back(jobs[i].request);
  }
  std::vector<engine::BoundReport> parallel(jobs.size());
  Scheduler scheduler(SchedulerOptions{.threads = 3});
  scheduler.run(std::move(jobs), [&parallel](const JobResult& result) {
    EXPECT_TRUE(result.ok) << result.error;
    parallel[static_cast<std::size_t>(result.id)] = result.report;
  });
  engine::Engine serial_engine;
  std::vector<engine::BoundReport> serial;
  for (const engine::BoundRequest& request : requests)
    serial.push_back(serial_engine.evaluate(request));

  ASSERT_EQ(parallel.size(), 3u);
  ASSERT_EQ(serial.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parallel[i].graph, requests[i].spec);
    ASSERT_EQ(parallel[i].rows.size(), serial[i].rows.size());
    for (std::size_t j = 0; j < parallel[i].rows.size(); ++j)
      EXPECT_DOUBLE_EQ(parallel[i].rows[j].value, serial[i].rows[j].value)
          << requests[i].spec << " row " << j;
  }
  const std::string json = engine::reports_to_json(parallel);
  EXPECT_TRUE(io::json_valid(json));
}

// ------------------------------------------------------------ batch session

TEST(BatchSession, MalformedLinesAreRejectedNotFatal) {
  const std::string jobs =
      "\n"
      "# a comment line\n"
      R"({"spec": "fft:4", "memories": [4], "methods": ["spectral"]})"
      "\n"
      "{broken json\n"
      R"({"spec": "tree:3", "memories": [4], "methods": ["spectral"]})"
      "\n"
      R"({"spec": "tree:3", "memories": [4], "methods": 17})"
      "\n";
  std::string output;
  const BatchSummary summary = run_jobs(jobs, 2, &output);
  EXPECT_EQ(summary.jobs, 2);
  EXPECT_EQ(summary.ok, 2);
  EXPECT_EQ(summary.rejected_lines, 2);
  // Rejected lines keep their ids: lines 4 and 6 of the input.
  EXPECT_NE(output.find("{\"job\":4,\"error\""), std::string::npos);
  EXPECT_NE(output.find("{\"job\":6,\"error\""), std::string::npos);
}

TEST(BatchSession, EveryResultLineIsValidJson) {
  std::string output;
  run_jobs(test_jobs(), 2, &output);
  for (const std::string& line : sorted_lines(output))
    EXPECT_TRUE(io::json_valid(line)) << line;
}

TEST(BatchSession, SummaryJsonIsValid) {
  std::string output;
  const BatchSummary summary = run_jobs(test_jobs(), 2, &output);
  EXPECT_TRUE(io::json_valid(summary.to_json())) << summary.to_json();
  EXPECT_GT(summary.throughput, 0.0);
  EXPECT_GE(summary.p95_seconds, summary.p50_seconds);
}

// A job line whose numbers RFC 8259 forbids is not JSON: it is rejected,
// not served.
TEST(BatchSession, NonRfcNumbersAreRejected) {
  const std::string jobs =
      R"({"spec": "fft:4", "memories": [08], "methods": ["spectral"]})"
      "\n"
      R"({"spec": "fft:4", "memories": [8.], "methods": ["spectral"]})"
      "\n"
      R"({"spec": "fft:4", "memories": [8], "methods": ["spectral"]})"
      "\n";
  std::string output;
  const BatchSummary summary = run_jobs(jobs, 1, &output);
  EXPECT_EQ(summary.rejected_lines, 2);
  EXPECT_EQ(summary.jobs, 1);
  EXPECT_EQ(summary.ok, 1);
  for (int job : {1, 2}) {
    const std::string prefix =
        "{\"job\":" + std::to_string(job) + ",\"error\":{\"kind\":\"reject\"";
    EXPECT_NE(output.find(prefix), std::string::npos) << output;
  }
}

// Error lines name the failed condition, never a source path: result
// lines must not differ between checkouts.
TEST(BatchSession, ErrorLinesCarryNoSourceLocation) {
  const std::string jobs =
      R"({"graph": "nope", "memories": [8], "methods": ["spectral"]})"
      "\n";
  std::string output;
  const BatchSummary summary = run_jobs(jobs, 1, &output);
  EXPECT_EQ(summary.failed, 1);
  EXPECT_NE(output.find("unknown stream graph 'nope'"), std::string::npos)
      << output;
  EXPECT_EQ(output.find(".cpp:"), std::string::npos) << output;
  EXPECT_EQ(output.find(".hpp:"), std::string::npos) << output;
}

// -------------------------------------------------------------- result store

TEST(ResultStore, PersistsAndReloadsRows) {
  const TempDir dir("graphio_store_roundtrip");
  ResultStore::Key key;
  key.graph_fingerprint = 0x1234;
  key.method = "spectral";
  key.memory = 8.0;
  engine::MethodRow row;
  row.method = "spectral";
  row.memory = 8.0;
  row.kind = engine::BoundKind::kLower;
  row.value = 123.456789012345;
  row.best_k = 7;
  row.converged = true;
  row.note = "k=7";
  {
    ResultStore store(dir.path);
    EXPECT_FALSE(store.lookup(key).has_value());
    store.insert(key, row);
    EXPECT_TRUE(store.lookup(key).has_value());
    EXPECT_EQ(store.stats().appended, 1);
  }
  ResultStore reloaded(dir.path);
  EXPECT_EQ(reloaded.stats().loaded, 1);
  const auto back = reloaded.lookup(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->value, row.value);  // exact double round-trip
  EXPECT_EQ(back->best_k, row.best_k);
  EXPECT_EQ(back->note, row.note);
  EXPECT_EQ(back->kind, row.kind);
}

TEST(ResultStore, SkipsCorruptLinesOnLoad) {
  const TempDir dir("graphio_store_corrupt");
  {
    ResultStore store(dir.path);
    ResultStore::Key key;
    key.graph_fingerprint = 1;
    key.method = "spectral";
    key.memory = 4.0;
    engine::MethodRow row;
    row.method = "spectral";
    row.memory = 4.0;
    store.insert(key, row);
  }
  {
    // Simulate a torn write.
    std::ofstream log(dir.path / "results.jsonl", std::ios::app);
    log << "{\"graph\":\"0000\n";
  }
  ResultStore store(dir.path);
  EXPECT_EQ(store.stats().loaded, 1);
  EXPECT_EQ(store.stats().corrupt, 1);
}

TEST(ResultStore, TornTailWithoutNewlineKeepsTheNextInsert) {
  const TempDir dir("graphio_store_torn_tail");
  ResultStore::Key first;
  first.graph_fingerprint = 1;
  first.method = "spectral";
  first.memory = 4.0;
  engine::MethodRow row;
  row.method = "spectral";
  row.memory = 4.0;
  row.value = 2.5;
  { ResultStore(dir.path).insert(first, row); }
  {
    // A crash mid-append: the fragment has no trailing newline.
    std::ofstream log(dir.path / "results.jsonl", std::ios::app);
    log << "{\"graph\":\"0000";
  }
  ResultStore::Key second = first;
  second.memory = 8.0;
  {
    ResultStore store(dir.path);
    EXPECT_EQ(store.stats().corrupt, 1);
    store.insert(second, row);
    EXPECT_EQ(store.stats().appended, 1);
  }
  // The new row landed on its own line: it survives the next restart.
  ResultStore store(dir.path);
  EXPECT_EQ(store.stats().loaded, 2);
  EXPECT_EQ(store.stats().corrupt, 1);
  const auto back = store.lookup(second);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->value, 2.5);
}

TEST(ResultStore, WarmRerunHitsDiskAndSkipsEigensolves) {
  const TempDir dir("graphio_store_warm");
  std::string cold_output;
  const BatchSummary cold =
      run_jobs(test_jobs(), 2, &cold_output, dir.path.string());
  EXPECT_EQ(cold.ok, 6);
  EXPECT_EQ(cold.store_hits, 0);
  EXPECT_GT(cold.store_misses, 0);
  EXPECT_GT(cold.cache.eigensolves, 0);

  std::string warm_output;
  const BatchSummary warm =
      run_jobs(test_jobs(), 2, &warm_output, dir.path.string());
  EXPECT_EQ(warm.ok, 6);
  EXPECT_EQ(warm.store_misses, 0);
  EXPECT_EQ(warm.store_hits, cold.store_misses);
  EXPECT_DOUBLE_EQ(warm.store_hit_rate(), 1.0);
  EXPECT_EQ(warm.cache.eigensolves, 0);   // the headline guarantee
  EXPECT_EQ(warm.cache.mincut_sweeps, 0);

  // And the results are byte-identical to the cold run's.
  EXPECT_EQ(sorted_lines(cold_output), sorted_lines(warm_output));
}

TEST(ResultStore, ExplicitGraphJobsAreContentAddressed) {
  // A request carrying an explicit Digraph (no buildable spec) must work
  // with the store, and must share warm rows with the equivalent family
  // spec: content-addressing ignores how the request named the graph.
  const TempDir dir("graphio_store_explicit");
  ResultStore store(dir.path);
  SchedulerOptions options;
  options.threads = 1;
  options.store = &store;
  Scheduler scheduler(options);

  Job by_graph;
  by_graph.id = 1;
  by_graph.request.graph = builders::fft(4);
  by_graph.request.name = "anonymous-dag";
  by_graph.request.memories = {4};
  by_graph.request.methods = {"spectral"};
  const JobResult cold = scheduler.run_one(by_graph);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.store_misses, 1);
  EXPECT_EQ(cold.report.vertices, builders::fft(4).num_vertices());

  Job by_spec;
  by_spec.id = 2;
  by_spec.request.spec = "fft:4";
  by_spec.request.memories = {4};
  by_spec.request.methods = {"spectral"};
  const JobResult warm = scheduler.run_one(by_spec);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.store_hits, 1);
  EXPECT_EQ(warm.report.rows[0].value, cold.report.rows[0].value);
}

TEST(ResultStore, FailureRowsAreNeverPersisted) {
  // A method that throws out of evaluate() is converted by the Engine to
  // applicable=false, converged=false rows; those must not poison the
  // store (the failure could be transient). Methods whose *deterministic*
  // verdict is "inapplicable" stay converged and cached.
  const TempDir dir("graphio_store_failures");
  const std::string jobs =
      // pebble-exact on 80 vertices: deterministic inapplicability.
      R"({"spec": "fft:4", "memories": [4], "methods": ["pebble-exact"]})"
      "\n";
  const BatchSummary cold = run_jobs(jobs, 1, nullptr, dir.path.string());
  EXPECT_EQ(cold.ok, 1);
  const BatchSummary warm = run_jobs(jobs, 1, nullptr, dir.path.string());
  EXPECT_EQ(warm.store_hits, 1);  // the verdict row was cached

  // An explicit graph whose display name parses as "fft:x" routes the
  // analytic method into int_param("x"), which throws mid-evaluate — the
  // archetype of a row the Engine flags converged=false. It must be
  // reported but never written to the store.
  ResultStore store(dir.path);
  SchedulerOptions options;
  options.threads = 1;
  options.store = &store;
  Scheduler scheduler(options);
  Job job;
  job.id = 7;
  job.request.graph = builders::fft(3);
  job.request.name = "fft:x";
  job.request.memories = {4};
  job.request.methods = {"analytic"};
  const std::int64_t appended_before = store.stats().appended;
  const JobResult first = scheduler.run_one(job);
  ASSERT_TRUE(first.ok);
  ASSERT_EQ(first.report.rows.size(), 1u);
  EXPECT_FALSE(first.report.rows[0].applicable);
  EXPECT_FALSE(first.report.rows[0].converged);
  EXPECT_EQ(store.stats().appended, appended_before);  // nothing persisted
  const JobResult second = scheduler.run_one(job);
  EXPECT_EQ(second.store_hits, 0);  // recomputed, not served from disk
}

TEST(ResultStore, SharedAcrossSpecSpellings) {
  // fft:4 via the family builder and via an edgelist file have the same
  // fingerprint, so one warms the store for the other.
  const TempDir dir("graphio_store_spelling");
  const std::filesystem::path gel = dir.path / "g.gel";
  std::filesystem::create_directories(dir.path);
  {
    std::ofstream out(gel);
    const Digraph g = builders::fft(4);
    out << "graphio-edgelist 1\nn " << g.num_vertices() << "\n";
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      for (VertexId c : g.children(v)) out << "e " << v << " " << c << "\n";
  }
  const std::string store_dir = (dir.path / "store").string();
  BatchSummary family = run_jobs(
      R"({"spec": "fft:4", "memories": [4], "methods": ["spectral"]})"
      "\n",
      1, nullptr, store_dir);
  EXPECT_EQ(family.store_misses, 1);
  BatchSummary file = run_jobs(
      R"({"spec": ")" + gel.string() + R"(", "memories": [4], "methods": ["spectral"]})"
      "\n",
      1, nullptr, store_dir);
  EXPECT_EQ(file.store_hits, 1);
  EXPECT_EQ(file.cache.eigensolves, 0);
}

// -------------------------------------------------------------- serve loop

TEST(BatchSession, ServeLoopAnswersLineByLine) {
  BatchSession session(BatchOptions{.threads = 1});
  std::istringstream in(
      R"({"spec": "inner:3", "memories": [4], "methods": ["spectral"]})"
      "\n"
      "garbage\n"
      R"({"spec": "inner:3", "memories": [8], "methods": ["spectral"]})"
      "\n");
  std::ostringstream out;
  const BatchSummary summary = session.serve(in, out);
  EXPECT_EQ(summary.ok, 2);
  EXPECT_EQ(summary.rejected_lines, 1);
  const std::vector<std::string> lines = sorted_lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) EXPECT_TRUE(io::json_valid(line));
  // The second request reuses the first's spectrum (same worker Engine).
  EXPECT_GT(summary.cache.hits, 0);
}

/// The count fields of a summary, timing left out.
std::string summary_counts(const BatchSummary& s) {
  io::JsonWriter w;
  w.begin_array();
  for (std::int64_t v :
       {s.jobs, s.ok, s.failed, s.rejected_lines, s.retried, s.quarantined,
        s.degraded, std::int64_t{s.threads}, s.steals, s.latency.count,
        s.store_hits, s.store_misses, s.stream_jobs, s.patches, s.mutations,
        s.dirty_components, s.clean_components})
    w.value(v);
  w.end_array();
  io::JsonWriter cache;
  cache.begin_object();
  engine::append_cache_json(cache, s.cache, /*phase_seconds=*/false);
  cache.end_object();
  return w.str() + cache.str();
}

// run() and serve() are one job loop: the same input prints the same
// lines and counts either way. The spec jobs use content the stream graph
// never holds, so lane order cannot show through the shared artifact
// store (a patch's `evicted` count would).
TEST(BatchSession, RunAndServeAgree) {
  const std::string jobs =
      "# comment\n"
      "\n"
      "not json\n"
      R"({"spec": "bhk:5", "memories": [4, 8], "methods": ["spectral", "mincut"]})"
      "\n"
      R"({"spec": "nonsense:9", "memories": [4], "methods": ["spectral"]})"
      "\n"
      R"({"graph": "g", "load": "multi:2:fft:3"})"
      "\n"
      R"({"graph": "g", "patch": [{"op": "add_vertex"}, {"op": "add_edge", "u": 64, "v": 0}]})"
      "\n"
      R"({"graph": "g", "memories": [8], "methods": ["spectral"]})"
      "\n"
      R"({"graph": "missing", "memories": [8], "methods": ["spectral"]})"
      "\n";
  std::string batch;
  std::string served;
  BatchSummary batch_summary;
  BatchSummary serve_summary;
  {
    BatchSession session(BatchOptions{.threads = 1});
    std::istringstream in(jobs);
    std::ostringstream out;
    batch_summary = session.run(in, out);
    batch = out.str();
  }
  {
    BatchSession session(BatchOptions{.threads = 1});
    std::istringstream in(jobs);
    std::ostringstream out;
    serve_summary = session.serve(in, out);
    served = out.str();
  }
  EXPECT_EQ(sorted_lines(batch), sorted_lines(served));
  EXPECT_EQ(sorted_lines(batch).size(), 7u);
  EXPECT_EQ(summary_counts(batch_summary), summary_counts(serve_summary));
  EXPECT_EQ(batch_summary.jobs, 6);
  EXPECT_EQ(batch_summary.ok, 4);
  EXPECT_EQ(batch_summary.failed, 2);
  EXPECT_EQ(batch_summary.rejected_lines, 1);
  EXPECT_EQ(batch_summary.stream_jobs, 4);
}

}  // namespace
}  // namespace graphio::serve
