#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graphio/io/json.hpp"
#include "graphio/serve/batch_session.hpp"
#include "graphio/serve/job.hpp"
#include "graphio/serve/result_store.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::serve {
namespace {

std::vector<io::JsonValue> parse_lines(const std::string& text) {
  std::vector<io::JsonValue> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(io::JsonValue::parse(line));
  return lines;
}

TEST(StreamJobTest, ParsesLoadPatchAndNamedQuery) {
  const Job load = job_from_json_line(R"({"graph": "g", "load": "fft:5"})");
  EXPECT_EQ(load.kind, JobKind::kLoad);
  EXPECT_EQ(load.graph, "g");
  EXPECT_EQ(load.load_spec, "fft:5");

  const Job patch = job_from_json_line(
      R"({"graph": "g", "patch": [{"op": "add_edge", "u": 0, "v": 2}],
          "label": "p"})");
  EXPECT_EQ(patch.kind, JobKind::kPatch);
  EXPECT_EQ(patch.patch.size(), 1);
  EXPECT_EQ(patch.patch.label, "p");

  const Job query = job_from_json_line(
      R"({"graph": "g", "memories": [8], "methods": ["spectral"],
          "solver": "dense"})");
  EXPECT_EQ(query.kind, JobKind::kBound);
  EXPECT_TRUE(query.is_stream());
  EXPECT_EQ(query.request.spectral.solver, la::SolverKind::kDense);
}

TEST(StreamJobTest, RejectsAmbiguousOrMalformedStreamJobs) {
  // load + patch + query forms are mutually exclusive.
  EXPECT_THROW(job_from_json_line(
                   R"({"graph": "g", "load": "fft:5", "patch": []})"),
               contract_error);
  EXPECT_THROW(job_from_json_line(
                   R"({"graph": "g", "load": "fft:5", "memories": [8]})"),
               contract_error);
  // load/patch need a graph name.
  EXPECT_THROW(job_from_json_line(R"({"load": "fft:5"})"), contract_error);
  EXPECT_THROW(job_from_json_line(
                   R"({"patch": [{"op": "add_vertex"}]})"),
               contract_error);
  // A query names spec or graph, never both; label is patch-only.
  EXPECT_THROW(job_from_json_line(
                   R"({"graph": "g", "spec": "fft:5", "memories": [8]})"),
               contract_error);
  EXPECT_THROW(job_from_json_line(
                   R"({"spec": "fft:5", "memories": [8], "label": "x"})"),
               contract_error);
  EXPECT_THROW(job_from_json_line(
                   R"({"graph": "g", "load": "fft:5", "label": "x"})"),
               contract_error);
  // Analysis keys on load/patch lines would be silently dead config.
  EXPECT_THROW(job_from_json_line(
                   R"({"graph": "g", "patch": [], "solver": "dense"})"),
               contract_error);
  EXPECT_THROW(job_from_json_line(
                   R"({"graph": "g", "load": "fft:5", "processors": 2})"),
               contract_error);
  // Plain bound jobs still validate as before.
  EXPECT_THROW(job_from_json_line(R"({"memories": [8]})"), contract_error);
  EXPECT_THROW(request_from_json_line(R"({"graph": "g", "memories": [8]})"),
               contract_error);
}

TEST(StreamServeTest, InterleavedStreamAndSpecJobsRunInOrder) {
  const std::string jobs =
      R"({"graph": "g", "load": "multi:3:fft:3"})"
      "\n"
      R"({"graph": "g", "memories": [8], "methods": ["spectral"]})"
      "\n"
      R"({"graph": "g", "patch": [{"op": "add_vertex"}, {"op": "add_edge", "u": 96, "v": 0}], "label": "attach"})"
      "\n"
      R"({"graph": "g", "memories": [8], "methods": ["spectral"]})"
      "\n"
      R"({"spec": "fft:3", "memories": [8], "methods": ["spectral"]})"
      "\n";
  BatchOptions options;
  options.threads = 2;
  BatchSession session(options);
  std::istringstream in(jobs);
  std::ostringstream out;
  const BatchSummary summary = session.run(in, out);

  EXPECT_EQ(summary.jobs, 5);
  EXPECT_EQ(summary.ok, 5);
  EXPECT_EQ(summary.failed, 0);
  EXPECT_EQ(summary.stream_jobs, 4);
  EXPECT_EQ(summary.patches, 2);  // load + patch
  EXPECT_EQ(summary.mutations, 2);

  const auto lines = parse_lines(out.str());
  ASSERT_EQ(lines.size(), 5u);
  // Stream lane executes during ingest, in file order.
  EXPECT_NE(lines[0].get("load"), nullptr);
  EXPECT_EQ(lines[0].at("job").as_int(), 1);
  EXPECT_NE(lines[1].get("report"), nullptr);
  EXPECT_NE(lines[2].get("patch"), nullptr);
  EXPECT_NE(lines[3].get("report"), nullptr);

  // The first query sees 96 vertices, the post-patch query 97: ordering
  // is observable, not just asserted.
  EXPECT_EQ(lines[1].at("report").at("graph").at("vertices").as_int(), 96);
  EXPECT_EQ(lines[3].at("report").at("graph").at("vertices").as_int(), 97);
  const io::JsonValue& patch = lines[2].at("patch");
  EXPECT_EQ(patch.at("label").as_string(), "attach");
  EXPECT_EQ(patch.at("components").as_int(), 3);
  EXPECT_EQ(patch.at("dirty").as_int(), 1);
  EXPECT_EQ(patch.at("clean").as_int(), 2);

  const auto* stream = session.stream_session("g");
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->graph().num_vertices(), 97);
}

TEST(StreamServeTest, ServeLoopHandlesStreamJobsAndErrors) {
  const std::string jobs =
      R"({"graph": "g", "patch": [{"op": "add_vertex"}]})"
      "\n"
      R"({"graph": "g", "load": "fft:3"})"
      "\n"
      R"({"graph": "g", "patch": [{"op": "remove_vertex", "v": 400}]})"
      "\n"
      R"({"graph": "fft:4", "load": "fft:4"})"
      "\n"
      R"({"graph": "g", "memories": [8], "methods": ["spectral"]})"
      "\n";
  BatchSession session(BatchOptions{});
  std::istringstream in(jobs);
  std::ostringstream out;
  const BatchSummary summary = session.serve(in, out);

  const auto lines = parse_lines(out.str());
  ASSERT_EQ(lines.size(), 5u);
  // Patch before load: a structured per-line error naming the fix.
  ASSERT_NE(lines[0].get("error"), nullptr);
  EXPECT_NE(lines[0].at("error").at("message").as_string().find(
                "load it first"),
            std::string::npos);
  EXPECT_EQ(lines[0].at("error").at("kind").as_string(), "error");
  EXPECT_NE(lines[1].get("load"), nullptr);
  // Invalid mutation: error carries the mutation index and reason.
  ASSERT_NE(lines[2].get("error"), nullptr);
  EXPECT_NE(
      lines[2].at("error").at("message").as_string().find("mutation 1/1"),
      std::string::npos);
  // A graph name colliding with a family spec is rejected.
  EXPECT_NE(lines[3].get("error"), nullptr);
  EXPECT_NE(lines[4].get("report"), nullptr);

  EXPECT_EQ(summary.ok, 2);
  EXPECT_EQ(summary.failed, 3);
}

TEST(StreamServeTest, StreamResultLinesAreDeterministic) {
  const std::string jobs =
      R"({"graph": "g", "load": "multi:3:fft:3"})"
      "\n"
      R"({"graph": "g", "patch": [{"op": "add_edge", "u": 0, "v": 9}]})"
      "\n"
      R"({"graph": "g", "memories": [4, 8], "methods": ["spectral"]})"
      "\n";
  auto run_once = [&] {
    BatchSession session(BatchOptions{});
    std::istringstream in(jobs);
    std::ostringstream out;
    session.run(in, out);
    return out.str();
  };
  const std::string first = run_once();
  EXPECT_EQ(first, run_once());
  // No wall-clock fields leak into result lines.
  EXPECT_EQ(first.find("seconds"), std::string::npos);
}

TEST(StreamServeTest, RevertedStateHitsTheResultStore) {
  // Satellite (ISSUE 5): stream query rows are keyed by the session's
  // order-independent component-multiset fingerprint, so a graph that
  // reverts to a previously analyzed state hits the disk store — even
  // though the in-memory component cache evicted the patched content in
  // between. Sequence: query, patch, query, inverse patch, re-query.
  const std::filesystem::path store_dir =
      std::filesystem::temp_directory_path() / "graphio-stream-store-test";
  std::filesystem::remove_all(store_dir);

  const std::string query =
      R"({"graph": "g", "memories": [4, 8], "methods": ["spectral"]})";
  const std::string jobs =
      R"({"graph": "g", "load": "multi:3:fft:3"})" "\n" + query + "\n" +
      R"({"graph": "g", "patch": [{"op": "add_edge", "u": 0, "v": 9}]})"
      "\n" + query + "\n" +
      R"({"graph": "g", "patch": [{"op": "remove_edge", "u": 0, "v": 9}]})"
      "\n" + query + "\n";

  BatchOptions options;
  options.threads = 1;
  options.store_dir = store_dir.string();
  std::string first_out;
  BatchSummary first;
  {
    BatchSession session(options);
    std::istringstream in(jobs);
    std::ostringstream out;
    first = session.run(in, out);
    first_out = out.str();
  }
  EXPECT_EQ(first.failed, 0);
  EXPECT_EQ(first.rejected_lines, 0);
  // The post-revert query re-keys to the first query's rows: store hit,
  // and no eigensolve even though the patched component's spectrum was
  // evicted when its content disappeared.
  EXPECT_EQ(first.store_hits, 2);    // 1 method x 2 memories, third query
  EXPECT_EQ(first.store_misses, 4);  // first + post-patch queries

  // A cold process over the warm store: query-only replay of the same
  // states performs zero eigensolves.
  const std::string replay =
      R"({"graph": "g", "load": "multi:3:fft:3"})" "\n" + query + "\n";
  BatchSession session(options);
  std::istringstream in(replay);
  std::ostringstream out;
  const BatchSummary warm = session.run(in, out);
  EXPECT_EQ(warm.failed, 0);
  EXPECT_EQ(warm.store_hits, 2);
  EXPECT_EQ(warm.cache.eigensolves, 0);

  // Result lines are deterministic across computed/stored paths: the
  // reverted-state report (computed cold, then served warm) serializes
  // identically after the job-id prefix.
  const auto report_payload = [](const std::string& text) {
    std::string last;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      const auto at = line.find("\"report\"");
      if (at != std::string::npos) last = line.substr(at);
    }
    return last;
  };
  const std::string cold_report = report_payload(first_out);
  const std::string warm_report = report_payload(out.str());
  ASSERT_FALSE(cold_report.empty());
  EXPECT_EQ(cold_report, warm_report);
  std::filesystem::remove_all(store_dir);
}

TEST(StreamServeTest, NumberingSensitiveRowsBypassTheStreamStore) {
  // The multiset key is numbering-agnostic, but memsim schedules
  // tie-break on vertex ids — isomorphic states could disagree, so its
  // rows must neither persist under nor be served from the stream key.
  const std::filesystem::path store_dir =
      std::filesystem::temp_directory_path() / "graphio-stream-memsim-test";
  std::filesystem::remove_all(store_dir);
  const std::string jobs =
      R"({"graph": "g", "load": "multi:2:fft:3"})" "\n"
      R"({"graph": "g", "memories": [8], "methods": ["memsim"]})" "\n"
      R"({"graph": "g", "memories": [8], "methods": ["memsim"]})" "\n";
  BatchOptions options;
  options.threads = 1;
  options.store_dir = store_dir.string();
  for (int run = 0; run < 2; ++run) {
    BatchSession session(options);
    std::istringstream in(jobs);
    std::ostringstream out;
    const BatchSummary summary = session.run(in, out);
    EXPECT_EQ(summary.failed, 0);
    EXPECT_EQ(summary.store_hits, 0) << "run " << run;
    EXPECT_EQ(summary.store_misses, 0) << "run " << run;
    // Rows are still produced — just computed fresh each time.
    EXPECT_NE(out.str().find("\"memsim\""), std::string::npos);
  }
  std::filesystem::remove_all(store_dir);
}

TEST(ResultStoreErrorTest, UnusableStoreDirectoryIsAHardError) {
  namespace fs = std::filesystem;
  const fs::path base =
      fs::temp_directory_path() / "graphio_store_error_test";
  fs::remove_all(base);
  fs::create_directories(base);
  // A store path that exists as a regular file cannot become a directory.
  const fs::path file_path = base / "occupied";
  std::ofstream(file_path) << "not a directory\n";
  EXPECT_THROW(ResultStore{file_path}, contract_error);
  // Same through BatchSession: the constructor must throw, not fall back
  // to a silent cache-less run.
  BatchOptions options;
  options.store_dir = file_path.string();
  EXPECT_THROW(BatchSession{options}, contract_error);
  // A path *under* a regular file is just as unusable.
  BatchOptions nested;
  nested.store_dir = (file_path / "store").string();
  EXPECT_THROW(BatchSession{nested}, contract_error);
  fs::remove_all(base);
}

}  // namespace
}  // namespace graphio::serve
