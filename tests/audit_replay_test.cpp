#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graphio/audit/provenance.hpp"
#include "graphio/audit/replay.hpp"
#include "graphio/serve/batch_session.hpp"

namespace graphio::audit {
namespace {

/// The updates file CI records and audits (examples/).
std::string example_updates() {
  std::ifstream in(std::string(GRAPHIO_EXAMPLES_DIR) +
                   "/stream_provenance.jsonl");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Records a provenance trail the way `graphio stream --provenance DIR`
/// does, and loads it back.
std::vector<ProvenanceRecord> record_trail(const std::string& jobs,
                                           const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  {
    serve::BatchOptions options;
    options.threads = 1;
    options.warm_basis_mb = serve::kStreamWarmBasisMb;
    options.provenance_dir = dir.string();
    serve::BatchSession session(options);
    std::istringstream in(jobs);
    std::ostringstream out;
    (void)session.serve(in, out);
  }
  std::vector<ProvenanceRecord> records =
      load_provenance(dir / "provenance.jsonl");
  std::filesystem::remove_all(dir);
  return records;
}

ReplayReport replay_with(const std::vector<ProvenanceRecord>& records,
                         const std::string& updates) {
  std::istringstream in(updates);
  return replay(records, &in);
}

const char* const kBoundJob =
    R"({"spec": "fft:5", "memories": [4], "methods": ["spectral", "mincut"]})";

bool mentions(const ReplayReport& report, const std::string& text) {
  for (const std::string& message : report.messages)
    if (message.find(text) != std::string::npos) return true;
  return false;
}

TEST(AuditReplay, ExampleStreamTrailReplaysClean) {
  const std::string updates = example_updates();
  const std::vector<ProvenanceRecord> records =
      record_trail(updates, "graphio_replay_example");
  ASSERT_EQ(records.size(), 2u);
  const ReplayReport report = replay_with(records, updates);
  EXPECT_EQ(report.records, 2);
  EXPECT_EQ(report.replayed, 2);
  EXPECT_EQ(report.issues, 0);
  EXPECT_EQ(report.mismatches, 0);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.messages.empty());
}

TEST(AuditReplay, TamperedBoundCountsOneMismatch) {
  std::vector<ProvenanceRecord> records =
      record_trail(std::string(kBoundJob) + "\n", "graphio_replay_tamper");
  ASSERT_EQ(records.size(), 1u);
  ASSERT_TRUE(replay(records, nullptr).ok());
  records[0].rows[0].bound += 1.0;
  const ReplayReport report = replay(records, nullptr);
  EXPECT_EQ(report.replayed, 1);
  EXPECT_EQ(report.mismatches, 1);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.messages.size(), 1u);
  EXPECT_NE(report.messages[0].find("record 1 ('fft:5'): row 1 (spectral"),
            std::string::npos)
      << report.messages[0];
  EXPECT_NE(report.messages[0].find("!= recorded"), std::string::npos);
}

TEST(AuditReplay, DegradedRowsNeedOnlyBeDominated) {
  std::vector<ProvenanceRecord> records =
      record_trail(std::string(kBoundJob) + "\n", "graphio_replay_degraded");
  ASSERT_EQ(records.size(), 1u);
  RowLineage& row = records[0].rows[0];
  const double fresh = row.bound;
  row.degraded = true;
  row.bound = fresh - 0.5;  // weaker than a full run: sound
  EXPECT_TRUE(replay(records, nullptr).ok());
  row.bound = fresh + 0.5;  // stronger than a full run: impossible
  const ReplayReport report = replay(records, nullptr);
  EXPECT_EQ(report.mismatches, 1);
  EXPECT_TRUE(mentions(report, "exceeds fresh bound"));
}

TEST(AuditReplay, StreamRecordsWithoutUpdatesArePending) {
  const std::vector<ProvenanceRecord> records =
      record_trail(example_updates(), "graphio_replay_pending");
  const ReplayReport report = replay(records, nullptr);
  EXPECT_EQ(report.replayed, 0);
  EXPECT_EQ(report.mismatches, 2);
  ASSERT_EQ(report.messages.size(), 1u);
  EXPECT_EQ(report.messages[0],
            "2 stream record(s) need the updates file to replay: "
            "graphio audit DIR updates.jsonl");
}

TEST(AuditReplay, QueriesBeyondOrShortOfTheTrailAreCounted) {
  const std::string updates = example_updates();
  std::vector<ProvenanceRecord> records =
      record_trail(updates, "graphio_replay_cursor");
  ASSERT_EQ(records.size(), 2u);

  // The trail lost its last record: the second query has nothing to match.
  const std::vector<ProvenanceRecord> shorter(records.begin(),
                                              records.begin() + 1);
  const ReplayReport beyond = replay_with(shorter, updates);
  EXPECT_EQ(beyond.replayed, 1);
  EXPECT_EQ(beyond.mismatches, 1);
  EXPECT_TRUE(mentions(beyond, "queries 'g' beyond the recorded trail"));

  // The updates file lost its last query: one recorded query never ran.
  const std::string truncated =
      updates.substr(0, updates.rfind("{\"graph\": \"g\", \"memories\""));
  const ReplayReport short_of = replay_with(records, truncated);
  EXPECT_EQ(short_of.replayed, 1);
  EXPECT_EQ(short_of.mismatches, 1);
  EXPECT_TRUE(mentions(short_of,
                       "1 recorded quer(ies) for 'g' never replayed"));
}

TEST(AuditReplay, FailedReplayLinesCountAsMismatches) {
  const std::vector<ProvenanceRecord> records =
      record_trail(example_updates(), "graphio_replay_failed");
  // A patch on a graph the updates file never loads fails on replay.
  const ReplayReport report = replay_with(
      records, example_updates() +
                   R"({"graph": "h", "patch": [{"op": "add_edge", "u": 0, "v": 1}]})"
                   "\n");
  EXPECT_EQ(report.replayed, 2);
  EXPECT_EQ(report.mismatches, 1);
  EXPECT_TRUE(mentions(report, "updates file line 10 failed on replay"));

  ProvenanceRecord no_request = records[0];
  no_request.kind = "bound";
  no_request.request.clear();
  const ReplayReport unreplayable = replay({no_request}, nullptr);
  EXPECT_EQ(unreplayable.mismatches, 1);
  EXPECT_TRUE(mentions(unreplayable, "carries no request"));
}

}  // namespace
}  // namespace graphio::audit
