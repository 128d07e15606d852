// Tests for graphio::JsonlLog — the one durable append-only JSONL log
// behind the artifact store, the result store and the provenance trail.
//
// The load-bearing guarantees certified here:
//   * replay feeds every non-blank line once; a throwing callback counts
//     the line corrupt and replay continues,
//   * a torn final line (no '\n') is terminated before the first append,
//     so the next record keeps a line of its own,
//   * the first write failure demotes the log: later appends are dropped,
//     the file is never corrupted,
//   * concurrent appends never interleave within a line.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graphio/faults/fault_injection.hpp"
#include "graphio/support/jsonl_log.hpp"

namespace graphio {
namespace {

/// Temp directory that cleans up after itself.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

JsonlLog::Spec test_spec() {
  // Borrows the artifact store's fault sites, which are registered.
  return {"log.jsonl", "test", "store.disk", "test log", "carrying on"};
}

std::string read_file(const std::filesystem::path& file) {
  std::ifstream in(file, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Replays `log`, treating any line not shaped `{...}` as corrupt.
std::vector<std::string> replay_lines(const JsonlLog& log,
                                      std::int64_t* corrupt) {
  std::vector<std::string> lines;
  *corrupt = log.replay([&lines](const std::string& line) {
    if (line.front() != '{' || line.back() != '}')
      throw std::runtime_error("not a record");
    lines.push_back(line);
  });
  return lines;
}

TEST(JsonlLog, ReplayFeedsRecordsAndCountsCorruptLines) {
  const TempDir dir("graphio_jsonl_replay");
  std::filesystem::create_directories(dir.path);
  std::ofstream(dir.path / "log.jsonl") << "{1}\n\ngarbage\n{2}\n";
  const JsonlLog log(dir.path, test_spec());
  std::int64_t corrupt = 0;
  const std::vector<std::string> lines = replay_lines(log, &corrupt);
  EXPECT_EQ(lines, (std::vector<std::string>{"{1}", "{2}"}));
  EXPECT_EQ(corrupt, 1);  // the blank line is skipped, not corrupt
}

TEST(JsonlLog, TornTailIsTerminatedBeforeTheFirstAppend) {
  const TempDir dir("graphio_jsonl_torn");
  std::filesystem::create_directories(dir.path);
  std::ofstream(dir.path / "log.jsonl") << "{1}\n{\"torn";
  {
    JsonlLog log(dir.path, test_spec());
    // Opening alone never writes: a read-only user leaves the bytes as-is.
    EXPECT_EQ(read_file(log.path()), "{1}\n{\"torn");
    EXPECT_TRUE(log.append("{2}"));
    EXPECT_TRUE(log.append("{3}"));
    EXPECT_EQ(log.appended(), 2);
  }
  EXPECT_EQ(read_file(dir.path / "log.jsonl"), "{1}\n{\"torn\n{2}\n{3}\n");
  const JsonlLog reopened(dir.path, test_spec());
  std::int64_t corrupt = 0;
  EXPECT_EQ(replay_lines(reopened, &corrupt).size(), 3u);
  EXPECT_EQ(corrupt, 1);
}

TEST(JsonlLog, WriteFaultDemotesOnceAndKeepsTheFileClean) {
  const TempDir dir("graphio_jsonl_demote");
  JsonlLog log(dir.path, test_spec());
  EXPECT_TRUE(log.append("{1}"));
  {
    const faults::ScopedFaultPlan plan("store.disk.append:nth=1");
    EXPECT_FALSE(log.append("{2}"));
  }
  EXPECT_TRUE(log.demoted());
  EXPECT_FALSE(log.append("{3}"));  // dropped, never crashes
  EXPECT_NO_THROW(log.sync());      // no-op once demoted
  EXPECT_EQ(log.appended(), 1);
  EXPECT_EQ(read_file(log.path()), "{1}\n");
}

TEST(JsonlLog, ConcurrentAppendsKeepLinesWhole) {
  const TempDir dir("graphio_jsonl_threads");
  JsonlLog log(dir.path, test_spec());
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&log, t] {
      const std::string line = "{" + std::string(40, char('a' + t)) + "}";
      for (int i = 0; i < kLines; ++i) log.append(line);
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(log.appended(), kThreads * kLines);
  std::int64_t corrupt = 0;
  const std::vector<std::string> lines = replay_lines(log, &corrupt);
  EXPECT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kLines));
  EXPECT_EQ(corrupt, 0);
  for (const std::string& line : lines) {
    ASSERT_EQ(line.size(), 42u);
    EXPECT_EQ(line.find_first_not_of(line[1], 1), 41u) << line;
  }
}

}  // namespace
}  // namespace graphio
