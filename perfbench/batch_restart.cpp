// batch-restart: a serve process restarting against warm stores.
//
// Set-up writes ER components into job graph files (each job graph is a
// disjoint union of 1–4 components from one pool, so jobs share
// components), then runs a cold BatchSession pass that fills both the
// ResultStore (--store) and the ArtifactStore disk tier
// (--store-artifacts). The jobs fall into kGroups groups; the cold pass
// runs each group's jobs as one batch. Op g is one restart: a fresh
// BatchSession with one worker thread on a pristine copy of the warm
// directories (the copy is made untimed), running three passes of group
// g's jobs:
//   1. the cold pass's jobs again           — ResultStore reads;
//   2. the same graphs at new memory windows — artifact-store reads plus
//      partition/memsim computes and appends;
//   3. new unions of known components       — spectra hit, results miss.
// The op ends at the last result line. Out of the timed region, pass 1's
// lines must equal the cold pass's byte for byte after sorting, no line may
// be an error, and every restart of a group must print the same lines as
// its first.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/components.hpp"
#include "graphio/io/edgelist.hpp"
#include "graphio/serve/batch_session.hpp"
#include "graphio/serve/job.hpp"
#include "graphio/serve/result_store.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/support/prng.hpp"
#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/trace.hpp"

namespace perfbench {
namespace {

using namespace graphio;
namespace fs = std::filesystem;

constexpr int kComponents = 80;
constexpr int kJobs = 120;
constexpr int kGroups = 8;
constexpr int kGroupJobs = kJobs / kGroups;
const std::vector<double> kColdMemories = {4, 16};
const std::vector<double> kNewMemories = {8, 32};
const std::vector<std::string> kMethods = {"spectral", "partition-dp",
                                           "memsim"};
// Repetitions of the untimed replay/parse measurements per phase.
constexpr int kReplayReps = 3;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// The "job" id of a result line, or -1.
std::int64_t job_id(const std::string& line) {
  const auto key = line.find("\"job\"");
  if (key == std::string::npos) return -1;
  const auto colon = line.find(':', key);
  if (colon == std::string::npos) return -1;
  return std::strtoll(line.c_str() + colon + 1, nullptr, 10);
}

std::string job_line(const std::string& spec,
                     const std::vector<double>& memories) {
  engine::BoundRequest request;
  request.spec = spec;
  request.memories = memories;
  request.methods = kMethods;
  return serve::request_to_json_line(request);
}

std::int64_t file_bytes(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(size);
}

class BatchRestart final : public Workload {
 public:
  explicit BatchRestart(const WorkloadConfig& config)
      : config_(config), root_(fs::absolute(config.workdir / "batch-restart")) {}

  ~BatchRestart() override {
    session_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void setup() override {
    session_.reset();
    fs::remove_all(root_);
    fs::create_directories(root_ / "graphs");

    // Sizes 40..120 spread evenly over the pool and shuffled by seed, and
    // a fixed number of components per job graph: the seed picks which
    // graphs, not how much work, so runs with different seeds compare.
    Prng rng(config_.seed);
    std::vector<std::int64_t> sizes;
    for (int c = 0; c < kComponents; ++c)
      sizes.push_back(40 + c * 80 / (kComponents - 1));
    for (std::size_t i = sizes.size(); i > 1; --i)
      std::swap(sizes[i - 1], sizes[rng.below(i)]);
    std::vector<Digraph> pool;
    for (int c = 0; c < kComponents; ++c)
      pool.push_back(builders::erdos_renyi_dag(
          sizes[static_cast<std::size_t>(c)], 0.06,
          config_.seed * 100000 + static_cast<std::uint64_t>(c)));
    // Distinct component multisets: 2 * kJobs unions, the first kJobs for
    // the cold pass (and pass 2), the rest for pass 3. Draws walk one seeded
    // permutation of the pool after another, so every component is used
    // about equally often. The cold pass walks the whole first permutation,
    // so it solves every component and pass 3 never needs an eigensolve. A
    // pick holding an unused entry of the first permutation is always a new
    // multiset, so none of those entries is lost to the duplicate check.
    std::vector<std::size_t> order(kComponents);
    std::size_t next = order.size();
    std::set<std::vector<std::size_t>> seen;
    graph_files_.clear();
    while (graph_files_.size() < 2 * static_cast<std::size_t>(kJobs)) {
      // Every tenth graph is a single component; the rest union 2–4.
      const std::size_t i = graph_files_.size();
      std::vector<std::size_t> pick(i % 10 == 0 ? 1 : 2 + i % 3);
      for (auto& index : pick) {
        if (next == order.size()) {
          for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
          for (std::size_t k = order.size(); k > 1; --k)
            std::swap(order[k - 1], order[rng.below(k)]);
          next = 0;
        }
        index = order[next++];
      }
      std::vector<std::size_t> key = pick;
      std::sort(key.begin(), key.end());
      if (!seen.insert(key).second) continue;
      std::vector<Digraph> parts;
      for (const auto index : pick) parts.push_back(pool[index]);
      std::string name = "g";
      name += std::to_string(i);
      name += ".edgelist";
      const fs::path file = root_ / "graphs" / name;
      io::save_edgelist(file, disjoint_union(parts));
      graph_files_.push_back(file.string());
    }

    // Cold pass: fills both stores, one batch per group.
    serve::BatchSession cold(options(root_ / "warm"));
    restart_jobs_.assign(kGroups, {});
    cold_lines_.assign(kGroups, {});
    setup_problems_.clear();
    for (int g = 0; g < kGroups; ++g) {
      std::string cold_jobs;
      std::string pass2;
      std::string pass3;
      for (int j = g * kGroupJobs; j < (g + 1) * kGroupJobs; ++j) {
        cold_jobs += job_line(graph_files_[j], kColdMemories) + '\n';
        pass2 += job_line(graph_files_[j], kNewMemories) + '\n';
        pass3 += job_line(graph_files_[kJobs + j], kColdMemories) + '\n';
      }
      restart_jobs_[g] = cold_jobs + pass2 + pass3;
      std::istringstream in(cold_jobs);
      std::ostringstream out;
      const serve::BatchSummary summary = cold.run(in, out);
      cold_lines_[g] = split_lines(out.str());
      if (summary.failed != 0 || summary.rejected_lines != 0 ||
          cold_lines_[g].size() != static_cast<std::size_t>(kGroupJobs))
        setup_problems_.push_back("batch-restart: cold pass failed");
    }
    first_restart_.assign(kGroups, {});
    restarts_ = 0;
  }

  [[nodiscard]] std::size_t ops() const override { return kGroups; }

  void prepare(std::size_t /*i*/) override {
    const fs::path run = root_ / "run";
    fs::remove_all(run);
    fs::copy(root_ / "warm", run, fs::copy_options::recursive);
    eigensolves_before_ = eigensolves();
  }

  void op(std::size_t i) override {
    telemetry::Span op_span("bench.op");
    session_ = std::make_unique<serve::BatchSession>(options(root_ / "run"));
    std::istringstream in(restart_jobs_[i]);
    output_.str({});
    summary_ = session_->run(in, output_);
  }

  bool verify(std::size_t i) override {
    ++restarts_;
    ++total_restarts_;
    steals_ += summary_.steals;
    session_.reset();  // joins the workers; untimed
    log_bytes_ = file_bytes(root_ / "run" / "artifacts" / "artifacts.jsonl");
    std::vector<std::string> lines = split_lines(output_.str());
    std::vector<std::string> problems;
    if (summary_.failed != 0 || summary_.rejected_lines != 0)
      problems.push_back("batch-restart: " + std::to_string(summary_.failed) +
                         " failed jobs");
    if (lines.size() != 3 * static_cast<std::size_t>(kGroupJobs))
      problems.push_back("batch-restart: " + std::to_string(lines.size()) +
                         " result lines");
    // Every spectrum is in the warm artifact store, so a restart solves none.
    if (const std::int64_t solves = eigensolves() - eigensolves_before_;
        solves != 0)
      problems.push_back("batch-restart: " + std::to_string(solves) +
                         " eigensolves in a restart on warm stores");
    std::vector<std::string> replayed;
    for (const auto& line : lines) {
      if (line.find("\"error\"") != std::string::npos)
        problems.push_back("batch-restart: error line: " + line);
      if (job_id(line) <= kGroupJobs) replayed.push_back(line);
    }
    for (const auto& diff : diff_sorted_lines(cold_lines_[i], replayed))
      problems.push_back("batch-restart: replay vs cold pass: " + diff);
    std::sort(lines.begin(), lines.end());
    if (first_restart_[i].empty())
      first_restart_[i] = lines;
    else if (lines != first_restart_[i])
      problems.push_back("batch-restart: restart output differs from the "
                         "group's first restart");
    for (auto& problem : problems)
      if (problems_.size() < 10) problems_.push_back(std::move(problem));
    return problems.empty();
  }

  std::vector<std::string> check() override {
    std::vector<std::string> problems = setup_problems_;
    problems.insert(problems.end(), problems_.begin(), problems_.end());
    if (total_restarts_ == 0)
      problems.push_back("batch-restart: no restart ran");
    return problems;
  }

  std::map<std::string, double> take_extras() override {
    std::map<std::string, double> extras;
    std::vector<double> artifact_replay;
    std::vector<double> result_replay;
    std::vector<double> graph_load;
    const fs::path copy = root_ / "replay";
    for (int rep = 0; rep < kReplayReps; ++rep) {
      fs::remove_all(copy);
      fs::copy(root_ / "warm", copy, fs::copy_options::recursive);
      Clock::time_point start = Clock::now();
      { store::ArtifactStore replay(copy / "artifacts"); }
      artifact_replay.push_back(seconds_since(start));
      start = Clock::now();
      { serve::ResultStore replay(copy / "results"); }
      result_replay.push_back(seconds_since(start));
      start = Clock::now();
      std::int64_t edges = 0;
      for (const auto& file : graph_files_)
        edges += io::load_edgelist(file).num_edges();
      graph_load.push_back(seconds_since(start));
      if (edges <= 0) problems_.push_back("batch-restart: empty graph files");
    }
    fs::remove_all(copy);
    extras["store.replay_s"] = median(artifact_replay);
    extras["serve.result_store_replay_s"] = median(result_replay);
    extras["io.graph_load_s"] = median(graph_load);
    extras["store.log_bytes"] = static_cast<double>(log_bytes_);
    extras["serve.steals"] =
        restarts_ == 0 ? 0.0
                       : static_cast<double>(steals_) /
                             static_cast<double>(restarts_);
    steals_ = 0;
    restarts_ = 0;
    return extras;
  }

 private:
  static std::int64_t eigensolves() {
    return telemetry::MetricsRegistry::global()
        .counter("cache.eigensolves")
        .value();
  }

  serve::BatchOptions options(const fs::path& dir) const {
    serve::BatchOptions opts;
    opts.threads = 1;  // the worker is the calling thread (see main.cpp)
    opts.store_dir = (dir / "results").string();
    opts.artifact_dir = (dir / "artifacts").string();
    return opts;
  }

  WorkloadConfig config_;
  fs::path root_;
  std::vector<std::string> graph_files_;
  std::vector<std::string> restart_jobs_;              // per group
  std::vector<std::vector<std::string>> cold_lines_;     // per group
  std::vector<std::vector<std::string>> first_restart_;  // per group
  std::vector<std::string> setup_problems_;
  std::vector<std::string> problems_;
  std::unique_ptr<serve::BatchSession> session_;
  std::ostringstream output_;
  serve::BatchSummary summary_;
  std::int64_t steals_ = 0;
  std::int64_t restarts_ = 0;
  std::int64_t total_restarts_ = 0;
  std::int64_t log_bytes_ = 0;
  std::int64_t eigensolves_before_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_batch_restart(const WorkloadConfig& config) {
  return std::make_unique<BatchRestart>(config);
}

}  // namespace perfbench
