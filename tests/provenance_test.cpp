#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graphio/audit/provenance.hpp"
#include "graphio/engine/engine.hpp"
#include "graphio/io/json.hpp"
#include "graphio/serve/batch_session.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/stream/mutation.hpp"
#include "graphio/stream/session.hpp"
#include "graphio/telemetry/metrics.hpp"

namespace graphio::audit {
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

ProvenanceRecord sample_record() {
  ProvenanceRecord record;
  record.kind = "bound";
  record.graph = "fft:4";
  record.fingerprint = 0x7af99b8ffab0d233ULL;
  record.request = R"({"spec": "fft:4", "memories": [8]})";
  record.registry.warm_hits = 1;
  record.registry.iterations = 1;

  SpectrumProvenance spectrum;
  spectrum.laplacian = "norm";
  spectrum.requested = 16;
  spectrum.computed = true;
  spectrum.merged_values = 16;
  ComponentProvenance c;
  c.fingerprint = 0x1234abcdULL;
  c.fingerprinted = true;
  c.vertices = 32;
  c.edges = 48;
  c.tier = "refresh";
  c.solver = "lanczos";
  c.source = "computed";
  c.iterations = 1;
  c.residual = 3.5e-4;
  c.certified_floor = 1.25e-2;
  c.warm_predecessor = 0x9999ULL;
  spectrum.components.push_back(c);
  record.spectra.push_back(spectrum);

  RowLineage row;
  row.method = "spectral";
  row.memory = 8;
  row.bound = 12.5;
  row.best_k = 3;
  record.rows.push_back(row);
  return record;
}

TEST(ProvenanceRecordTest, JsonRoundTripIsByteStable) {
  const ProvenanceRecord record = sample_record();
  const std::string json = record.to_json();
  const ProvenanceRecord reparsed =
      parse_record(io::JsonValue::parse(json));
  // Byte-identical re-serialization is the audit contract: two runs that
  // did the same work must produce diffable records.
  EXPECT_EQ(reparsed.to_json(), json);
  EXPECT_EQ(reparsed.fingerprint, record.fingerprint);
  EXPECT_EQ(reparsed.request, record.request);
  ASSERT_EQ(reparsed.spectra.size(), 1u);
  ASSERT_EQ(reparsed.spectra[0].components.size(), 1u);
  EXPECT_EQ(reparsed.spectra[0].components[0].tier, "refresh");
  EXPECT_EQ(reparsed.spectra[0].components[0].warm_predecessor, 0x9999ULL);
  EXPECT_TRUE(check_record(reparsed).empty());
}

TEST(ProvenanceRecordTest, CheckRecordFlagsSeededCorruption) {
  EXPECT_TRUE(check_record(sample_record()).empty());

  // A refresh tier certifies exactly one Rayleigh–Ritz pass over a
  // retained predecessor basis; breaking either invariant must surface.
  ProvenanceRecord bad_pred = sample_record();
  bad_pred.spectra[0].components[0].warm_predecessor = 0;
  EXPECT_FALSE(check_record(bad_pred).empty());

  ProvenanceRecord bad_tier = sample_record();
  bad_tier.spectra[0].components[0].tier = "lukewarm";
  EXPECT_FALSE(check_record(bad_tier).empty());

  ProvenanceRecord bad_floor = sample_record();
  bad_floor.spectra[0].components[0].certified_floor = -1e-9;
  EXPECT_FALSE(check_record(bad_floor).empty());

  // Exclusive registry deltas must reconcile with the claimed tiers.
  ProvenanceRecord bad_delta = sample_record();
  bad_delta.registry.warm_hits = 2;
  EXPECT_FALSE(check_record(bad_delta).empty());

  // ...but a non-exclusive record (parallel lanes interleaved the
  // process-wide counters) skips reconciliation by design.
  bad_delta.registry.exclusive = false;
  EXPECT_TRUE(check_record(bad_delta).empty());
}

TEST(ProvenanceLogTest, AppendsReplayableJsonl) {
  TempDir dir("graphio_provenance_log_test");
  {
    ProvenanceLog log(dir.path);
    log.append(sample_record());
    log.append(sample_record());
    EXPECT_EQ(log.appended(), 2);
  }
  const std::vector<ProvenanceRecord> records =
      load_provenance(dir.path / "provenance.jsonl");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].to_json(), sample_record().to_json());
}

TEST(ProvenanceLogTest, AppendAfterTornTailStartsOnItsOwnLine) {
  TempDir dir("graphio_provenance_torn_tail");
  {
    ProvenanceLog log(dir.path);
    log.append(sample_record());
  }
  const std::filesystem::path file = dir.path / "provenance.jsonl";
  {
    // A crash mid-append: the fragment has no trailing newline.
    std::ofstream out(file, std::ios::app);
    out << "{\"schema\":1,\"kind";
  }
  {
    ProvenanceLog log(dir.path);
    log.append(sample_record());
    EXPECT_EQ(log.appended(), 1);
  }
  std::ifstream in(file);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], "{\"schema\":1,\"kind");
  EXPECT_EQ(lines[2], sample_record().to_json());
}

TEST(ProvenanceEngineTest, EvaluationAssemblesLineage) {
  engine::Engine eng;
  engine::BoundRequest request;
  request.spec = "multi:2:fft:3";
  request.memories = {8};
  request.methods = {"spectral"};
  const engine::BoundReport report = eng.evaluate(request);

  const ProvenanceRecord& record = report.provenance;
  EXPECT_EQ(record.kind, "bound");
  EXPECT_EQ(record.graph, "multi:2:fft:3");
  EXPECT_TRUE(record.registry.exclusive);
  ASSERT_FALSE(record.spectra.empty());
  // Two identical fft:3 components: one computed, one served from the
  // content-addressed memory tier of the producing solve.
  bool saw_computed = false;
  bool saw_memory = false;
  for (const SpectrumProvenance& s : record.spectra)
    for (const ComponentProvenance& c : s.components) {
      saw_computed |= c.source == "computed";
      saw_memory |= c.source == "memory";
      EXPECT_GE(c.certified_floor, 0.0);
    }
  EXPECT_TRUE(saw_computed);
  EXPECT_TRUE(saw_memory);
  ASSERT_EQ(record.rows.size(), report.rows.size());
  for (std::size_t i = 0; i < record.rows.size(); ++i) {
    EXPECT_EQ(record.rows[i].method, report.rows[i].method);
    EXPECT_EQ(record.rows[i].bound, report.rows[i].value);
  }
  const std::vector<std::string> issues = check_record(record);
  EXPECT_TRUE(issues.empty())
      << (issues.empty() ? "" : issues.front());
}

TEST(ProvenanceEngineTest, SpectraListComputedInUseOrderThenServedByKind) {
  // One Engine across evaluations: each record lists the spectra its own
  // evaluation computed, in first-use order, then those it was served,
  // plain before norm.
  using Used = std::vector<std::pair<std::string, bool>>;
  engine::Engine eng;
  const auto spectra = [&eng](std::vector<std::string> methods,
                              std::optional<la::SolverKind> solver) {
    engine::BoundRequest request;
    request.spec = "fft:5";
    request.memories = {4, 8};
    request.methods = std::move(methods);
    request.spectral.solver = solver;
    Used used;
    for (const SpectrumProvenance& s : eng.evaluate(request).provenance.spectra)
      used.emplace_back(s.laplacian, s.computed);
    return used;
  };
  EXPECT_EQ(spectra({"spectral"}, std::nullopt), (Used{{"norm", true}}));
  EXPECT_EQ(spectra({"all"}, std::nullopt),
            (Used{{"plain", true}, {"norm", false}}));
  EXPECT_EQ(spectra({"all"}, std::nullopt),
            (Used{{"plain", false}, {"norm", false}}));
  EXPECT_EQ(spectra({"parallel", "spectral-plain"}, la::SolverKind::kLanczos),
            (Used{{"norm", true}, {"plain", true}}));
  EXPECT_EQ(spectra({"spectral-plain", "spectral"}, std::nullopt),
            (Used{{"plain", true}, {"norm", true}}));
}

TEST(ProvenanceStreamTest, WarmTiersReconcileWithRegistryDeltas) {
  auto store = std::make_shared<store::ArtifactStore>();
  store->set_eigenbasis_budget(64 << 20);
  stream::StreamSession session("g", store);
  session.load("multi:3:fft:4");

  engine::BoundRequest request;
  request.memories = {8};
  request.methods = {"spectral"};
  request.spectral.solver = la::SolverKind::kLanczos;

  const engine::BoundReport cold = session.evaluate(request);
  EXPECT_TRUE(check_record(cold.provenance).empty());
  EXPECT_EQ(cold.provenance.kind, "stream");
  EXPECT_EQ(cold.provenance.dirty, 3);  // a load dirties every component

  stream::Patch patch;
  patch.mutations.push_back(stream::Mutation::add_edge(2, 75));
  session.apply(patch);

  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  const std::int64_t warm_before = registry.counter("solver.warm_hits").value();
  const std::int64_t iter_before = registry.counter("solver.iterations").value();
  const engine::BoundReport warm = session.evaluate(request);
  const std::int64_t warm_delta =
      registry.counter("solver.warm_hits").value() - warm_before;
  const std::int64_t iter_delta =
      registry.counter("solver.iterations").value() - iter_before;

  const ProvenanceRecord& record = warm.provenance;
  EXPECT_EQ(record.dirty, 1);
  EXPECT_EQ(record.clean, 2);
  EXPECT_TRUE(record.registry.exclusive);
  // The record's bracketed deltas must equal the raw counter movement...
  EXPECT_EQ(record.registry.warm_hits, warm_delta);
  EXPECT_EQ(record.registry.iterations, iter_delta);
  // ...and the claimed per-component tiers must reconcile with them
  // exactly: every refresh/warm tier is one solver.warm_hits tick, every
  // computed component's iterations sum to solver.iterations.
  std::int64_t claimed_warm = 0;
  std::int64_t claimed_iterations = 0;
  bool saw_warm_tier = false;
  for (const SpectrumProvenance& s : record.spectra) {
    if (!s.computed) continue;
    for (const ComponentProvenance& c : s.components) {
      if (c.source != "computed") continue;
      claimed_iterations += c.iterations;
      if (c.tier == "refresh" || c.tier == "warm") {
        ++claimed_warm;
        saw_warm_tier = true;
        EXPECT_NE(c.warm_predecessor, 0u);
      }
    }
  }
  EXPECT_TRUE(saw_warm_tier);
  EXPECT_EQ(claimed_warm, warm_delta);
  EXPECT_EQ(claimed_iterations, iter_delta);
  const std::vector<std::string> issues = check_record(record);
  EXPECT_TRUE(issues.empty())
      << (issues.empty() ? "" : issues.front());
}

TEST(ProvenanceStoreTest, DiskReplaySurfacesAsDiskSource) {
  TempDir dir("graphio_provenance_disk_test");
  engine::BoundRequest request;
  request.spec = "fft:4";
  request.memories = {8};
  request.methods = {"spectral"};
  {
    engine::Engine eng(std::make_shared<store::ArtifactStore>(dir.path));
    eng.evaluate(request);
  }
  // A fresh process over the same durable dir replays the artifact from
  // the disk tier; provenance must say so rather than claim a solve.
  engine::Engine eng(std::make_shared<store::ArtifactStore>(dir.path));
  const engine::BoundReport report = eng.evaluate(request);
  bool saw_disk = false;
  for (const SpectrumProvenance& s : report.provenance.spectra)
    for (const ComponentProvenance& c : s.components)
      saw_disk |= c.source == "disk";
  EXPECT_TRUE(saw_disk);
  EXPECT_TRUE(check_record(report.provenance).empty());
}

// --- BatchSession surfacing ------------------------------------------------

std::vector<io::JsonValue> parse_lines(const std::string& text) {
  std::vector<io::JsonValue> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(io::JsonValue::parse(line));
  return lines;
}

constexpr const char* kStreamJobs =
    R"({"graph": "g", "load": "multi:2:fft:3"}
{"graph": "g", "memories": [8], "methods": ["spectral"], "solver": "lanczos"}
{"graph": "g", "patch": [{"op": "add_edge", "u": 1, "v": 40}], "label": "p"}
{"graph": "g", "memories": [8], "methods": ["spectral"], "solver": "lanczos"}
)";

std::vector<std::string> provenance_lines(int threads, bool explain) {
  serve::BatchOptions options;
  options.threads = threads;
  options.explain = explain;
  serve::BatchSession session(options);
  std::istringstream in(kStreamJobs);
  std::ostringstream out;
  session.run(in, out);
  std::vector<std::string> provenance;
  for (const io::JsonValue& line : parse_lines(out.str())) {
    if (line.get("report") == nullptr) continue;
    const io::JsonValue* record = line.at("report").get("provenance");
    if (record == nullptr) continue;
    // Re-serialize through parse_record: stable JSON, so equal lineage
    // means equal bytes regardless of how the line was assembled.
    provenance.push_back(parse_record(*record).to_json());
  }
  return provenance;
}

TEST(ProvenanceBatchTest, StreamRecordsDeterministicAcrossThreadCounts) {
  const std::vector<std::string> one = provenance_lines(1, true);
  const std::vector<std::string> four = provenance_lines(4, true);
  ASSERT_EQ(one.size(), 2u);  // two stream queries carry provenance
  EXPECT_EQ(one, four);
  for (const std::string& json : one) {
    const ProvenanceRecord record =
        parse_record(io::JsonValue::parse(json));
    EXPECT_EQ(record.kind, "stream");
    EXPECT_TRUE(record.registry.exclusive);  // ingest is single-lane
    EXPECT_TRUE(check_record(record).empty());
  }
}

TEST(ProvenanceBatchTest, ResultLinesOmitProvenanceWithoutExplain) {
  // --explain is opt-in precisely so default result lines stay
  // byte-comparable across warm/cold stores.
  EXPECT_TRUE(provenance_lines(1, false).empty());
}

}  // namespace
}  // namespace graphio::audit
