// Tests for graphio::faults — deterministic fault injection and the
// robustness behaviors layered on it (ISSUE PR 10).
//
// The load-bearing guarantees certified here:
//   * plans parse deterministically and reject malformed specs up front,
//   * a disarmed registry is a no-op (and every canonical seam is listed),
//   * store write faults demote to memory-only — never crash, never
//     corrupt: a fault-written directory always loads and compacts clean,
//   * a compaction rename fault leaves the original log intact,
//   * the scheduler retries transient job faults with bounded attempts
//     and quarantines poison jobs,
//   * a job deadline yields a *sound* degraded bound (<= the full bound),
//     one budget for all of the job's spectra,
//   * a mid-patch fault rolls the stream session back to its twin-exact
//     pre-patch state,
//   * a single-site fault sweep over a mixed batch yields, per job,
//     a bit-identical result, a structured error, or a degraded/
//     non-converged flag — never a silent wrong bound.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graphio/engine/engine.hpp"
#include "graphio/faults/fault_injection.hpp"
#include "graphio/io/json.hpp"
#include "graphio/serve/batch_session.hpp"
#include "graphio/serve/job.hpp"
#include "graphio/serve/result_store.hpp"
#include "graphio/serve/scheduler.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/stream/session.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::faults {
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

ComponentSolve converged_solve() {
  ComponentSolve solve;
  solve.vertices = 4;
  solve.edges = 3;
  solve.solver = la::SolverKind::kLanczos;
  solve.solver_ran = true;
  solve.converged = true;
  solve.values = {0.0, 0.25, 0.5};
  return solve;
}

// -------------------------------------------------------- plan grammar

TEST(FaultPlan, ParsesNthProbabilityAndKinds) {
  const FaultPlan plan = FaultPlan::parse(
      "store.disk.append:nth=3;"
      "serve.worker:prob=0.5,seed=9,kind=fatal;"
      "solver.converge:nth=1,kind=io");
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_EQ(plan.specs[0].site, "store.disk.append");
  EXPECT_EQ(plan.specs[0].nth, 3);
  EXPECT_EQ(plan.specs[0].kind, "transient");  // default
  EXPECT_TRUE(plan.specs[0].transient());
  EXPECT_EQ(plan.specs[1].site, "serve.worker");
  EXPECT_EQ(plan.specs[1].probability, 0.5);
  EXPECT_EQ(plan.specs[1].seed, 9u);
  EXPECT_FALSE(plan.specs[1].transient());
  EXPECT_EQ(plan.specs[2].kind, "io");
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("store.disk.append"), contract_error);
  EXPECT_THROW(FaultPlan::parse("store.disk.append:nth=0"), contract_error);
  EXPECT_THROW(FaultPlan::parse("store.disk.append:prob=1.5"),
               contract_error);
  EXPECT_THROW(FaultPlan::parse("store.disk.append:nth=1,prob=0.5"),
               contract_error);
  EXPECT_THROW(FaultPlan::parse("store.disk.append:nth=1,bogus=2"),
               contract_error);
  EXPECT_THROW(FaultPlan::parse("store.disk.append:seed=7"), contract_error);
  // Unknown sites are rejected at install time.
  EXPECT_THROW(
      FaultRegistry::global().install(FaultPlan::parse("no.such.site:nth=1")),
      contract_error);
  EXPECT_FALSE(FaultRegistry::global().armed());
}

TEST(FaultRegistry, DisarmedIsNoOpAndCanonicalSitesAreListed) {
  EXPECT_FALSE(FaultRegistry::global().armed());
  EXPECT_NO_THROW(inject("store.disk.append"));
  EXPECT_FALSE(trip("solver.converge"));
  std::map<std::string, bool> listed;
  for (const SiteInfo& site : FaultRegistry::global().sites())
    listed[site.name] = site.armed;
  for (const char* name :
       {"store.disk.append", "store.disk.compact", "result_store.append",
        "provenance.append", "solver.converge", "serve.worker",
        "stream.apply"}) {
    ASSERT_TRUE(listed.count(name)) << name;
    EXPECT_FALSE(listed[name]) << name;
  }
}

TEST(FaultRegistry, NthHitFiresExactlyOnceAndCounts) {
  const ScopedFaultPlan plan("solver.converge:nth=2");
  EXPECT_TRUE(FaultRegistry::global().armed());
  EXPECT_FALSE(trip("solver.converge"));
  EXPECT_TRUE(trip("solver.converge"));
  EXPECT_FALSE(trip("solver.converge"));
  for (const SiteInfo& site : FaultRegistry::global().sites()) {
    if (site.name != "solver.converge") continue;
    EXPECT_TRUE(site.armed);
    EXPECT_EQ(site.hits, 3);
    EXPECT_EQ(site.fired, 1);
  }
}

TEST(FaultRegistry, ProbabilityModeIsSeedDeterministic) {
  auto sequence = [](std::uint64_t seed) {
    const ScopedFaultPlan plan(FaultPlan::parse(
        "solver.converge:prob=0.5,seed=" + std::to_string(seed)));
    std::vector<bool> fired;
    for (int i = 0; i < 32; ++i) fired.push_back(trip("solver.converge"));
    return fired;
  };
  EXPECT_EQ(sequence(7), sequence(7));  // same seed, same trace
  const ScopedFaultPlan always("solver.converge:prob=1,seed=1");
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(trip("solver.converge"));
}

// ----------------------------------------------------- store demotion

TEST(FaultStore, ArtifactAppendFaultDemotesToMemoryOnly) {
  const TempDir dir("graphio_faults_store_append");
  SpectralOptions options;
  options.solver = la::SolverKind::kLanczos;
  {
    store::ArtifactStore a(dir.path);
    const ScopedFaultPlan plan("store.disk.append:nth=1");
    a.store_spectrum(1, LaplacianKind::kOutDegreeNormalized, 4, options,
                     converged_solve());
    EXPECT_TRUE(a.stats().demoted);
    EXPECT_FALSE(a.durable());
    // The memory tier keeps serving the process.
    EXPECT_TRUE(a.lookup_spectrum(1, LaplacianKind::kOutDegreeNormalized, 4,
                                  options));
    // Demoted: later appends are silently dropped, never crash.
    a.store_spectrum(2, LaplacianKind::kOutDegreeNormalized, 4, options,
                     converged_solve());
    EXPECT_EQ(a.stats().appended, 0);
  }
  // The fault-written directory loads clean and compacts clean.
  store::ArtifactStore b(dir.path);
  EXPECT_EQ(b.stats().corrupt, 0);
  EXPECT_FALSE(b.stats().demoted);
  b.store_spectrum(3, LaplacianKind::kOutDegreeNormalized, 4, options,
                   converged_solve());
  EXPECT_EQ(b.stats().appended, 1);
  EXPECT_NO_THROW(b.compact());
}

TEST(FaultStore, CompactRenameFaultLeavesOriginalLogIntact) {
  const TempDir dir("graphio_faults_store_compact");
  SpectralOptions options;
  options.solver = la::SolverKind::kLanczos;
  store::ArtifactStore a(dir.path);
  a.store_spectrum(1, LaplacianKind::kOutDegreeNormalized, 4, options,
                   converged_solve());
  {
    const ScopedFaultPlan plan("store.disk.compact:nth=1");
    EXPECT_THROW(a.compact(), FaultInjected);
  }
  // No stale .tmp, original log intact, store still appendable.
  EXPECT_FALSE(std::filesystem::exists(
      a.path().string() + ".tmp"));
  a.store_spectrum(2, LaplacianKind::kOutDegreeNormalized, 4, options,
                   converged_solve());
  EXPECT_EQ(a.compact(), 2);
  store::ArtifactStore b(dir.path);
  EXPECT_EQ(b.stats().loaded, 2);
  EXPECT_EQ(b.stats().corrupt, 0);
}

TEST(FaultStore, ResultStoreAppendFaultDemotesToMemoryOnly) {
  const TempDir dir("graphio_faults_result_store");
  serve::ResultStore::Key key;
  key.graph_fingerprint = 42;
  key.method = "spectral";
  key.memory = 8.0;
  engine::MethodRow row;
  row.method = "spectral";
  row.memory = 8.0;
  row.value = 3.5;
  {
    serve::ResultStore store(dir.path);
    const ScopedFaultPlan plan("result_store.append:nth=1");
    store.insert(key, row);
    EXPECT_TRUE(store.stats().demoted);
    // The in-process index still serves the row.
    const auto hit = store.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->value, 3.5);
  }
  // Nothing durable, but the directory loads clean and works again.
  serve::ResultStore reopened(dir.path);
  EXPECT_EQ(reopened.stats().loaded, 0);
  EXPECT_EQ(reopened.stats().corrupt, 0);
  reopened.insert(key, row);
  EXPECT_EQ(reopened.stats().appended, 1);
}

// ------------------------------------------------ retry and quarantine

serve::Job bound_job(std::int64_t id) {
  serve::Job job = serve::job_from_json_line(
      R"({"spec": "fft:3", "memories": [4], "methods": ["spectral"]})");
  job.id = id;
  return job;
}

TEST(FaultScheduler, TransientFaultIsRetriedToSuccess) {
  serve::SchedulerOptions options;
  options.threads = 1;
  options.max_attempts = 3;
  serve::Scheduler scheduler(options);
  const ScopedFaultPlan plan("serve.worker:nth=1");
  const serve::JobResult result = scheduler.run_one(bound_job(1));
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 2);  // first attempt faulted, retry succeeded
  EXPECT_FALSE(result.quarantined);
}

TEST(FaultScheduler, PoisonJobIsQuarantinedAfterMaxAttempts) {
  serve::SchedulerOptions options;
  options.threads = 1;
  options.max_attempts = 3;
  serve::Scheduler scheduler(options);
  const ScopedFaultPlan plan("serve.worker:prob=1,seed=5");
  const serve::JobResult result = scheduler.run_one(bound_job(1));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_TRUE(result.quarantined);
  EXPECT_EQ(result.error_kind, "transient");
  EXPECT_EQ(result.error_site, "serve.worker");
}

TEST(FaultScheduler, NonTransientFaultFailsFirstTry) {
  serve::SchedulerOptions options;
  options.threads = 1;
  options.max_attempts = 3;
  serve::Scheduler scheduler(options);
  const ScopedFaultPlan plan("serve.worker:nth=1,kind=fatal");
  const serve::JobResult result = scheduler.run_one(bound_job(1));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_FALSE(result.quarantined);
  EXPECT_EQ(result.error_kind, "fatal");
}

TEST(FaultScheduler, DeterministicFailuresAreNeverRetried) {
  serve::SchedulerOptions options;
  options.threads = 1;
  options.max_attempts = 3;
  serve::Scheduler scheduler(options);
  serve::Job job = serve::job_from_json_line(
      R"({"spec": "fft:3", "memories": [4], "methods": ["nope"]})");
  job.id = 1;
  const serve::JobResult result = scheduler.run_one(job);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.error_kind, "error");
  EXPECT_FALSE(result.quarantined);
}

// ------------------------------------------------- degraded deadlines

/// `report`'s one row equals the clean `baseline` row bit for bit.
void expect_same_row(const engine::BoundReport& report,
                     const engine::BoundReport& baseline) {
  ASSERT_EQ(report.rows.size(), 1u);
  ASSERT_EQ(baseline.rows.size(), 1u);
  const engine::MethodRow& row = report.rows[0];
  const engine::MethodRow& clean = baseline.rows[0];
  EXPECT_EQ(row.value, clean.value);
  EXPECT_EQ(row.best_k, clean.best_k);
  EXPECT_EQ(row.converged, clean.converged);
  EXPECT_EQ(row.note, clean.note);
  EXPECT_FALSE(row.degraded);
}

TEST(FaultDegraded, DeadlineYieldsSoundWeakerBoundFlaggedDegraded) {
  engine::BoundRequest request;
  request.spec = "multi:3:fft:3";
  request.memories = {4.0};
  request.methods = {"spectral"};
  engine::Engine full;
  const engine::BoundReport baseline = full.evaluate(request);
  ASSERT_EQ(baseline.rows.size(), 1u);
  ASSERT_TRUE(baseline.rows[0].applicable);
  EXPECT_FALSE(baseline.rows[0].degraded);

  engine::BoundRequest limited = request;
  limited.deadline_seconds = 1e-12;  // every boundary over budget
  engine::Engine partial;
  const engine::BoundReport degraded = partial.evaluate(limited);
  ASSERT_EQ(degraded.rows.size(), 1u);
  ASSERT_TRUE(degraded.rows[0].applicable);
  EXPECT_TRUE(degraded.rows[0].degraded);
  EXPECT_FALSE(degraded.rows[0].converged);
  // Sound: still a lower bound, just weaker than the full evaluation.
  EXPECT_GE(degraded.rows[0].value, 0.0);
  EXPECT_LE(degraded.rows[0].value, baseline.rows[0].value);

  // The cut-short spectrum is no cache hit: the same Engine without the
  // deadline answers exactly like the clean one.
  expect_same_row(partial.evaluate(request), baseline);
}

// A job deadline is one budget for the whole job, across both Laplacian
// kinds: the norm spectrum spends it on its first component (a
// 448-vertex dense solve, far over 1 ms), after which every plain
// component is skipped rather than starting a fresh budget.
TEST(FaultDegraded, JobDeadlineCoversEveryLaplacianKindOfTheJob) {
  serve::SchedulerOptions options;
  options.threads = 1;
  options.job_timeout_ms = 1;
  serve::Scheduler scheduler(options);
  serve::Job job = serve::job_from_json_line(
      R"({"spec": "multi:8:fft:6", "memories": [4], )"
      R"("methods": ["spectral", "spectral-plain"]})");
  job.id = 1;
  const serve::JobResult result = scheduler.run_one(job);
  ASSERT_TRUE(result.ok);
  const auto tiers = [](const audit::SpectrumProvenance& spectrum) {
    std::string out;
    for (const audit::ComponentProvenance& c : spectrum.components)
      out += c.tier == "skipped" ? 's' : 'c';
    return out;
  };
  const std::vector<audit::SpectrumProvenance>& spectra =
      result.report.provenance.spectra;
  ASSERT_EQ(spectra.size(), 2u);
  EXPECT_EQ(spectra[0].laplacian, "norm");
  EXPECT_EQ(tiers(spectra[0]), "csssssss");
  EXPECT_EQ(spectra[1].laplacian, "plain");
  EXPECT_EQ(tiers(spectra[1]), "ssssssss");
  EXPECT_EQ(result.report.cache.eigensolves, 1);
  for (const engine::MethodRow& row : result.report.rows)
    EXPECT_TRUE(row.degraded) << row.method;
}

TEST(FaultDegraded, SolverConvergenceFaultNeverSilentlyConverges) {
  engine::BoundRequest request;
  request.spec = "fft:4";
  request.memories = {4.0};
  request.methods = {"spectral"};
  engine::Engine clean;
  const engine::BoundReport baseline = clean.evaluate(request);

  engine::Engine faulted;
  {
    const ScopedFaultPlan plan("solver.converge:prob=1,seed=2");
    const engine::BoundReport report = faulted.evaluate(request);
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_FALSE(report.rows[0].converged);
    EXPECT_TRUE(report.rows[0].degraded);
    EXPECT_GE(report.rows[0].value, 0.0);
    EXPECT_LE(report.rows[0].value, baseline.rows[0].value);
  }

  // With the plan cleared, the same Engine re-solves the tripped solves
  // instead of serving the degraded spectrum.
  expect_same_row(faulted.evaluate(request), baseline);
}

// -------------------------------------------- mid-patch twin rollback

TEST(FaultStream, MidPatchFaultRollsBackToTwinExactState) {
  auto artifacts = std::make_shared<store::ArtifactStore>();
  stream::StreamSession faulted("a", artifacts);
  stream::StreamSession control("b", artifacts);
  faulted.load("multi:2:fft:3");
  control.load("multi:2:fft:3");
  ASSERT_EQ(faulted.fingerprint(), control.fingerprint());

  const serve::Job patch_job = serve::job_from_json_line(
      R"({"graph": "a", "patch": [
            {"op": "add_vertex"},
            {"op": "add_edge", "u": 0, "v": 2},
            {"op": "add_edge", "u": 1, "v": 2}]})");
  {
    // Fire between mutations: the first applied, then the fault — the
    // inverse journal must unwind the partial patch completely.
    const ScopedFaultPlan plan("stream.apply:nth=2");
    EXPECT_THROW(faulted.apply(patch_job.patch), FaultInjected);
  }
  EXPECT_EQ(faulted.num_vertices(), control.num_vertices());
  EXPECT_EQ(faulted.num_edges(), control.num_edges());
  EXPECT_EQ(faulted.fingerprint(), control.fingerprint());

  // Replaying the patch for real keeps the twins in lockstep.
  faulted.apply(patch_job.patch);
  control.apply(patch_job.patch);
  EXPECT_EQ(faulted.fingerprint(), control.fingerprint());
}

// --------------------------------------------- single-site fault sweep

/// One mixed batch — stream lane (load, query, patch) plus spec jobs —
/// with every persistence layer attached. The stream query deliberately
/// precedes the patch so its result does not depend on whether the patch
/// survived a fault.
const char* kSweepCorpus =
    R"({"graph": "g", "load": "multi:2:fft:3"})"
    "\n"
    R"({"graph": "g", "memories": [4], "methods": ["spectral"]})"
    "\n"
    R"({"graph": "g", "patch": [{"op": "add_edge", "u": 0, "v": 2}]})"
    "\n"
    R"({"spec": "fft:3", "memories": [4], "methods": ["spectral", "mincut"]})"
    "\n"
    R"({"spec": "fft:4", "memories": [4], "methods": ["spectral"]})"
    "\n";

std::map<std::int64_t, std::string> run_corpus(
    const std::filesystem::path& root) {
  serve::BatchOptions options;
  options.threads = 1;  // deterministic site hit order
  options.store_dir = (root / "results").string();
  options.artifact_dir = (root / "artifacts").string();
  options.provenance_dir = (root / "prov").string();
  serve::BatchSession session(options);
  std::istringstream in(kSweepCorpus);
  std::ostringstream out;
  session.run(in, out);
  std::map<std::int64_t, std::string> by_job;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const io::JsonValue parsed = io::JsonValue::parse(line);
    by_job[parsed.at("job").as_int()] = line;
  }
  return by_job;
}

/// A result line that differs from the fault-free run must be loud about
/// it: a structured error object, a degraded flag, or a non-converged row.
bool loudly_flagged(const std::string& line) {
  const io::JsonValue parsed = io::JsonValue::parse(line);
  if (parsed.get("error") != nullptr) {
    // Structured: kind + message at minimum.
    return parsed.at("error").get("kind") != nullptr &&
           parsed.at("error").get("message") != nullptr;
  }
  if (parsed.get("degraded") != nullptr && parsed.at("degraded").as_bool())
    return true;
  if (parsed.get("report") != nullptr) {
    for (const io::JsonValue& row :
         parsed.at("report").at("rows").items()) {
      if (row.get("converged") != nullptr && !row.at("converged").as_bool())
        return true;
    }
  }
  return false;
}

TEST(FaultSweep, EverySiteYieldsIdenticalFlaggedOrStructuredResults) {
  const TempDir base("graphio_faults_sweep_baseline");
  const std::map<std::int64_t, std::string> baseline =
      run_corpus(base.path);
  ASSERT_EQ(baseline.size(), 5u);

  for (const SiteInfo& site : FaultRegistry::global().sites()) {
    const TempDir dir("graphio_faults_sweep_" + site.name);
    std::map<std::int64_t, std::string> faulted;
    {
      const ScopedFaultPlan plan(site.name + ":nth=1");
      faulted = run_corpus(dir.path);
    }
    ASSERT_EQ(faulted.size(), baseline.size()) << site.name;
    for (const auto& [job, line] : faulted) {
      if (line == baseline.at(job)) continue;  // bit-identical: fine
      EXPECT_TRUE(loudly_flagged(line))
          << site.name << " job " << job
          << " silently diverged: " << line;
    }
    // A fault-written store directory always loads and compacts clean.
    store::ArtifactStore artifacts(dir.path / "artifacts");
    EXPECT_EQ(artifacts.stats().corrupt, 0) << site.name;
    EXPECT_NO_THROW(artifacts.compact()) << site.name;
    serve::ResultStore results(dir.path / "results");
    EXPECT_EQ(results.stats().corrupt, 0) << site.name;
  }
}

TEST(FaultSweep, DurableRunFsyncsAndSurvivesReload) {
  const TempDir dir("graphio_faults_durable");
  serve::BatchOptions options;
  options.threads = 1;
  options.store_dir = (dir.path / "results").string();
  options.artifact_dir = (dir.path / "artifacts").string();
  options.provenance_dir = (dir.path / "prov").string();
  options.durable = true;
  serve::BatchSession session(options);
  std::istringstream in(kSweepCorpus);
  std::ostringstream out;
  const serve::BatchSummary summary = session.run(in, out);
  EXPECT_EQ(summary.failed, 0);
  serve::ResultStore results(dir.path / "results");
  EXPECT_GT(results.stats().loaded, 0);
  EXPECT_TRUE(
      std::filesystem::exists(dir.path / "prov" / "provenance.jsonl"));
}

}  // namespace
}  // namespace graphio::faults
