#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "graphio/core/spectral_bound.hpp"
#include "graphio/engine/engine.hpp"
#include "graphio/engine/graph_spec.hpp"
#include "graphio/flow/convex_mincut.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/io/json.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/telemetry/metrics.hpp"

namespace graphio::engine {
namespace {

// ----------------------------------------------------------------- registry

TEST(MethodRegistry, ContainsEveryDocumentedId) {
  const std::vector<std::string> expected{
      "spectral", "spectral-plain", "parallel",     "mincut",
      "partition-dp", "analytic",   "pebble-exact", "memsim"};
  const std::vector<std::string> ids = method_ids();
  EXPECT_EQ(ids, expected);
  for (const std::string& id : expected) {
    const BoundMethod* method = find_method(id);
    ASSERT_NE(method, nullptr) << id;
    EXPECT_EQ(method->id(), id);
    EXPECT_FALSE(method->summary().empty());
  }
}

TEST(MethodRegistry, UnknownIdIsNull) {
  EXPECT_EQ(find_method("does-not-exist"), nullptr);
  EXPECT_EQ(find_method(""), nullptr);
}

TEST(MethodRegistry, UnknownMethodInRequestThrows) {
  Engine engine;
  BoundRequest request;
  request.spec = "inner:3";
  request.memories = {4.0};
  request.methods = {"spectral", "bogus"};
  EXPECT_THROW(engine.evaluate(request), contract_error);
}

// ------------------------------------------------------------------- specs

TEST(GraphSpec, ParsesFamiliesAndRejectsGarbage) {
  const GraphSpec fft = GraphSpec::parse("fft:5");
  EXPECT_EQ(fft.family, "fft");
  EXPECT_EQ(fft.int_param(0), 5);
  EXPECT_EQ(fft.build().num_vertices(), 6 * 32);

  EXPECT_THROW(GraphSpec::parse("nope:3"), contract_error);
  EXPECT_THROW(GraphSpec::parse("fft"), contract_error);
  // Non-numeric arguments surface at build time (params may legitimately
  // be symbolic, e.g. matmul:4:tree).
  EXPECT_THROW(GraphSpec::parse("fft:x").build(), contract_error);
  EXPECT_FALSE(GraphSpec::try_parse("nope:3").has_value());
  EXPECT_TRUE(GraphSpec::try_parse("bhk:7").has_value());
}

TEST(GraphSpec, DispatchesDotFilesByExtension) {
  const std::string path = ::testing::TempDir() + "graphio_spec_test.dot";
  {
    std::ofstream out(path);
    out << "digraph { a -> b; a -> c; }\n";
  }
  const GraphSpec spec = GraphSpec::parse(path);
  EXPECT_EQ(spec.family, "file");
  const Digraph g = spec.build();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);

  // Malformed DOT surfaces as a contract_error at build, not a crash or a
  // silent empty graph.
  {
    std::ofstream out(path);
    out << "digraph { a -> a }\n";  // self-loop
  }
  EXPECT_THROW(GraphSpec::parse(path).build(), contract_error);
  {
    std::ofstream out(path);
    out << "graphio-edgelist 1\nn 2\ne 0 1\n";  // edgelist body, .dot name
  }
  EXPECT_THROW(GraphSpec::parse(path).build(), contract_error);
  std::remove(path.c_str());
}

// ------------------------------------------------------------------ parity

struct ParityCase {
  const char* spec;
  double memory;
};

// Without this gtest prints the raw bytes of `spec` — a pointer, so the
// discovered ctest names would change with every build.
void PrintTo(const ParityCase& c, std::ostream* os) {
  *os << c.spec << " at M=" << c.memory;
}

class EngineParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(EngineParity, SpectralMatchesDirectCall) {
  const auto [spec_text, memory] = GetParam();
  Engine engine;
  BoundRequest request;
  request.spec = spec_text;
  request.memories = {memory};
  request.methods = {"spectral", "spectral-plain", "mincut"};
  const BoundReport report = engine.evaluate(request);

  const Digraph g = GraphSpec::parse(spec_text).build();
  const SpectralBound direct = spectral_bound(g, memory);
  const MethodRow* spectral = report.row("spectral", memory);
  ASSERT_NE(spectral, nullptr);
  EXPECT_TRUE(spectral->applicable);
  EXPECT_DOUBLE_EQ(spectral->value, direct.bound);
  EXPECT_EQ(spectral->best_k, direct.best_k);

  const SpectralBound direct_plain =
      spectral_bound_plain(g, memory);
  const MethodRow* plain = report.row("spectral-plain", memory);
  ASSERT_NE(plain, nullptr);
  EXPECT_DOUBLE_EQ(plain->value, direct_plain.bound);
  EXPECT_EQ(plain->best_k, direct_plain.best_k);

  const flow::ConvexMinCutResult direct_mincut =
      flow::convex_mincut_bound(g, memory);
  const MethodRow* mincut = report.row("mincut", memory);
  ASSERT_NE(mincut, nullptr);
  EXPECT_DOUBLE_EQ(mincut->value, direct_mincut.bound);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, EngineParity,
    ::testing::Values(ParityCase{"fft:5", 4.0}, ParityCase{"fft:6", 2.0},
                      ParityCase{"bhk:6", 4.0}, ParityCase{"bhk:7", 8.0},
                      ParityCase{"inner:6", 3.0}, ParityCase{"inner:10", 2.0}),
    [](const auto& info) {
      std::string name = info.param.spec;
      std::replace(name.begin(), name.end(), ':', '_');
      return name + "_m" + std::to_string(static_cast<int>(info.param.memory));
    });

TEST(EngineParity, ParallelMatchesTheorem6) {
  Engine engine;
  BoundRequest request;
  request.spec = "bhk:7";
  request.memories = {4.0};
  request.processors = 4;
  request.methods = {"parallel"};
  const BoundReport report = engine.evaluate(request);

  const Digraph g = builders::bhk_hypercube(7);
  const SpectralBound direct =
      parallel_spectral_bound(g, 4.0, 4);
  const MethodRow* row = report.row("parallel", 4.0);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->processors, 4);
  EXPECT_DOUBLE_EQ(row->value, direct.bound);
  EXPECT_EQ(row->best_k, direct.best_k);
}

// Direct calls and Engine requests both solve h = min(max_eigenvalues, n)
// once, so they agree bit for bit on every tier — including forced
// iterative tiers, whose first solve once started at h = 16 in the free
// functions alone.
TEST(EngineParity, ForcedIterativeTiersMatchDirectCalls) {
  for (const char* spec : {"fft:5", "multi:3:fft:4"}) {
    for (const la::SolverKind tier :
         {la::SolverKind::kLanczos, la::SolverKind::kLobpcg}) {
      const std::string what =
          std::string(spec) + " " + std::string(la::to_string(tier));
      SpectralOptions options;
      options.solver = tier;
      Engine engine;
      BoundRequest request;
      request.spec = spec;
      request.memories = {1.0, 4.0};
      request.methods = {"spectral", "spectral-plain"};
      request.spectral = options;
      const BoundReport report = engine.evaluate(request);
      const ArtifactCache* cache = engine.cache(spec);
      ASSERT_NE(cache, nullptr) << what;

      const Digraph g = GraphSpec::parse(spec).build();
      for (const double memory : request.memories) {
        const SpectralBound direct = spectral_bound(g, memory, options);
        const MethodRow* row = report.row("spectral", memory);
        ASSERT_NE(row, nullptr) << what;
        EXPECT_EQ(row->value, direct.bound) << what << " M=" << memory;
        EXPECT_EQ(row->best_k, direct.best_k) << what << " M=" << memory;
        EXPECT_EQ(cache->cached_spectra()
                      .at(LaplacianKind::kOutDegreeNormalized)
                      .values,
                  direct.eigenvalues)
            << what;

        const SpectralBound plain = spectral_bound_plain(g, memory, options);
        const MethodRow* plain_row = report.row("spectral-plain", memory);
        ASSERT_NE(plain_row, nullptr) << what;
        EXPECT_EQ(plain_row->value, plain.bound) << what << " M=" << memory;
        EXPECT_EQ(plain_row->best_k, plain.best_k) << what << " M=" << memory;
        EXPECT_EQ(cache->cached_spectra().at(LaplacianKind::kPlain).values,
                  plain.eigenvalues)
            << what;
      }
    }
  }
}

TEST(EngineParity, MemsimMatchesBestSchedule) {
  Engine engine;
  BoundRequest request;
  request.spec = "fft:4";
  request.memories = {8.0};
  request.methods = {"memsim"};
  const BoundReport report = engine.evaluate(request);
  const MethodRow* row = report.row("memsim", 8.0);
  ASSERT_NE(row, nullptr);
  const sim::SimResult direct =
      sim::best_schedule_io(builders::fft(4), 8);
  EXPECT_DOUBLE_EQ(row->value, static_cast<double>(direct.total()));
}

TEST(EngineParity, PebbleExactMatchesSearch) {
  Engine engine;
  BoundRequest request;
  request.spec = "inner:3";  // 6 inputs, 3 products, 2 adds = 11 vertices
  request.memories = {3.0};
  request.methods = {"pebble-exact", "spectral", "memsim"};
  const BoundReport report = engine.evaluate(request);
  const MethodRow* exact_row = report.row("pebble-exact", 3.0);
  ASSERT_NE(exact_row, nullptr);
  ASSERT_TRUE(exact_row->applicable);
  const auto direct =
      exact::exact_optimal_io(builders::inner_product(3), 3);
  EXPECT_DOUBLE_EQ(exact_row->value, static_cast<double>(direct.io));

  // Sandwich through the report: lower <= exact <= upper.
  const MethodRow* lower = report.row("spectral", 3.0);
  const MethodRow* upper = report.row("memsim", 3.0);
  ASSERT_NE(lower, nullptr);
  ASSERT_NE(upper, nullptr);
  EXPECT_LE(lower->value, exact_row->value);
  EXPECT_LE(exact_row->value, upper->value);
}

// ----------------------------------------------------------- artifact reuse

TEST(ArtifactReuse, SpectrumComputedExactlyOncePerKind) {
  // The acceptance shape: --method all --memory 4,8,16 on one graph must
  // run exactly one eigendecomposition per Laplacian kind — the
  // normalized spectrum is shared by "spectral" and "parallel" across all
  // three memory sizes, the plain spectrum by "spectral-plain".
  Engine engine;
  BoundRequest request;
  request.spec = "fft:5";
  request.memories = {4.0, 8.0, 16.0};
  request.methods = {"all"};
  const BoundReport report = engine.evaluate(request);

  EXPECT_EQ(report.cache.eigensolves, 2);
  EXPECT_EQ(report.cache.mincut_sweeps, 1);
  EXPECT_GT(report.cache.hits, 0);

  const ArtifactCache* cache = engine.cache("fft:5");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(
      cache->cached_spectra().at(LaplacianKind::kOutDegreeNormalized)
          .eigensolves,
      1);
  EXPECT_EQ(cache->cached_spectra().at(LaplacianKind::kPlain).eigensolves, 1);
}

TEST(ArtifactReuse, SecondEvaluationIsAllHits) {
  Engine engine;
  BoundRequest request;
  request.spec = "bhk:6";
  request.memories = {4.0, 8.0};
  request.methods = {"spectral", "mincut"};
  const BoundReport first = engine.evaluate(request);
  EXPECT_EQ(first.cache.eigensolves, 1);
  EXPECT_EQ(first.cache.mincut_sweeps, 1);

  // Same spec again — every artifact must come from the cache, and the
  // results must be identical.
  const BoundReport second = engine.evaluate(request);
  EXPECT_EQ(second.cache.eigensolves, 0);
  EXPECT_EQ(second.cache.mincut_sweeps, 0);
  EXPECT_EQ(second.cache.misses, 0);
  ASSERT_EQ(second.rows.size(), first.rows.size());
  for (std::size_t i = 0; i < first.rows.size(); ++i) {
    EXPECT_EQ(second.rows[i].method, first.rows[i].method);
    EXPECT_DOUBLE_EQ(second.rows[i].value, first.rows[i].value);
  }
}

TEST(ArtifactReuse, CacheServesSmallerSpectrumRequests) {
  ArtifactCache cache(builders::fft(4));
  const auto& big = cache.spectrum(LaplacianKind::kPlain, 20);
  EXPECT_EQ(cache.stats().eigensolves, 1);
  EXPECT_GE(big.values.size(), 20u);
  const auto& again = cache.spectrum(LaplacianKind::kPlain, 8);
  EXPECT_EQ(cache.stats().eigensolves, 1);  // served from cache
  EXPECT_EQ(&again, &big);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(ArtifactReuse, ChangedSolverOptionsInvalidateSpectrum) {
  ArtifactCache cache(builders::fft(4));
  const SpectralOptions defaults;
  cache.spectrum(LaplacianKind::kPlain, 8, defaults);
  cache.spectrum(LaplacianKind::kPlain, 8, defaults);  // hit
  EXPECT_EQ(cache.stats().eigensolves, 1);

  SpectralOptions dense = defaults;
  dense.solver = la::SolverKind::kDense;
  cache.spectrum(LaplacianKind::kPlain, 8, dense);  // options changed
  EXPECT_EQ(cache.stats().eigensolves, 2);
  cache.spectrum(LaplacianKind::kPlain, 8, dense);  // hit again
  EXPECT_EQ(cache.stats().eigensolves, 2);
}

// ------------------------------------------------------------------ report

TEST(BoundReport, JsonIsValidAndCarriesRows) {
  Engine engine;
  BoundRequest request;
  request.spec = "inner:4";
  request.memories = {3.0, 5.0};
  request.methods = {"all"};
  const BoundReport report = engine.evaluate(request);

  EXPECT_EQ(report.rows.size(), methods().size() * 2);
  const std::string json = report.to_json();
  EXPECT_TRUE(io::json_valid(json)) << json;
  EXPECT_NE(json.find("\"eigensolves\""), std::string::npos);

  const Table table = report.to_table();
  EXPECT_EQ(table.rows(), report.rows.size());
}

TEST(BoundReport, AnalyticAppliesOnlyToClosedFormFamilies) {
  Engine engine;
  BoundRequest request;
  request.spec = "fft:6";
  request.memories = {8.0};
  request.methods = {"analytic"};
  const BoundReport fft_report = engine.evaluate(request);
  ASSERT_EQ(fft_report.rows.size(), 1u);
  EXPECT_TRUE(fft_report.rows[0].applicable);

  request.spec = "grid:4:4";
  const BoundReport grid_report = engine.evaluate(request);
  ASSERT_EQ(grid_report.rows.size(), 1u);
  EXPECT_FALSE(grid_report.rows[0].applicable);
}

TEST(BoundReport, ExplicitGraphRequestsWork) {
  Engine engine;
  BoundRequest request;
  request.graph = builders::grid(3, 3);
  request.name = "my-grid";
  request.memories = {2.0};
  request.methods = {"spectral", "memsim"};
  const BoundReport report = engine.evaluate(request);
  EXPECT_EQ(report.graph, "my-grid");
  EXPECT_EQ(report.vertices, 9);
  EXPECT_EQ(report.rows.size(), 2u);
  // Explicit graphs use a private cache; nothing is persisted.
  EXPECT_EQ(engine.cache("my-grid"), nullptr);
}

// ------------------------------------------------------------------ stats

// Explicit-graph requests evaluate through private caches, spec requests
// through the persistent per-spec ones; both count in the Engine's
// lifetime totals, which move exactly as the process registry does.
TEST(EngineStats, CountsExplicitGraphAndSpecEvaluations) {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  const auto read = [&reg] {
    return std::array{reg.counter("cache.hits").value(),
                      reg.counter("cache.misses").value(),
                      reg.counter("cache.eigensolves").value()};
  };
  const auto before = read();
  Engine engine;

  BoundRequest single;
  single.graph = builders::fft(4);
  single.memories = {4.0, 8.0};
  single.methods = {"spectral", "mincut"};
  const BoundReport report = engine.evaluate(single);
  EXPECT_EQ(report.cache.eigensolves, 1);

  std::vector<BoundReport> reports;
  for (const char* spec : {"fft:4", "bhk:5"}) {
    BoundRequest request;
    request.spec = spec;
    request.memories = {4.0, 8.0};
    request.methods = {"spectral", "mincut"};
    reports.push_back(engine.evaluate(request));
  }

  const auto after = read();
  const ArtifactCache::Stats stats = engine.stats();
  EXPECT_EQ(stats.hits, after[0] - before[0]);
  EXPECT_EQ(stats.misses, after[1] - before[1]);
  EXPECT_EQ(stats.eigensolves, after[2] - before[2]);
  EXPECT_EQ(stats.eigensolves, report.cache.eigensolves +
                                   reports[0].cache.eigensolves +
                                   reports[1].cache.eigensolves);
  EXPECT_GT(stats.misses, 0);
}

// ----------------------------------------------------------------- guards

TEST(EngineGuards, EmptySweepAndBadMemoryThrow) {
  Engine engine;
  BoundRequest request;
  request.spec = "fft:4";
  EXPECT_THROW(engine.evaluate(request), contract_error);  // no memories
  request.memories = {-1.0};
  EXPECT_THROW(engine.evaluate(request), contract_error);
  request.memories = {4.0};
  request.spec.clear();
  EXPECT_THROW(engine.evaluate(request), contract_error);  // no graph
}

// Contract messages name the condition, never the source file: row notes
// reach ResultStore lines and provenance, which must not differ between
// checkouts or move when code above a check does.
TEST(EngineGuards, ContractNotesCarryNoSourceLocation) {
  Digraph cyclic(3);
  cyclic.add_edge(0, 1);
  cyclic.add_edge(1, 2);
  cyclic.add_edge(2, 0);
  Engine engine;
  BoundRequest request;
  request.graph = cyclic;
  request.name = "cycle";
  request.memories = {2.0, 4.0};
  request.methods = {"memsim"};
  const BoundReport report = engine.evaluate(request);
  ASSERT_EQ(report.rows.size(), 2u);
  for (const MethodRow& row : report.rows) {
    EXPECT_FALSE(row.applicable);
    EXPECT_NE(row.note.find("graph has a cycle"), std::string::npos)
        << row.note;
    EXPECT_EQ(row.note.find(".cpp:"), std::string::npos) << row.note;
    EXPECT_EQ(row.note.find(".hpp:"), std::string::npos) << row.note;
  }
}

TEST(EngineGuards, InapplicableMethodsReportNotThrow) {
  Engine engine;
  BoundRequest request;
  request.spec = "fft:5";  // 192 vertices: pebble-exact out of range
  request.memories = {1.0};  // below max in-degree: memsim infeasible
  request.methods = {"pebble-exact", "memsim"};
  const BoundReport report = engine.evaluate(request);
  ASSERT_EQ(report.rows.size(), 2u);
  for (const MethodRow& row : report.rows) {
    EXPECT_FALSE(row.applicable);
    EXPECT_FALSE(row.note.empty());
  }
}

}  // namespace
}  // namespace graphio::engine
