#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "graphio/core/spectral_bound.hpp"
#include "graphio/core/spectral_pipeline.hpp"
#include "graphio/engine/artifact_cache.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/engine/fingerprint.hpp"
#include "graphio/engine/graph_spec.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/components.hpp"

namespace graphio {
namespace {

SpectralOptions dense_monolithic() {
  SpectralOptions options;
  options.solver = la::SolverKind::kDense;
  options.decompose = false;
  return options;
}

void expect_near_spectra(const std::vector<double>& a,
                         const std::vector<double>& b, double tol,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], tol) << what << " lambda_" << i;
}

// ------------------------------------------------------------- decomposition

TEST(SpectralPipeline, ConnectedGraphIsSingleInPlaceSolve) {
  const Digraph g = builders::fft(4);
  const PipelineResult result = SpectralPipeline(SpectralOptions{}).run(
      g, LaplacianKind::kOutDegreeNormalized, 16);
  EXPECT_EQ(result.components, 1);
  EXPECT_EQ(result.eigensolves, 1);
  ASSERT_EQ(result.per_component.size(), 1u);
  EXPECT_EQ(result.per_component[0].vertices, g.num_vertices());
  EXPECT_EQ(static_cast<int>(result.values.size()), 16);
  EXPECT_TRUE(result.converged);
}

TEST(SpectralPipeline, DisjointFftCorpusSolvesPerComponent) {
  // The ISSUE 3 acceptance shape: 8 disjoint FFTs -> 8 small eigensolves,
  // never 1 monolithic one, with the merged spectrum matching the
  // monolithic dense solve exactly.
  const Digraph g = engine::GraphSpec::parse("multi:8:fft:4").build();
  const int h = 40;

  const PipelineResult piped =
      SpectralPipeline(SpectralOptions{}).run(g, LaplacianKind::kOutDegreeNormalized, h);
  EXPECT_EQ(piped.components, 8);
  EXPECT_EQ(piped.eigensolves, 8);
  for (const ComponentSolve& solve : piped.per_component) {
    EXPECT_EQ(solve.vertices, g.num_vertices() / 8);
    EXPECT_EQ(solve.solver, la::SolverKind::kDense);  // tier flip
  }

  const PipelineResult mono = SpectralPipeline(dense_monolithic())
                                  .run(g, LaplacianKind::kOutDegreeNormalized,
                                       h);
  EXPECT_EQ(mono.components, 1);
  EXPECT_EQ(mono.eigensolves, 1);
  expect_near_spectra(piped.values, mono.values, 1e-8, "multi:8:fft:4");
}

TEST(SpectralPipeline, EdgelessComponentsNeedNoEigensolve) {
  // path(3) plus two isolated vertices: the singletons contribute exact
  // zeros without touching a solver.
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const PipelineResult result =
      SpectralPipeline(SpectralOptions{}).run(g, LaplacianKind::kPlain, 5);
  EXPECT_EQ(result.components, 3);
  EXPECT_EQ(result.eigensolves, 1);  // only the path
  ASSERT_EQ(result.values.size(), 5u);
  // Plain Laplacian of P3 has spectrum {0, 1, 3}; the union adds two 0s.
  const std::vector<double> expected{0.0, 0.0, 0.0, 1.0, 3.0};
  expect_near_spectra(result.values, expected, 1e-9, "path+isolated");
}

TEST(SpectralPipeline, WhollyEdgelessGraphIsAllZerosNoSolve) {
  const Digraph g(6);
  const PipelineResult result =
      SpectralPipeline(SpectralOptions{}).run(g, LaplacianKind::kOutDegreeNormalized, 4);
  EXPECT_EQ(result.eigensolves, 0);
  EXPECT_EQ(result.components, 6);
  ASSERT_EQ(result.values.size(), 4u);
  for (double v : result.values) EXPECT_EQ(v, 0.0);
}

TEST(SpectralPipeline, DecomposeOffReproducesMonolithicBehavior) {
  const Digraph g = engine::GraphSpec::parse("multi:3:inner:3").build();
  SpectralOptions mono;
  mono.decompose = false;
  const PipelineResult result =
      SpectralPipeline(mono).run(g, LaplacianKind::kPlain, 8);
  EXPECT_EQ(result.components, 1);
  EXPECT_EQ(result.eigensolves, 1);
}

// A monolithic solve of C disjoint copies multiplies every eigenvalue's
// multiplicity by C — past the Lanczos block (8), where block Lanczos used
// to miss copies and certify a value above λ_j: on multi:40:fft:2 it found
// 32 of the 40 zeros and returned λ_33 = 0.38; on multi:16:fft:3 at h = 100
// it found 28 of the 32 copies of 0.198. Every certified value of a forced
// iterative tier must stay at or below the dense value at its position,
// or the bound built on it is unsound. (C = 9 and 17 of fft:2 stay below
// the solvers' internal dense fallback.)
TEST(SpectralPipeline, IterativeTiersNeverOvershootPlantedMultiplicities) {
  for (const char* spec : {"multi:9:fft:2", "multi:17:fft:2", "multi:40:fft:2",
                           "multi:16:fft:3"}) {
    const Digraph g = engine::GraphSpec::parse(spec).build();
    for (const LaplacianKind kind :
         {LaplacianKind::kPlain, LaplacianKind::kOutDegreeNormalized}) {
      const std::vector<double> dense =
          SpectralPipeline(dense_monolithic()).run(g, kind, 100).values;
      const double tol = 1e-9 * std::max(1.0, dense.back());
      for (const la::SolverKind tier :
           {la::SolverKind::kLanczos, la::SolverKind::kLobpcg}) {
        SpectralOptions options;
        options.solver = tier;
        options.decompose = false;
        // LOBPCG's per-iteration Rayleigh–Ritz makes large h slow here.
        for (const int h : {16, 40, 100}) {
          if (tier == la::SolverKind::kLobpcg && h > 16) continue;
          const std::vector<double> certified =
              SpectralPipeline(options).run(g, kind, h).values;
          const std::string what = std::string(spec) + " " +
                                   std::string(la::to_string(tier)) +
                                   " h=" + std::to_string(h);
          ASSERT_LE(certified.size(), dense.size()) << what;
          for (std::size_t i = 0; i < certified.size(); ++i)
            EXPECT_LE(certified[i], dense[i] + tol) << what << " i=" << i;
        }
      }
    }
  }
}

// ------------------------------------------ lookup-then-extract via the store

/// An ArtifactCache over `g` the way a stream session hands one over:
/// unmaterialized, with the decomposition and every component's
/// fingerprint seeded, resolving against `shared`, and counting each
/// component it extracts in `*extracted`.
engine::ArtifactCache seeded_cache(
    const Digraph& g, const WeakComponents& wc,
    std::shared_ptr<store::ArtifactStore> shared, int* extracted) {
  engine::LazyGraph lazy;
  lazy.vertices = g.num_vertices();
  lazy.edges = g.num_edges();
  lazy.materialize = [&g] { return g; };
  lazy.component = [&g, &wc, extracted](int c) {
    ++*extracted;
    return wc.subgraph(g, c);
  };
  lazy.max_out_degree = [&g] { return g.max_out_degree(); };
  lazy.max_in_degree = [&g] { return g.max_in_degree(); };
  engine::ComponentSeed seed;
  for (int c = 0; c < wc.count; ++c) {
    engine::ComponentSeed::Component comp;
    comp.vertices = wc.vertices[static_cast<std::size_t>(c)];
    comp.edges = wc.edges_in(g, c);
    comp.fingerprint = engine::subgraph_fingerprint(g, wc, c);
    seed.components.push_back(std::move(comp));
  }
  return engine::ArtifactCache(std::move(lazy), std::move(shared),
                               std::move(seed));
}

TEST(SpectralPipeline, ComponentSolverHookIsUsed) {
  // Every component with edges reaches the per-component solve: the first
  // copy eigensolves, the three equal copies resolve from the store.
  const Digraph g = engine::GraphSpec::parse("multi:4:path:3").build();
  engine::ArtifactCache cache(Digraph(g),
                              std::make_shared<store::ArtifactStore>());
  const PipelineResult& spectrum = cache.spectrum(LaplacianKind::kPlain, 6);
  EXPECT_EQ(cache.stats().eigensolves + cache.stats().component_hits, 4);
  EXPECT_EQ(cache.stats().eigensolves, 1);
  EXPECT_EQ(spectrum.components, 4);
}

TEST(SpectralPipeline, ResolvedComponentsNeverMaterialize) {
  // Four content-equal components, store warm for that content: the whole
  // query is lookups — zero extractions, zero eigensolves.
  const Digraph g = engine::GraphSpec::parse("multi:4:fft:3").build();
  const WeakComponents wc = weakly_connected_components(g);
  ASSERT_EQ(wc.count, 4);
  const SpectralOptions options;
  const int h = 6;

  auto shared = std::make_shared<store::ArtifactStore>();
  const Digraph sub0 = wc.subgraph(g, 0);
  shared->store_spectrum(
      engine::graph_fingerprint(sub0), LaplacianKind::kPlain, h, options,
      solve_component_spectrum(sub0, LaplacianKind::kPlain, h, options));

  int extracted = 0;
  engine::ArtifactCache cache = seeded_cache(g, wc, shared, &extracted);
  const std::vector<double> values =
      cache.spectrum(LaplacianKind::kPlain, h, options).values;

  EXPECT_EQ(extracted, 0);
  EXPECT_EQ(cache.stats().subgraph_extractions, 0);
  EXPECT_EQ(cache.stats().fingerprint_computes, 0);
  EXPECT_EQ(cache.stats().component_hits, 4);
  EXPECT_EQ(cache.stats().eigensolves, 0);

  const PipelineResult direct =
      SpectralPipeline(options).run(g, LaplacianKind::kPlain, h);
  expect_near_spectra(values, direct.values, 1e-8, "resolved components");
}

TEST(SpectralPipeline, MissesMaterializePublishAndThenResolve) {
  // Cold store: each *distinct* content extracts and solves once; the
  // published solves make a second cache over the same store all-hits.
  const Digraph g = engine::GraphSpec::parse("multi:3:inner:4").build();
  const WeakComponents wc = weakly_connected_components(g);
  ASSERT_EQ(wc.count, 3);
  const SpectralOptions options;
  const int h = 5;

  auto shared = std::make_shared<store::ArtifactStore>();
  int extracted = 0;
  engine::ArtifactCache first = seeded_cache(g, wc, shared, &extracted);
  const std::vector<double> first_values =
      first.spectrum(LaplacianKind::kOutDegreeNormalized, h, options).values;
  EXPECT_EQ(first.stats().subgraph_extractions, 1);  // 3 equal copies
  EXPECT_EQ(first.stats().eigensolves, 1);
  EXPECT_EQ(first.stats().component_hits, 2);
  EXPECT_EQ(extracted, 1);

  engine::ArtifactCache second = seeded_cache(g, wc, shared, &extracted);
  const std::vector<double> second_values =
      second.spectrum(LaplacianKind::kOutDegreeNormalized, h, options).values;
  EXPECT_EQ(second.stats().subgraph_extractions, 0);
  EXPECT_EQ(second.stats().component_hits, 3);
  EXPECT_EQ(extracted, 1);
  expect_near_spectra(first_values, second_values, 0.0, "warm replay");
}

TEST(SpectralPipeline, LazyFingerprintsAreComputedOnDemandAndCounted) {
  const Digraph g = engine::GraphSpec::parse("multi:2:fft:3").build();
  engine::ArtifactCache cache(Digraph(g),
                              std::make_shared<store::ArtifactStore>());
  cache.spectrum(LaplacianKind::kPlain, 4);
  EXPECT_EQ(cache.stats().fingerprint_computes, 2);
  // Equal content: the first copy misses (extracts, publishes), the
  // second resolves off its freshly published fingerprint.
  EXPECT_EQ(cache.stats().subgraph_extractions, 1);
  EXPECT_EQ(cache.stats().component_hits, 1);
  // Memoized: another kind hashes nothing again.
  cache.spectrum(LaplacianKind::kOutDegreeNormalized, 4);
  EXPECT_EQ(cache.stats().fingerprint_computes, 2);
}

TEST(SpectralPipeline, TrivialPlannedComponentsSkipEverything) {
  // Edgeless components: no fingerprint, no lookup, no extraction.
  Digraph g(4);
  g.add_edge(0, 1);
  ASSERT_EQ(weakly_connected_components(g).count, 3);
  auto shared = std::make_shared<store::ArtifactStore>();
  engine::ArtifactCache cache(Digraph(g), shared);
  const std::vector<double> values =
      cache.spectrum(LaplacianKind::kPlain, 4).values;
  EXPECT_EQ(cache.stats().subgraph_extractions, 1);  // the edge's component
  EXPECT_EQ(cache.stats().fingerprint_computes, 1);
  const store::ArtifactStore::KindStats spectra =
      shared->stats()[store::ArtifactKind::kSpectrum];
  EXPECT_EQ(spectra.hits + spectra.misses, 1);
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values[0], 0.0);
  EXPECT_EQ(values[1], 0.0);
}

// Lookup-then-extract (the engine's ArtifactCache over a shared store)
// equals extract-then-solve (the store-less SpectralPipeline::run) to
// 1e-8 across specs × every solver policy, and a second cache over the
// same store answers from it alone, bit for bit. The parameters are
// std::string so gtest prints their text rather than their addresses,
// which keeps the discovered ctest names identical across builds.
class PlanPathParity
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(PlanPathParity, LookupFirstEqualsExtractFirst) {
  const std::string spec = std::get<0>(GetParam());
  const std::string solver = std::get<1>(GetParam());
  const Digraph g = engine::GraphSpec::parse(spec).build();
  SpectralOptions options;
  options.solver = la::parse_solver_policy(solver);
  // Small h keeps the forced sparse tiers well-posed on tiny components.
  const int h =
      static_cast<int>(std::min<std::int64_t>(g.num_vertices(), 6));

  for (const LaplacianKind kind :
       {LaplacianKind::kPlain, LaplacianKind::kOutDegreeNormalized}) {
    const std::string what = spec + "/" + solver;
    auto shared = std::make_shared<store::ArtifactStore>();
    engine::ArtifactCache lookup_first{Digraph(g), shared};
    const std::vector<double> values =
        lookup_first.spectrum(kind, h, options).values;

    engine::ArtifactCache replay{Digraph(g), shared};
    EXPECT_EQ(replay.spectrum(kind, h, options).values, values) << what;
    EXPECT_EQ(replay.stats().eigensolves, 0) << what;

    const PipelineResult extract_first =
        SpectralPipeline(options).run(g, kind, h);
    expect_near_spectra(values, extract_first.values, 1e-8, what);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SpecsBySolvers, PlanPathParity,
    ::testing::Combine(::testing::Values("fft:4", "matmul:2",
                                         "multi:3:fft:3", "multi:2:inner:5"),
                       ::testing::Values("auto", "dense", "lanczos",
                                         "lobpcg")));

// --------------------------------------------------- merged-spectrum parity

// Random disjoint unions with 2..8 components: the merged per-component
// spectrum must match the monolithic dense spectrum of the union within
// 1e-8 (it is exactly the same multiset, so the tolerance only absorbs
// floating-point noise between solve orders).
class RandomUnionParity : public ::testing::TestWithParam<int> {};

TEST_P(RandomUnionParity, MergedMatchesWholeGraphDense) {
  const int seed = GetParam();
  const int num_components = 2 + seed % 7;  // 2..8
  std::vector<Digraph> parts;
  for (int c = 0; c < num_components; ++c) {
    const std::int64_t n = 10 + ((seed * 7 + c * 13) % 30);
    const double p = 0.08 + 0.02 * (c % 4);
    parts.push_back(builders::erdos_renyi_dag(
        n, p, static_cast<std::uint64_t>(seed * 100 + c)));
  }
  const Digraph g = disjoint_union(parts);
  const int h = static_cast<int>(std::min<std::int64_t>(
      g.num_vertices(), 24));

  for (const LaplacianKind kind :
       {LaplacianKind::kPlain, LaplacianKind::kOutDegreeNormalized}) {
    const PipelineResult piped = SpectralPipeline(SpectralOptions{}).run(g, kind, h);
    const PipelineResult mono =
        SpectralPipeline(dense_monolithic()).run(g, kind, h);
    // The ER parts may themselves be disconnected, so expect *at least*
    // the assembled component count.
    EXPECT_GE(piped.components, num_components);
    EXPECT_TRUE(piped.converged);
    expect_near_spectra(piped.values, mono.values, 1e-8,
                        "seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomUnionParity,
                         ::testing::Range(0, 10));

// Engine-facing acceptance: on every shipped builder family (small
// instances, so the dense reference is affordable) the pipeline bound
// equals the monolithic dense whole-graph bound within 1e-8.
class BuilderParity : public ::testing::TestWithParam<const char*> {};

TEST_P(BuilderParity, PipelineBoundMatchesMonolithicDense) {
  const std::string spec = GetParam();
  const Digraph g = engine::GraphSpec::parse(spec).build();
  const SpectralBound a = spectral_bound(g, 8.0);
  const SpectralBound b = spectral_bound(g, 8.0, dense_monolithic());
  EXPECT_NEAR(a.bound, b.bound, 1e-8) << spec;
  EXPECT_EQ(a.best_k, b.best_k) << spec;
}

INSTANTIATE_TEST_SUITE_P(
    Families, BuilderParity,
    ::testing::Values("fft:4", "bhk:5", "inner:6", "matmul:3", "strassen:2",
                      "er:60:0.1:7", "grid:5:6", "tree:4", "path:12",
                      "stencil1d:6:4", "stencil2d:4:4:3", "scan:4",
                      "bitonic:3", "trisolve:5", "cholesky:4",
                      "multi:4:fft:3", "multi:2:bhk:4"));

}  // namespace
}  // namespace graphio
