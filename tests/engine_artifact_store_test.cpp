#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graphio/engine/artifact_cache.hpp"
#include "graphio/engine/engine.hpp"
#include "graphio/engine/fingerprint.hpp"
#include "graphio/engine/graph_spec.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/components.hpp"
#include "graphio/serve/scheduler.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/telemetry/metrics.hpp"

namespace graphio::engine {
namespace {

constexpr LaplacianKind kNorm = LaplacianKind::kOutDegreeNormalized;
constexpr store::ArtifactKind kSpectrum = store::ArtifactKind::kSpectrum;

/// `g` behind the callbacks the stream session hands over, extracting the
/// components of `wc` (in `wc` order, the seed order below).
LazyGraph lazy_graph(const Digraph& g, const WeakComponents& wc) {
  LazyGraph lazy;
  lazy.vertices = g.num_vertices();
  lazy.edges = g.num_edges();
  lazy.materialize = [g] { return g; };
  lazy.component = [g, wc](int c) { return wc.subgraph(g, c); };
  lazy.max_out_degree = [g] { return g.max_out_degree(); };
  lazy.max_in_degree = [g] { return g.max_in_degree(); };
  return lazy;
}

TEST(ArtifactStoreEngine, SharedComponentAcrossTwoSpecsEigensolvesOnce) {
  // The ISSUE 3 cache acceptance: a component shared by two specs of the
  // same Engine is eigensolved exactly once.
  Engine engine;
  BoundRequest request;
  request.spec = "fft:4";
  request.memories = {4.0, 8.0};
  request.methods = {"spectral"};
  const BoundReport first = engine.evaluate(request);
  EXPECT_EQ(first.cache.eigensolves, 1);
  EXPECT_EQ(first.cache.component_hits, 0);

  // Every component of the disjoint union is content-equal to fft:4.
  request.spec = "multi:3:fft:4";
  const BoundReport second = engine.evaluate(request);
  EXPECT_EQ(second.cache.eigensolves, 0);
  EXPECT_EQ(second.cache.component_hits, 3);
  EXPECT_EQ(engine.artifact_store()->stats()[kSpectrum].entries, 1);
}

TEST(ArtifactStoreEngine, IdenticalComponentsWithinOneGraphDedupe) {
  // Even a standalone ArtifactCache (private component cache) solves each
  // *distinct* component once: 5 copies -> 1 eigensolve + 4 hits — and on
  // the fingerprint-first path only the one miss ever materializes.
  ArtifactCache cache(GraphSpec::parse("multi:5:inner:3").build());
  const auto& artifact = cache.spectrum(kNorm, 20);
  EXPECT_EQ(artifact.components, 5);
  EXPECT_EQ(cache.stats().eigensolves, 1);
  EXPECT_EQ(cache.stats().component_hits, 4);
  EXPECT_EQ(cache.stats().subgraph_extractions, 1);
  EXPECT_EQ(cache.stats().fingerprint_computes, 5);
}

TEST(ArtifactStoreEngine, UniformKindsResolveOncePerDistinctComponent) {
  // The four uniform kinds dedupe like spectra: 5 equal components
  // compute each artifact once, and partition-dp takes its order from the
  // topo artifact instead of running Kahn again.
  ArtifactCache cache(GraphSpec::parse("multi:5:inner:3").build());
  cache.topo_order();
  cache.max_wavefront_cut();
  cache.memsim_rows({8}, 3);
  cache.partition_rows({8});
  cache.partition_rows({4});
  const ArtifactCache::Stats& stats = cache.stats();
  EXPECT_EQ(stats.topo_computes, 1);
  EXPECT_EQ(stats.mincut_sweeps, 1);
  EXPECT_EQ(stats.memsim_runs, 1);
  EXPECT_EQ(stats.partition_runs, 2);
  EXPECT_EQ(stats.subgraph_extractions, 5);  // one per computing kind
  EXPECT_EQ(stats.fingerprint_computes, 5);  // one per component
  const store::ArtifactStore::Stats kinds = cache.artifact_store()->stats();
  EXPECT_EQ(kinds[store::ArtifactKind::kTopoOrder].hits, 6);
  EXPECT_EQ(kinds[store::ArtifactKind::kTopoOrder].misses, 1);
  EXPECT_EQ(kinds[store::ArtifactKind::kPartitionRow].hits, 8);
  EXPECT_EQ(kinds[store::ArtifactKind::kPartitionRow].misses, 2);

  // The partition DP publishes the order it computed: topo_order() after
  // it runs no Kahn.
  ArtifactCache fresh(GraphSpec::parse("multi:3:fft:3").build());
  fresh.partition_rows({8});
  fresh.topo_order();
  EXPECT_EQ(fresh.stats().topo_computes, 1);

  // Several memories of one request resolve in one pass per component:
  // one extraction and one topo lookup serve both DP rows, and each
  // (component, M) row is still its own store entry.
  ArtifactCache both(GraphSpec::parse("multi:5:inner:3").build());
  const std::vector<ArtifactCache::PartitionArtifact> rows =
      both.partition_rows({8, 4});
  EXPECT_EQ(both.stats().partition_runs, 2);
  EXPECT_EQ(both.stats().subgraph_extractions, 1);
  EXPECT_EQ(both.stats().misses, 2);
  const store::ArtifactStore::Stats both_kinds =
      both.artifact_store()->stats();
  EXPECT_EQ(both_kinds[store::ArtifactKind::kTopoOrder].hits, 0);
  EXPECT_EQ(both_kinds[store::ArtifactKind::kTopoOrder].misses, 1);
  EXPECT_EQ(both_kinds[store::ArtifactKind::kPartitionRow].hits, 8);
  EXPECT_EQ(both_kinds[store::ArtifactKind::kPartitionRow].misses, 2);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].bound, cache.partition_rows({8}).front().bound);
  EXPECT_EQ(rows[1].bound, cache.partition_rows({4}).front().bound);
}

TEST(ArtifactStoreEngine, EachComputingKindExtractsOncePerRequest) {
  // Three equal components and three memories: memsim is feasible at one
  // memory and partition-dp at all three, yet each kind extracts its one
  // distinct component once — not once per (component, M) store miss.
  Engine engine;
  BoundRequest request;
  request.spec = "multi:3:er:300:0.03:1";
  request.memories = {4.0, 8.0, 16.0};
  request.methods = {"memsim", "partition-dp"};
  const BoundReport report = engine.evaluate(request);
  EXPECT_EQ(report.cache.subgraph_extractions, 2);
  EXPECT_EQ(report.cache.partition_runs, 3);
  EXPECT_EQ(report.cache.memsim_runs, 1);
  EXPECT_EQ(report.cache.topo_computes, 1);
  EXPECT_EQ(report.cache.fingerprint_computes, 3);
  ASSERT_EQ(report.rows.size(), 6u);
  for (const MethodRow& row : report.rows)
    EXPECT_EQ(row.applicable,
              row.method == "partition-dp" || row.memory == 16.0)
        << row.method << " M=" << row.memory;
}

TEST(ArtifactStoreEngine, FingerprintsComputeOncePerGraphAcrossKinds) {
  // The decomposition and its fingerprints belong to the graph, not to
  // one spectrum: a second Laplacian kind re-solves (different matrix)
  // but never re-hashes or re-decomposes.
  ArtifactCache cache(GraphSpec::parse("multi:5:inner:3").build());
  cache.spectrum(kNorm, 20);
  EXPECT_EQ(cache.stats().fingerprint_computes, 5);
  const ArtifactCache::Stats before = cache.stats();
  const auto& plain = cache.spectrum(LaplacianKind::kPlain, 20);
  const ArtifactCache::Stats plain_delta =
      telemetry::difference(cache.stats(), before);
  EXPECT_EQ(plain_delta.fingerprint_computes, 0);
  EXPECT_EQ(plain_delta.subgraph_extractions, 1);  // the new kind's one miss
  EXPECT_EQ(cache.stats().fingerprint_computes, 5);
  ASSERT_EQ(plain.per_component.size(), 5u);
  for (const ComponentSolve& solve : plain.per_component) {
    EXPECT_TRUE(solve.fingerprinted);
    EXPECT_NE(solve.fingerprint, 0u);
  }
}

TEST(ArtifactStoreEngine, CleanComponentsNeverMaterializeAcrossSpecs) {
  // The zero-copy headline: once fft:4 is cached, every fft:4-shaped
  // component of any later spec resolves by fingerprint alone — no
  // subgraph is ever built for it.
  Engine engine;
  BoundRequest request;
  request.spec = "fft:4";
  request.memories = {8.0};
  request.methods = {"spectral"};
  const BoundReport first = engine.evaluate(request);
  // Connected graph: solved in place, so even the miss never extracted.
  EXPECT_EQ(first.cache.subgraph_extractions, 0);
  EXPECT_EQ(first.cache.fingerprint_computes, 1);

  request.spec = "multi:3:fft:4";
  const BoundReport second = engine.evaluate(request);
  EXPECT_EQ(second.cache.eigensolves, 0);
  EXPECT_EQ(second.cache.component_hits, 3);
  EXPECT_EQ(second.cache.subgraph_extractions, 0);
  EXPECT_EQ(second.cache.fingerprint_computes, 3);
}

TEST(ArtifactStoreEngine, SeededCacheSkipsDecompositionAndHashing) {
  // A ComponentSeed (what the stream session hands install_graph with
  // its LazyGraph) makes the first query fingerprint-free; only cache
  // misses extract.
  const Digraph g = GraphSpec::parse("multi:2:fft:3").build();
  const auto wc = weakly_connected_components(g);
  ASSERT_EQ(wc.count, 2);
  ComponentSeed seed;
  for (int c = 0; c < wc.count; ++c) {
    ComponentSeed::Component comp;
    comp.vertices = wc.vertices[static_cast<std::size_t>(c)];
    comp.edges = wc.edges_in(g, c);
    comp.fingerprint = graph_fingerprint(wc.subgraph(g, c));
    seed.components.push_back(std::move(comp));
  }
  ArtifactCache cache(lazy_graph(g, wc), nullptr, std::move(seed));
  const ArtifactCache::Stats before = cache.stats();
  const auto& artifact = cache.spectrum(kNorm, 10);
  const ArtifactCache::Stats delta =
      telemetry::difference(cache.stats(), before);
  EXPECT_EQ(artifact.components, 2);
  EXPECT_EQ(delta.fingerprint_computes, 0);
  EXPECT_EQ(delta.subgraph_extractions, 1);  // equal copies: one miss
  EXPECT_EQ(delta.eigensolves, 1);
  EXPECT_EQ(delta.component_hits, 1);

  // Parity with an unseeded cache on the same graph.
  ArtifactCache plain{Digraph(g)};
  EXPECT_EQ(plain.spectrum(kNorm, 10).values, artifact.values);
}

TEST(ArtifactStoreEngine, MalformedSeedsAreRejected) {
  const Digraph g = GraphSpec::parse("multi:2:fft:3").build();
  const auto wc = weakly_connected_components(g);
  const auto seed_for = [&](bool drop_vertex, bool wrong_edges) {
    ComponentSeed seed;
    for (int c = 0; c < wc.count; ++c) {
      ComponentSeed::Component comp;
      comp.vertices = wc.vertices[static_cast<std::size_t>(c)];
      comp.edges = wc.edges_in(g, c) + (wrong_edges ? 1 : 0);
      comp.fingerprint = 1;
      seed.components.push_back(std::move(comp));
    }
    if (drop_vertex) seed.components[0].vertices.pop_back();
    return seed;
  };
  {
    ArtifactCache cache(lazy_graph(g, wc), nullptr, seed_for(true, false));
    EXPECT_THROW(cache.spectrum(kNorm, 4), contract_error);
  }
  {
    ArtifactCache cache(lazy_graph(g, wc), nullptr, seed_for(false, true));
    EXPECT_THROW(cache.spectrum(kNorm, 4), contract_error);
  }
}

TEST(ArtifactStoreEngine, TwoArtifactCachesShareThroughOneComponentCache) {
  const auto shared = std::make_shared<store::ArtifactStore>();
  ArtifactCache a(builders::fft(4), shared);
  ArtifactCache b(GraphSpec::parse("multi:2:fft:4").build(), shared);

  a.spectrum(kNorm, 16);
  EXPECT_EQ(a.stats().eigensolves, 1);
  b.spectrum(kNorm, 16);
  EXPECT_EQ(b.stats().eigensolves, 0);
  EXPECT_EQ(b.stats().component_hits, 2);
  // Same values: merging two copies of a spectrum and truncating to the
  // request reproduces the single copy's prefix (eigenvalue union).
  EXPECT_EQ(shared->stats()[kSpectrum].entries, 1);
  EXPECT_GE(shared->stats()[kSpectrum].hits, 2);
}

TEST(ArtifactStoreEngine, DifferentKindsAndOptionsAreDistinctEntries) {
  const auto shared = std::make_shared<store::ArtifactStore>();
  ArtifactCache cache(builders::fft(4), shared);
  cache.spectrum(kNorm, 8);
  cache.spectrum(LaplacianKind::kPlain, 8);
  EXPECT_EQ(shared->stats()[kSpectrum].entries, 2);
  EXPECT_EQ(cache.stats().eigensolves, 2);

  SpectralOptions lanczos;
  lanczos.solver = la::SolverKind::kLanczos;
  cache.spectrum(kNorm, 8, lanczos);  // changed options: recompute
  EXPECT_EQ(cache.stats().eigensolves, 3);
}

TEST(ArtifactStoreEngine, LargerRequestRecomputesSmallerHits) {
  store::ArtifactStore cache;
  const SpectralOptions options;
  ComponentSolve solve;
  solve.vertices = 4;
  solve.values = {0.0, 1.0};
  cache.store_spectrum(42, kNorm, 2, options, solve);
  EXPECT_TRUE(cache.lookup_spectrum(42, kNorm, 2, options).has_value());
  EXPECT_TRUE(cache.lookup_spectrum(42, kNorm, 1, options).has_value());
  EXPECT_FALSE(cache.lookup_spectrum(42, kNorm, 3, options).has_value());
  EXPECT_FALSE(cache.lookup_spectrum(7, kNorm, 2, options).has_value());

  const auto served = cache.lookup_spectrum(42, kNorm, 2, options);
  ASSERT_TRUE(served.has_value());
  EXPECT_TRUE(served->from_cache);
  EXPECT_FALSE(served->solver_ran);

  // A smaller request is served truncated — exactly what a fresh solve
  // for that count would return, so results cannot depend on which
  // request populated the cache first.
  const auto truncated = cache.lookup_spectrum(42, kNorm, 1, options);
  ASSERT_TRUE(truncated.has_value());
  ASSERT_EQ(truncated->values.size(), 1u);
  EXPECT_EQ(truncated->values[0], 0.0);
}

TEST(ArtifactStoreEngine, MixedSolverOptionsCoexistWithoutThrashing) {
  store::ArtifactStore cache;
  SpectralOptions auto_policy;
  SpectralOptions dense;
  dense.solver = la::SolverKind::kDense;
  ComponentSolve solve;
  solve.values = {0.0, 1.0};
  cache.store_spectrum(9, kNorm, 2, auto_policy, solve);
  cache.store_spectrum(9, kNorm, 2, dense, solve);
  // Both configurations stay resident — a batch alternating solvers must
  // not evict the other group's entry on every store.
  EXPECT_TRUE(cache.lookup_spectrum(9, kNorm, 2, auto_policy).has_value());
  EXPECT_TRUE(cache.lookup_spectrum(9, kNorm, 2, dense).has_value());
  EXPECT_EQ(cache.stats()[kSpectrum].entries, 2);
}

TEST(ArtifactStoreEngine, StoreKeepsTheLargerSolve) {
  store::ArtifactStore cache;
  const SpectralOptions options;
  ComponentSolve big;
  big.values = {0.0, 1.0, 2.0, 3.0};
  cache.store_spectrum(1, kNorm, 4, options, big);
  ComponentSolve small;
  small.values = {0.0, 1.0};
  cache.store_spectrum(1, kNorm, 2, options, small);  // must not shrink
  const auto served = cache.lookup_spectrum(1, kNorm, 4, options);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->values.size(), 4u);
}

TEST(ArtifactStoreEngine, EngineClearDropsComponentSpectra) {
  Engine engine;
  BoundRequest request;
  request.spec = "fft:4";
  request.memories = {4.0};
  request.methods = {"spectral"};
  engine.evaluate(request);
  EXPECT_EQ(engine.artifact_store()->stats()[kSpectrum].entries, 1);
  engine.clear();
  EXPECT_EQ(engine.artifact_store()->stats()[kSpectrum].entries, 0);
  const BoundReport again = engine.evaluate(request);
  EXPECT_EQ(again.cache.eigensolves, 1);  // really recomputed
}

TEST(ArtifactStoreEngine, BatchFanOutSharesComponents) {
  // The Scheduler's workers each own an Engine but share one artifact
  // store, and explicit-graph jobs evaluate through private ArtifactCaches:
  // N requests over the same graph still eigensolve each kind once.
  const auto artifacts = std::make_shared<store::ArtifactStore>();
  serve::Scheduler scheduler(
      serve::SchedulerOptions{.threads = 4, .artifacts = artifacts});
  std::vector<serve::Job> jobs(4);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<std::int64_t>(i);
    jobs[i].request.graph = builders::fft(4);
    jobs[i].request.memories = {static_cast<double>(4 << i)};
    jobs[i].request.methods = {"spectral"};
  }
  int ok = 0;
  scheduler.run(std::move(jobs),
                [&ok](const serve::JobResult& result) { ok += result.ok; });
  EXPECT_EQ(ok, 4);
  const store::ArtifactStore::Stats stats = artifacts->stats();
  // Workers race, so up to hardware-parallelism requests may miss before
  // the first store lands; the store still converges to one entry and
  // every lookup is accounted for.
  EXPECT_EQ(stats[kSpectrum].entries, 1);
  EXPECT_EQ(stats[kSpectrum].hits + stats[kSpectrum].misses, 4);
  // A serial evaluation on the same store is a pure component hit.
  Engine engine(artifacts);
  BoundRequest again;
  again.spec = "fft:4";
  again.memories = {64.0};
  again.methods = {"spectral"};
  const BoundReport report = engine.evaluate(again);
  EXPECT_EQ(report.cache.eigensolves, 0);
  EXPECT_EQ(report.cache.component_hits, 1);
}

}  // namespace
}  // namespace graphio::engine
