#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graphio/engine/engine.hpp"
#include "graphio/engine/fingerprint.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/components.hpp"
#include "graphio/stream/session.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::stream {
namespace {

engine::BoundRequest spectral_request(const std::string& solver) {
  engine::BoundRequest req;
  req.memories = {3.0, 7.5};
  req.methods = {"spectral", "spectral-plain"};
  req.spectral.solver = la::parse_solver_policy(solver);
  // Small h keeps the forced sparse tiers well-posed on the tiny
  // property-test components.
  req.spectral.max_eigenvalues = 6;
  return req;
}

/// Applies a random mutation to the patch under construction, mirroring
/// state so every mutation is valid for the session's current graph.
struct RandomMutator {
  std::mt19937_64 rng;
  std::vector<VertexId> alive;
  std::vector<std::pair<VertexId, VertexId>> edges;
  /// Mirrors DynamicGraph id allocation: append-ordered, dead ids never
  /// reused — so the id every add_vertex will yield is predictable.
  VertexId next_id = 0;

  explicit RandomMutator(const Digraph& g, std::uint64_t seed) : rng(seed) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) alive.push_back(v);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      for (VertexId w : g.children(v)) edges.emplace_back(v, w);
    next_id = g.num_vertices();
  }

  Patch next_patch(int mutations) {
    Patch patch;
    for (int m = 0; m < mutations; ++m) {
      switch (rng() % 4) {
        case 0: {
          patch.mutations.push_back(Mutation::add_vertex());
          alive.push_back(next_id++);
          break;
        }
        case 1: {
          if (alive.size() < 2) break;
          const VertexId u = alive[rng() % alive.size()];
          const VertexId v = alive[rng() % alive.size()];
          if (u == v) break;
          patch.mutations.push_back(Mutation::add_edge(u, v));
          edges.emplace_back(u, v);
          break;
        }
        case 2: {
          if (edges.empty()) break;
          const std::size_t i = rng() % edges.size();
          patch.mutations.push_back(
              Mutation::remove_edge(edges[i].first, edges[i].second));
          edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
        default: {
          if (alive.size() <= 3) break;
          const std::size_t i = rng() % alive.size();
          const VertexId v = alive[i];
          patch.mutations.push_back(Mutation::remove_vertex(v));
          alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(i));
          std::erase_if(edges, [v](const auto& e) {
            return e.first == v || e.second == v;
          });
          break;
        }
      }
    }
    return patch;
  }
};

/// Satellite property (ISSUE 4): any sequence of patches yields bounds
/// identical (1e-8) to a from-scratch Engine on the final graph, across
/// fft/matmul/multi-component specs and every solver policy.
TEST(StreamSessionTest, RandomPatchesMatchScratchAcrossSolvers) {
  const std::vector<std::string> specs = {"fft:4", "matmul:2",
                                          "multi:3:fft:3"};
  const std::vector<std::string> solvers = {"auto", "dense", "lanczos",
                                            "lobpcg"};
  std::uint64_t seed = 1;
  for (const std::string& spec : specs) {
    for (const std::string& solver : solvers) {
      StreamSession session("prop-" + spec + "-" + solver);
      session.load(spec);
      RandomMutator mutator(session.graph(), seed++);
      for (int round = 0; round < 5; ++round) {
        const Patch patch =
            mutator.next_patch(1 + static_cast<int>(mutator.rng() % 4));
        session.apply(patch);
        const engine::BoundReport incremental =
            session.evaluate(spectral_request(solver));

        engine::BoundRequest scratch_req = spectral_request(solver);
        scratch_req.graph = session.graph();
        engine::Engine scratch;
        const engine::BoundReport reference = scratch.evaluate(scratch_req);

        ASSERT_EQ(incremental.rows.size(), reference.rows.size());
        for (std::size_t i = 0; i < incremental.rows.size(); ++i) {
          const engine::MethodRow& a = incremental.rows[i];
          const engine::MethodRow& b = reference.rows[i];
          ASSERT_EQ(a.method, b.method);
          ASSERT_EQ(a.memory, b.memory);
          EXPECT_EQ(a.applicable, b.applicable)
              << spec << " " << solver << " round " << round << " "
              << a.method;
          EXPECT_NEAR(a.value, b.value, 1e-8)
              << spec << " " << solver << " round " << round << " "
              << a.method << " M=" << a.memory;
        }
      }
    }
  }
}

TEST(StreamSessionTest, SingleEdgePatchSolvesOnlyTheDirtyComponent) {
  StreamSession session("g");
  session.load("multi:4:fft:3");
  const engine::BoundRequest req = spectral_request("dense");
  session.evaluate(req);  // warm every component

  Patch patch;
  patch.mutations.push_back(Mutation::add_edge(0, 9));
  const PatchReport applied = session.apply(patch);
  EXPECT_EQ(applied.components, 4);
  EXPECT_EQ(applied.dirty_components, 1);
  EXPECT_EQ(applied.clean_components, 3);

  const engine::BoundReport report = session.evaluate(req);
  // Two Laplacian kinds (spectral + spectral-plain) over one dirty
  // component: two eigensolves; the three clean components hit the
  // component cache for both kinds.
  EXPECT_EQ(report.cache.eigensolves, 2);
  EXPECT_EQ(report.cache.component_hits, 6);
}

TEST(StreamSessionTest, ExtractionsEqualDirtyAfterEveryPatch) {
  // The zero-copy invariant (ISSUE 5): at query time only the dirty
  // components materialize, and nothing is ever re-fingerprinted — the
  // session's incrementally-maintained hashes seed the artifact cache.
  StreamSession session("g");
  session.load("multi:6:fft:3");
  engine::BoundRequest req;
  req.memories = {8.0};
  req.methods = {"spectral"};  // one Laplacian kind: clean accounting
  req.spectral.solver = la::SolverKind::kDense;
  req.spectral.max_eigenvalues = 8;

  const engine::BoundReport warm = session.evaluate(req);
  EXPECT_EQ(warm.cache.fingerprint_computes, 0);  // seeded by load
  // 6 equal copies: one content, one extraction, five resolver hits.
  EXPECT_EQ(warm.cache.subgraph_extractions, 1);

  // Patch distinct components one at a time; every query must extract
  // exactly the dirty (non-trivial) components and hash nothing.
  for (int round = 0; round < 4; ++round) {
    Patch patch;
    for (int c = 0; c <= round; ++c) {
      const VertexId off = static_cast<VertexId>(c) * 32;  // |fft:3| = 32
      patch.mutations.push_back(
          Mutation::add_edge(off + 2 * round, off + 2 * round + 1));
    }
    const PatchReport applied = session.apply(patch);
    EXPECT_EQ(applied.dirty_components, round + 1);
    const engine::BoundReport report = session.evaluate(req);
    EXPECT_EQ(report.cache.subgraph_extractions, applied.dirty_components)
        << "round " << round;
    EXPECT_EQ(report.cache.fingerprint_computes, 0) << "round " << round;
    EXPECT_EQ(report.cache.eigensolves, applied.dirty_components)
        << "round " << round;
  }
}

TEST(StreamSessionTest, FailedPatchJournalMatchesUntouchedTwin) {
  // Randomized failure injection: a valid prefix followed by an invalid
  // mutation must leave the session bit-identical to a twin that never
  // saw the patch — graph, names, component structure, fingerprint, and
  // all later behavior.
  const std::vector<std::string> specs = {"multi:3:fft:3", "er:40:0.1:3"};
  std::uint64_t seed = 11;
  for (const std::string& spec : specs) {
    for (int trial = 0; trial < 6; ++trial) {
      StreamSession session("victim");
      StreamSession twin("twin");
      session.load(spec);
      twin.load(spec);

      RandomMutator mutator(session.graph(), seed++);
      Patch bad = mutator.next_patch(1 + static_cast<int>(seed % 5));
      bad.mutations.push_back(Mutation::remove_vertex(1 << 20));
      EXPECT_THROW(session.apply(bad), contract_error);

      EXPECT_EQ(session.fingerprint(), twin.fingerprint())
          << spec << " trial " << trial;
      const Digraph a = session.graph();
      const Digraph b = twin.graph();
      EXPECT_EQ(engine::graph_fingerprint(a), engine::graph_fingerprint(b));
      ASSERT_EQ(a.num_vertices(), b.num_vertices());
      for (VertexId v = 0; v < a.num_vertices(); ++v)
        EXPECT_EQ(a.name(v), b.name(v));

      // Both sessions now take the same valid patch and answer queries
      // identically — the failed patch left no latent damage behind.
      RandomMutator replay(twin.graph(), 999 + seed);
      const Patch good = replay.next_patch(3);
      const PatchReport pa = session.apply(good);
      const PatchReport pb = twin.apply(good);
      EXPECT_EQ(pa.fingerprint, pb.fingerprint);
      EXPECT_EQ(pa.dirty_components, pb.dirty_components);
      const engine::BoundReport ra =
          session.evaluate(spectral_request("dense"));
      const engine::BoundReport rb = twin.evaluate(spectral_request("dense"));
      ASSERT_EQ(ra.rows.size(), rb.rows.size());
      for (std::size_t i = 0; i < ra.rows.size(); ++i)
        EXPECT_EQ(ra.rows[i].value, rb.rows[i].value);
    }
  }

  // One hand-built burst that exercises every kind of label change a
  // patch can make — a new vertex, a merge, a shrink, and a queued
  // rebuild — before the invalid mutation.
  const std::vector<Digraph> parts = {builders::path(4), builders::path(3),
                                      builders::path(5)};
  const Digraph paths = disjoint_union(parts);
  StreamSession session("victim");
  StreamSession twin("twin");
  session.load(paths);
  twin.load(paths);
  Patch bad;
  bad.mutations.push_back(Mutation::add_vertex());      // fresh singleton
  bad.mutations.push_back(Mutation::add_edge(0, 4));    // merge 0..3, 4..6
  bad.mutations.push_back(Mutation::remove_vertex(11)); // shrink 7..11
  bad.mutations.push_back(Mutation::remove_edge(0, 1)); // queue a rebuild
  bad.mutations.push_back(Mutation::add_edge(3, 99));   // invalid
  EXPECT_THROW(session.apply(bad), contract_error);
  EXPECT_EQ(session.fingerprint(), twin.fingerprint());
  EXPECT_EQ(engine::graph_fingerprint(session.graph()),
            engine::graph_fingerprint(twin.graph()));

  // A patch inside path(3) only: a leftover merge, shrink or vertex from
  // the failed patch would show in the component count or the split.
  Patch good;
  good.mutations.push_back(Mutation::add_edge(4, 6));
  const PatchReport pa = session.apply(good);
  const PatchReport pb = twin.apply(good);
  EXPECT_EQ(pa.components, 3);
  EXPECT_EQ(pa.components, pb.components);
  EXPECT_EQ(pa.fingerprint, pb.fingerprint);
  EXPECT_EQ(pa.dirty_components, pb.dirty_components);
  EXPECT_EQ(pa.clean_components, pb.clean_components);
}

TEST(StreamSessionTest, QueriesBetweenPatchesShareArtifacts) {
  StreamSession session("g");
  session.load("fft:4");
  const engine::BoundRequest req = spectral_request("dense");
  const engine::BoundReport first = session.evaluate(req);
  EXPECT_GT(first.cache.eigensolves, 0);
  // Same graph, second query: the installed ArtifactCache still holds the
  // spectra — no new eigensolve, not even component-cache traffic.
  const engine::BoundReport second = session.evaluate(req);
  EXPECT_EQ(second.cache.eigensolves, 0);
  EXPECT_EQ(second.cache.misses, 0);
}

TEST(StreamSessionTest, EvictsComponentCacheEntriesWhenContentDisappears) {
  StreamSession session("g");
  session.load("multi:3:fft:3");
  session.evaluate(spectral_request("dense"));
  const auto& cache = *session.engine().artifact_store();
  const std::int64_t entries_before = cache.stats().total().entries;
  ASSERT_GT(entries_before, 0);

  // Patch one copy: its content becomes unique, but the fft:3 content
  // still exists (two clean copies) — nothing evicts.
  Patch patch;
  patch.mutations.push_back(Mutation::add_edge(0, 9));
  const PatchReport first = session.apply(patch);
  EXPECT_EQ(first.evicted, 0);

  session.evaluate(spectral_request("dense"));  // caches the patched comp
  const std::int64_t entries_mid = cache.stats().total().entries;
  EXPECT_GT(entries_mid, entries_before);

  // Revert: the patched content disappears — its entries must go.
  Patch revert;
  revert.mutations.push_back(Mutation::remove_edge(0, 9));
  const PatchReport second = session.apply(revert);
  EXPECT_GT(second.evicted, 0);
  EXPECT_LT(cache.stats().total().entries, entries_mid);
  EXPECT_GT(cache.stats().total().evicted, 0);
}

TEST(StreamSessionTest, FingerprintIsOrderIndependentAndRevertsExactly) {
  // Equal component multisets in different id order hash equal.
  const Digraph a = builders::fft(3);
  const Digraph b = builders::inner_product(4);
  const std::vector<Digraph> ab = {a, b};
  const std::vector<Digraph> ba = {b, a};
  StreamSession s1("g1");
  StreamSession s2("g2");
  s1.load(disjoint_union(ab));
  s2.load(disjoint_union(ba));
  EXPECT_EQ(s1.fingerprint(), s2.fingerprint());

  // Patch + exact inverse restores the fingerprint bit-for-bit.
  const std::uint64_t before = s1.fingerprint();
  Patch patch;
  patch.mutations.push_back(Mutation::add_edge(0, 5));
  s1.apply(patch);
  EXPECT_NE(s1.fingerprint(), before);
  Patch revert;
  revert.mutations.push_back(Mutation::remove_edge(0, 5));
  s1.apply(revert);
  EXPECT_EQ(s1.fingerprint(), before);
}

TEST(StreamSessionTest, FailedPatchRollsBackAtomically) {
  StreamSession session("g");
  session.load("fft:3");
  const std::uint64_t before = session.fingerprint();
  const std::int64_t edges_before = session.graph().num_edges();

  Patch bad;
  bad.mutations.push_back(Mutation::add_edge(0, 1));      // fine
  bad.mutations.push_back(Mutation::remove_vertex(999));  // invalid
  try {
    session.apply(bad);
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("mutation 2/2"), std::string::npos);
    // The graph rejects the mutation before the component labels hear
    // of the patch.
    EXPECT_NE(std::string(e.what()).find("vertex 999 does not exist"),
              std::string::npos)
        << e.what();
  }
  // Nothing from the failed patch sticks — not even its first mutation.
  EXPECT_EQ(session.fingerprint(), before);
  EXPECT_EQ(session.graph().num_edges(), edges_before);

  // And the session still works.
  Patch good;
  good.mutations.push_back(Mutation::add_edge(0, 1));
  session.apply(good);
  EXPECT_EQ(session.graph().num_edges(), edges_before + 1);
}

TEST(StreamSessionTest, RejectsSpecCollidingNamesAndUnloadedUse) {
  EXPECT_THROW(StreamSession("fft:8"), contract_error);
  EXPECT_THROW(StreamSession(""), contract_error);
  StreamSession session("g");
  Patch patch;
  patch.mutations.push_back(Mutation::add_vertex());
  EXPECT_THROW(session.apply(patch), contract_error);
  EXPECT_THROW(session.evaluate(spectral_request("auto")), contract_error);
  EXPECT_THROW(session.graph(), contract_error);
}

TEST(StreamSessionTest, ConcurrentQueriesAndPatchesAreSerialized) {
  StreamSession session("g");
  session.load("multi:3:fft:3");
  const engine::BoundRequest req = spectral_request("dense");
  std::thread mutator([&] {
    for (int i = 0; i < 6; ++i) {
      Patch patch;
      patch.mutations.push_back(Mutation::add_edge(0, 9));
      session.apply(patch);
      Patch revert;
      revert.mutations.push_back(Mutation::remove_edge(0, 9));
      session.apply(revert);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t)
    readers.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        const engine::BoundReport report = session.evaluate(req);
        for (const engine::MethodRow& row : report.rows)
          ASSERT_TRUE(std::isfinite(row.value));
        (void)session.fingerprint();
        (void)session.stats();
      }
    });
  mutator.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(session.stats().patches, 1 + 12);  // load + 12 patches
}

}  // namespace
}  // namespace graphio::stream
