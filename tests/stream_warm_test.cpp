// Warm-started eigensolve tests (ISSUE satellite 3): a session whose
// store retains eigenbases answers every query with certified lower
// estimates — exactly a from-scratch Engine's values wherever no solve
// consumed a basis, and never above the exact (dense) values where one
// did.
//
// Certified here:
//   * across random patch sequences, specs and every solver policy, rows
//     whose spectra no warm solve fed match a scratch Engine to 1e-8, and
//     rows fed by a refresh or a seeded LOBPCG solve stay at or below a
//     forced-dense scratch Engine's rows (the warm parity property),
//   * the refresh fast path reports warm hits for exactly the dirty
//     components and, where the retained basis spans the whole component
//     (h >= n), answers the exact values,
//   * a patch that disconnects a component falls back to a cold solve
//     without error (the split halves cannot both inherit the
//     predecessor basis),
//   * the warm tier engages only where it pays: a dense-sized component
//     queried for more than n/3 eigenvalues retains no basis and answers
//     exactly a fresh Engine's values, while n > 3h warm-starts,
//   * refcounted stream eviction drops the eigenbases of dead content
//     along with its spectra (ISSUE satellite: eviction respects the
//     stream's refcount discipline).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graphio/engine/engine.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/components.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/stream/session.hpp"
#include "graphio/telemetry/metrics.hpp"

namespace graphio::stream {
namespace {

std::shared_ptr<store::ArtifactStore> warm_store() {
  auto s = std::make_shared<store::ArtifactStore>();
  s->set_eigenbasis_budget(std::int64_t{16} << 20);
  return s;
}

engine::BoundRequest spectral_request(const std::string& solver) {
  engine::BoundRequest req;
  req.memories = {3.0, 7.5};
  req.methods = {"spectral", "spectral-plain"};
  req.spectral.solver = la::parse_solver_policy(solver);
  req.spectral.max_eigenvalues = 6;
  return req;
}

/// Applies a random mutation to the patch under construction, mirroring
/// state so every mutation is valid for the session's current graph
/// (same shape as the cold-session property test's mutator).
struct RandomMutator {
  std::mt19937_64 rng;
  std::vector<VertexId> alive;
  std::vector<std::pair<VertexId, VertexId>> edges;
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

/// The Laplacian kinds whose current merged spectrum (the cached record
/// of each kind) contains a component solved warm — in this evaluation,
/// or in an earlier one and served from the store since.
std::set<LaplacianKind> warm_fed_kinds(const engine::ArtifactCache& cache) {
  std::set<LaplacianKind> warm;
  for (const auto& [kind, spectrum] : cache.cached_spectra())
    if (std::ranges::any_of(spectrum.per_component,
                            [](const ComponentSolve& c) {
                              return c.warm_started;
                            }))
      warm.insert(kind);
  return warm;
}

/// Warm parity property: any random patch sequence against a
/// basis-retaining session, across specs and every solver policy. A row
/// whose spectrum no warm solve fed must match a
/// from-scratch Engine to 1e-8: cold solves are deterministic, and a
/// rejected refresh under forced Lanczos solves cold. A row fed by a
/// refresh or a seeded LOBPCG solve carries certified lower estimates
/// θ − ‖r‖ from a different start than the cold solve, so it must stay
/// at or below a forced-dense scratch Engine's exact row. Each session
/// solves once before its first patch, so every round has a basis.
/// fft:6 (448 vertices) and er:400:0.03:3 exceed LOBPCG's 320-vertex
/// dense fallback, so seeded iterations really run; er:400:0.03:3 also
/// has non-zero bounds at both memories, so the comparison checks real
/// values. The smaller specs stay below the fallback, where a rejected
/// refresh answers densely and no hit is counted.
TEST(StreamWarmTest, SeededSolversMatchScratchAcrossSpecs) {
  const std::vector<std::pair<std::string, int>> specs = {
      {"fft:4", 5}, {"er:40:0.1:3", 5}, {"multi:3:fft:3", 5},
      {"fft:6", 1}, {"er:400:0.03:3", 2}};
  const std::vector<std::string> solvers = {"auto", "dense", "lanczos",
                                            "lobpcg"};
  std::uint64_t seed = 17;
  std::int64_t warm_hits_total = 0;
  int warm_rows_nonzero = 0;
  int cold_rows_nonzero = 0;
  for (const auto& [spec, rounds] : specs) {
    for (const std::string& solver : solvers) {
      const std::string name = "warm-" + spec + "-" + solver;
      StreamSession session(name, warm_store());
      session.load(spec);
      const engine::BoundRequest req = spectral_request(solver);
      session.evaluate(req);
      RandomMutator mutator(session.graph(), seed++);
      for (int round = 0; round < rounds; ++round) {
        const Patch patch =
            mutator.next_patch(1 + static_cast<int>(mutator.rng() % 4));
        session.apply(patch);
        const engine::BoundReport incremental = session.evaluate(req);
        warm_hits_total += incremental.cache.warm_hits;
        const engine::ArtifactCache* cache = session.engine().cache(name);
        ASSERT_NE(cache, nullptr);
        const std::set<LaplacianKind> warm_kinds = warm_fed_kinds(*cache);

        engine::BoundRequest scratch_req = req;
        scratch_req.graph = session.graph();
        engine::Engine scratch;
        const engine::BoundReport reference = scratch.evaluate(scratch_req);
        scratch_req.spectral.solver = la::SolverKind::kDense;
        engine::Engine exact;
        const engine::BoundReport dense = exact.evaluate(scratch_req);

        ASSERT_EQ(incremental.rows.size(), reference.rows.size());
        ASSERT_EQ(incremental.rows.size(), dense.rows.size());
        for (std::size_t i = 0; i < incremental.rows.size(); ++i) {
          const engine::MethodRow& a = incremental.rows[i];
          const engine::MethodRow& b = reference.rows[i];
          ASSERT_EQ(a.method, b.method);
          ASSERT_EQ(a.memory, b.memory);
          EXPECT_EQ(a.applicable, b.applicable)
              << spec << " " << solver << " round " << round << " "
              << a.method;
          const LaplacianKind kind = a.method == "spectral-plain"
                                         ? LaplacianKind::kPlain
                                         : LaplacianKind::kOutDegreeNormalized;
          if (warm_kinds.contains(kind)) {
            EXPECT_LE(a.value, dense.rows[i].value + 1e-9)
                << spec << " " << solver << " round " << round << " "
                << a.method << " M=" << a.memory;
            if (dense.rows[i].value > 0.0) ++warm_rows_nonzero;
          } else {
            EXPECT_NEAR(a.value, b.value, 1e-8)
                << spec << " " << solver << " round " << round << " "
                << a.method << " M=" << a.memory;
            if (b.value > 0.0) ++cold_rows_nonzero;
          }
        }
      }
    }
  }
  // Both comparisons are vacuous unless the warm layer engaged and each
  // side compared a non-zero bound.
  EXPECT_GT(warm_hits_total, 0);
  EXPECT_GT(warm_rows_nonzero, 0);
  EXPECT_GT(cold_rows_nonzero, 0);
}

/// The warm tier engages only where it pays (la::choose_solver): on a
/// 200-vertex component a query for h = 100 eigenvalues solves cold and
/// values-only, retains no basis and answers bit for bit what a fresh
/// Engine answers; at h = 32 (n > 3h) the same session warm-starts every
/// component a small patch dirties. A large patch there trips the refresh
/// gate, and at n <= 320 LOBPCG's dense fallback then answers without
/// reading the seed: counted cold and reported under the dense tier.
TEST(StreamWarmTest, WarmTierEngagesOnlyWhereItPays) {
  const Digraph g = builders::erdos_renyi_dag(200, 0.045, 1);
  ASSERT_EQ(weakly_connected_components(g).count, 1);
  telemetry::Counter& iterations =
      telemetry::MetricsRegistry::global().counter("solver.iterations");
  for (const int h : {100, 32}) {
    StreamSession session("warm-crossover", warm_store());
    session.load(g);
    const auto& artifacts = *session.engine().artifact_store();
    engine::BoundRequest req;
    req.memories = {4.0, 16.0};
    req.methods = {"spectral"};
    req.spectral.max_eigenvalues = h;
    session.evaluate(req);

    std::mt19937_64 rng(23);
    constexpr int kRounds = 5;
    for (int round = 0; round < kRounds; ++round) {
      // One absent forward edge, so the patch dirties the one component.
      // A small patch adds it out of a vertex of out-degree >= 3, moving
      // that vertex's existing L̃ entries by at most 1/12; the last patch
      // adds it out of a vertex of out-degree 1, halving its only entry.
      const bool large = round == kRounds - 1;
      const Digraph current = session.graph();
      VertexId u = 0;
      VertexId v = 0;
      do {
        u = static_cast<VertexId>(rng() % 199);
        v = u + 1 +
            static_cast<VertexId>(rng() % static_cast<std::uint64_t>(199 - u));
      } while ((large ? current.out_degree(u) != 1
                      : current.out_degree(u) < 3) ||
               std::ranges::find(current.children(u), v) !=
                   current.children(u).end());
      Patch patch;
      patch.mutations.push_back(Mutation::add_edge(u, v));
      const PatchReport applied = session.apply(patch);
      ASSERT_EQ(applied.dirty_components, 1);

      const std::int64_t iterations_before = iterations.value();
      const engine::BoundReport incremental = session.evaluate(req);
      const std::int64_t solve_iterations =
          iterations.value() - iterations_before;
      const engine::ArtifactCache* cache =
          session.engine().cache("warm-crossover");
      ASSERT_NE(cache, nullptr);
      const ComponentSolve& solve =
          cache->cached_spectra()
              .at(LaplacianKind::kOutDegreeNormalized)
              .per_component.front();
      engine::BoundRequest scratch_req = req;
      scratch_req.graph = session.graph();
      engine::Engine scratch;
      const engine::BoundReport reference = scratch.evaluate(scratch_req);
      ASSERT_EQ(incremental.rows.size(), reference.rows.size());
      EXPECT_EQ(incremental.cache.eigensolves, 1) << "round " << round;

      if (h == 100) {
        EXPECT_EQ(incremental.cache.warm_hits, 0) << "round " << round;
        EXPECT_EQ(solve_iterations, 0) << "round " << round;  // no refresh
        EXPECT_EQ(solve.solver_reason, "n=200 <= dense_n=2048");
        EXPECT_EQ(artifacts.stats()[store::ArtifactKind::kEigenbasis].entries,
                  0)
            << "round " << round;
        for (std::size_t i = 0; i < incremental.rows.size(); ++i)
          EXPECT_EQ(incremental.rows[i].value, reference.rows[i].value)
              << "round " << round << " M=" << incremental.rows[i].memory;
        continue;
      }
      EXPECT_EQ(artifacts.stats()[store::ArtifactKind::kEigenbasis].entries, 1)
          << "round " << round;
      if (large) {
        EXPECT_EQ(incremental.cache.warm_hits, 0);
        EXPECT_EQ(solve_iterations, 0);
        EXPECT_FALSE(solve.warm_started);
        EXPECT_EQ(solve.solver, la::SolverKind::kDense);
        EXPECT_EQ(solve.solver_reason, "lobpcg dense fallback at n=200");
      } else {
        EXPECT_EQ(incremental.cache.warm_hits, applied.dirty_components)
            << "round " << round;
        EXPECT_TRUE(solve.refresh) << "round " << round;
      }
      // Warm answers are certified lower estimates: never above the fresh
      // Engine's exact dense values.
      for (std::size_t i = 0; i < incremental.rows.size(); ++i)
        EXPECT_LE(incremental.rows[i].value,
                  reference.rows[i].value * (1.0 + 1e-12))
            << "round " << round << " M=" << incremental.rows[i].memory;
    }
  }
}

/// The refresh fast path answers exactly the dirty components warm; with
/// a basis that spans the whole component (h >= n_c) the refresh is
/// exact, so the multi-component bound it feeds agrees with a scratch
/// Engine.
TEST(StreamWarmTest, RefreshReportsWarmHitsForDirtyComponentsOnly) {
  StreamSession session("warm-refresh", warm_store());
  session.load("multi:4:fft:3");
  engine::BoundRequest req;
  req.memories = {3.0, 7.5};
  req.methods = {"spectral"};
  req.spectral.solver = la::SolverKind::kLobpcg;  // force the iterative (refreshable) tier
  // h = 32 = n_c for every fft:3 copy: the retained basis spans the whole
  // component, so the refresh of a patched copy is exact (residuals at
  // rounding level) and the fixed 1e-2 gate accepts it every round. A
  // thinner basis would not pass: an added edge re-weights a whole row
  // of the copy's L̃.
  req.spectral.max_eigenvalues = 32;
  telemetry::Counter& iterations =
      telemetry::MetricsRegistry::global().counter("solver.iterations");

  const engine::BoundReport cold = session.evaluate(req);
  EXPECT_EQ(cold.cache.warm_hits, 0);  // nothing retained yet

  for (int round = 0; round < 3; ++round) {
    Patch patch;
    // fft edges are layer-adjacent (stride 8); a stride-17 edge is
    // guaranteed new, stays inside copy 0, and keeps the DAG acyclic.
    patch.mutations.push_back(Mutation::add_edge(round, round + 17));
    const PatchReport applied = session.apply(patch);
    ASSERT_EQ(applied.dirty_components, 1);
    const std::int64_t iterations_before = iterations.value();
    const engine::BoundReport warm = session.evaluate(req);
    EXPECT_EQ(warm.cache.warm_hits, 1) << "round " << round;
    // A refresh is the one-iteration warm solve.
    EXPECT_EQ(iterations.value() - iterations_before, 1) << "round " << round;
    EXPECT_EQ(warm.cache.eigensolves, 1) << "round " << round;
    EXPECT_GE(warm.cache.warm_iterations_saved, 0) << "round " << round;

    engine::BoundRequest scratch_req = req;
    scratch_req.graph = session.graph();
    engine::Engine scratch;
    const engine::BoundReport reference = scratch.evaluate(scratch_req);
    ASSERT_EQ(warm.rows.size(), reference.rows.size());
    for (std::size_t i = 0; i < warm.rows.size(); ++i)
      EXPECT_NEAR(warm.rows[i].value, reference.rows[i].value, 1e-9)
          << "round " << round << " M=" << warm.rows[i].memory;
  }
}

/// Disconnecting patch: removing a bridge splits one warm component into
/// two whose fingerprints are both new — at most one half can inherit
/// the predecessor basis (by adoption), the other must solve cold. The
/// query must survive the split and stay exact: h covers the whole
/// bridged component, so an inherited basis spans its half and the
/// refresh it takes is exact.
TEST(StreamWarmTest, DisconnectingPatchFallsBackColdCleanly) {
  const std::vector<Digraph> parts = {builders::fft(3),
                                      builders::inner_product(4)};
  Digraph bridged = disjoint_union(parts);
  const VertexId bridge_to = builders::fft(3).num_vertices();  // part 2's v0
  bridged.add_edge(0, bridge_to);

  StreamSession session("warm-split", warm_store());
  session.load(bridged);
  engine::BoundRequest req = spectral_request("lobpcg");
  req.spectral.max_eigenvalues = bridged.num_vertices();
  session.evaluate(req);  // retains the bridged component's basis

  Patch cut;
  cut.mutations.push_back(Mutation::remove_edge(0, bridge_to));
  const PatchReport applied = session.apply(cut);
  EXPECT_EQ(applied.components, 2);

  const engine::BoundReport warm = session.evaluate(req);
  // The half that keeps the component adopts its bases and refreshes,
  // once per Laplacian kind (spectral and spectral-plain); the other
  // half's cold solves must simply run, not fail.
  EXPECT_EQ(applied.dirty_components, 2);
  EXPECT_EQ(warm.cache.warm_hits, 2);

  engine::BoundRequest scratch_req = req;
  scratch_req.graph = session.graph();
  engine::Engine scratch;
  const engine::BoundReport reference = scratch.evaluate(scratch_req);
  ASSERT_EQ(warm.rows.size(), reference.rows.size());
  for (std::size_t i = 0; i < warm.rows.size(); ++i) {
    EXPECT_EQ(warm.rows[i].applicable, reference.rows[i].applicable);
    EXPECT_NEAR(warm.rows[i].value, reference.rows[i].value, 1e-8)
        << warm.rows[i].method << " M=" << warm.rows[i].memory;
  }
}

/// Refcounted stream eviction drops dead content's eigenbases along with
/// its spectra: when the last component carrying a content disappears,
/// its retained basis goes too (the adopt-before-release ordering means
/// a *surviving* component's basis instead follows it to the new
/// fingerprint).
TEST(StreamWarmTest, EvictionDropsBasesOfDeadContent) {
  const std::vector<Digraph> parts = {builders::fft(3),
                                      builders::inner_product(4)};
  StreamSession session("warm-evict", warm_store());
  session.load(disjoint_union(parts));
  const auto& cache = *session.engine().artifact_store();

  engine::BoundRequest req;
  req.memories = {8.0};
  req.methods = {"spectral"};
  req.spectral.solver = la::SolverKind::kLobpcg;
  req.spectral.max_eigenvalues = 4;
  session.evaluate(req);
  // Two distinct contents, one Laplacian kind: two retained bases.
  EXPECT_EQ(cache.stats()[store::ArtifactKind::kEigenbasis].entries, 2);
  EXPECT_GT(cache.eigenbasis_bytes(), 0);

  // Delete every vertex of the second part: its content dies, and the
  // refcount release must take the basis with the spectra.
  const VertexId split = builders::fft(3).num_vertices();
  Patch wipe;
  for (VertexId v = split; v < session.graph().num_vertices(); ++v)
    wipe.mutations.push_back(Mutation::remove_vertex(v));
  const PatchReport applied = session.apply(wipe);
  EXPECT_GT(applied.evicted, 0);
  EXPECT_EQ(cache.stats()[store::ArtifactKind::kEigenbasis].entries, 1);
  EXPECT_GT(cache.stats()[store::ArtifactKind::kEigenbasis].evicted, 0);

  // The surviving component still answers warm after further patches.
  Patch touch;
  touch.mutations.push_back(Mutation::add_edge(0, 9));
  session.apply(touch);
  const engine::BoundReport warm = session.evaluate(req);
  EXPECT_EQ(warm.cache.warm_hits, 1);
}

}  // namespace
}  // namespace graphio::stream
