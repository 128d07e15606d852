#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "graphio/engine/fingerprint.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/components.hpp"
#include "graphio/graph/transforms.hpp"
#include "graphio/stream/dynamic_components.hpp"
#include "graphio/stream/dynamic_graph.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::stream {
namespace {

TEST(StreamDynamicGraphTest, SeedsFromDigraphAndMaterializesBack) {
  const Digraph g = builders::fft(3);
  DynamicGraph d(g);
  EXPECT_EQ(d.num_vertices(), g.num_vertices());
  EXPECT_EQ(d.num_edges(), g.num_edges());
  EXPECT_TRUE(same_structure(d.materialize(), g));
  EXPECT_EQ(engine::graph_fingerprint(d.materialize()),
            engine::graph_fingerprint(g));
}

TEST(StreamDynamicGraphTest, IdsAreStableAcrossRemovals) {
  DynamicGraph d;
  const VertexId a = d.add_vertex();
  const VertexId b = d.add_vertex();
  const VertexId c = d.add_vertex();
  d.add_edge(a, c);
  d.remove_vertex(b);
  EXPECT_FALSE(d.alive(b));
  EXPECT_TRUE(d.alive(c));
  // Dead ids are never reused: the next vertex gets a fresh id.
  const VertexId e = d.add_vertex();
  EXPECT_EQ(e, 3);
  d.add_edge(c, e);
  EXPECT_EQ(d.num_vertices(), 3);
  EXPECT_EQ(d.num_edges(), 2);
  // Materialization compacts ascending: a->0, c->1, e->2.
  const Digraph m = d.materialize();
  ASSERT_EQ(m.num_vertices(), 3);
  ASSERT_EQ(m.children(0).size(), 1u);
  EXPECT_EQ(m.children(0)[0], 1);
  ASSERT_EQ(m.children(1).size(), 1u);
  EXPECT_EQ(m.children(1)[0], 2);
}

TEST(StreamDynamicGraphTest, ParallelEdgesRemoveOneMultiplicityAtATime) {
  DynamicGraph d;
  d.add_vertex();
  d.add_vertex();
  d.add_edge(0, 1);
  d.add_edge(0, 1);
  EXPECT_EQ(d.num_edges(), 2);
  d.remove_edge(0, 1);
  EXPECT_EQ(d.num_edges(), 1);
  d.remove_edge(0, 1);
  EXPECT_EQ(d.num_edges(), 0);
  EXPECT_THROW(d.remove_edge(0, 1), contract_error);
}

TEST(StreamDynamicGraphTest, RemoveVertexDropsAllIncidentMultiplicities) {
  DynamicGraph d;
  for (int i = 0; i < 3; ++i) d.add_vertex();
  d.add_edge(0, 1);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  d.add_edge(2, 1);
  d.remove_vertex(1);
  EXPECT_EQ(d.num_edges(), 0);
  EXPECT_EQ(d.children(0).size(), 0u);
  EXPECT_EQ(d.parents(2).size(), 0u);
}

TEST(StreamDynamicGraphTest, RejectsInvalidMutations) {
  DynamicGraph d;
  d.add_vertex();
  d.add_vertex();
  EXPECT_THROW(d.add_edge(0, 0), contract_error);
  EXPECT_THROW(d.add_edge(0, 9), contract_error);
  EXPECT_THROW(d.remove_vertex(9), contract_error);
  d.remove_vertex(1);
  EXPECT_THROW(d.add_edge(0, 1), contract_error);
  EXPECT_THROW(d.remove_vertex(1), contract_error);
}

TEST(StreamDynamicComponentsTest, UnionMergesAndNumbersDeterministically) {
  DynamicGraph d;
  for (int i = 0; i < 4; ++i) d.add_vertex();
  DynamicComponents comps(d);
  EXPECT_EQ(comps.count(), 4);
  comps.begin_patch();
  d.add_edge(0, 1);
  comps.on_add_edge(0, 1);
  d.add_edge(2, 3);
  comps.on_add_edge(2, 3);
  comps.flush(d);
  EXPECT_EQ(comps.count(), 2);
  EXPECT_EQ(comps.component_of(0), comps.component_of(1));
  EXPECT_EQ(comps.component_of(2), comps.component_of(3));
  EXPECT_NE(comps.component_of(0), comps.component_of(2));
  EXPECT_EQ(comps.dirty().size(), 2u);
  EXPECT_TRUE(comps.matches(d));
}

TEST(StreamDynamicComponentsTest, DeletionSplitsViaPartialRebuild) {
  // Path 0-1-2-3; cutting the middle edge splits one component in two.
  DynamicGraph d;
  for (int i = 0; i < 4; ++i) d.add_vertex();
  for (int i = 0; i < 3; ++i) d.add_edge(i, i + 1);
  DynamicComponents comps(d);
  EXPECT_EQ(comps.count(), 1);
  comps.begin_patch();
  d.remove_edge(1, 2);
  comps.on_remove_edge(1, 2);
  comps.flush(d);
  EXPECT_EQ(comps.count(), 2);
  EXPECT_EQ(comps.component_of(0), comps.component_of(1));
  EXPECT_EQ(comps.component_of(2), comps.component_of(3));
  EXPECT_NE(comps.component_of(0), comps.component_of(2));
  // Both pieces are dirty (their content changed).
  EXPECT_EQ(comps.dirty().size(), 2u);
  EXPECT_TRUE(comps.matches(d));
}

TEST(StreamDynamicComponentsTest, CleanComponentsStayOutOfDirty) {
  const Digraph g = disjoint_copies(builders::fft(2), 3);
  DynamicGraph d(g);
  DynamicComponents comps(d);
  ASSERT_EQ(comps.count(), 3);
  const std::int64_t per = builders::fft(2).num_vertices();
  comps.begin_patch();
  d.add_edge(0, 1);  // inside component 0 (may be a parallel edge)
  comps.on_add_edge(0, 1);
  comps.flush(d);
  const std::vector<int> dirty = comps.dirty();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], comps.component_of(0));
  // The clean components' membership is untouched.
  EXPECT_EQ(comps.vertices_of(comps.component_of(per)).size(),
            static_cast<std::size_t>(per));
}

TEST(StreamDynamicComponentsTest, SubgraphMatchesWeakComponentsExtraction) {
  // The stream-side extraction must fingerprint identically to the
  // pipeline's WeakComponents::subgraph of the materialized graph —
  // that equality is what lets cached component spectra survive patches.
  const Digraph g = disjoint_copies(builders::inner_product(3), 2);
  DynamicGraph d(g);
  DynamicComponents comps(d);
  comps.begin_patch();
  comps.on_add_vertex(d.add_vertex());
  d.add_edge(2, g.num_vertices());
  comps.on_add_edge(2, g.num_vertices());
  ASSERT_FALSE(d.children(0).empty());
  const VertexId cut = d.children(0)[0];
  d.remove_edge(0, cut);
  comps.on_remove_edge(0, cut);
  comps.flush(d);

  const Digraph m = d.materialize();
  const WeakComponents reference = weakly_connected_components(m);
  ASSERT_EQ(comps.count(), reference.count);
  std::vector<std::uint64_t> stream_fps;
  for (int c : comps.component_ids())
    stream_fps.push_back(engine::graph_fingerprint(comps.subgraph(d, c)));
  std::vector<std::uint64_t> reference_fps;
  for (int c = 0; c < reference.count; ++c)
    reference_fps.push_back(
        engine::graph_fingerprint(reference.subgraph(m, c)));
  std::sort(stream_fps.begin(), stream_fps.end());
  std::sort(reference_fps.begin(), reference_fps.end());
  EXPECT_EQ(stream_fps, reference_fps);
}

/// Random mutation churn: after every patch the incremental labels must
/// equal a from-scratch decomposition, and the component count must match
/// the materialized graph's.
TEST(StreamDynamicComponentsTest, RandomChurnMatchesScratchDecomposition) {
  std::mt19937_64 rng(20260731);
  for (int trial = 0; trial < 8; ++trial) {
    DynamicGraph d(builders::erdos_renyi_dag(24, 0.06, trial + 1));
    DynamicComponents comps(d);
    std::vector<VertexId> alive;
    for (VertexId v = 0; v < d.id_limit(); ++v) alive.push_back(v);
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId v : alive)
      for (VertexId w : d.children(v)) edges.emplace_back(v, w);

    for (int patch = 0; patch < 12; ++patch) {
      comps.begin_patch();
      const int mutations = 1 + static_cast<int>(rng() % 4);
      for (int m = 0; m < mutations; ++m) {
        switch (rng() % 4) {
          case 0: {
            const VertexId v = d.add_vertex();
            comps.on_add_vertex(v);
            alive.push_back(v);
            break;
          }
          case 1: {
            if (alive.size() < 2) break;
            const VertexId u = alive[rng() % alive.size()];
            const VertexId v = alive[rng() % alive.size()];
            if (u == v) break;
            d.add_edge(u, v);
            comps.on_add_edge(u, v);
            edges.emplace_back(u, v);
            break;
          }
          case 2: {
            if (edges.empty()) break;
            const std::size_t i = rng() % edges.size();
            const auto [u, v] = edges[i];
            d.remove_edge(u, v);
            comps.on_remove_edge(u, v);
            edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
          default: {
            if (alive.size() <= 2) break;
            const std::size_t i = rng() % alive.size();
            const VertexId v = alive[i];
            comps.on_remove_vertex(v);
            d.remove_vertex(v);
            alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(i));
            std::erase_if(edges, [v](const auto& e) {
              return e.first == v || e.second == v;
            });
            break;
          }
        }
      }
      comps.flush(d);
      ASSERT_TRUE(comps.matches(d))
          << "trial " << trial << " patch " << patch;
      ASSERT_EQ(comps.count(), num_weak_components(d.materialize()));
    }
  }
}

// ---------------------------------------------------- rollback journals

/// Bit-exact equality of two DynamicGraphs over their full external-id
/// range: adjacency lists (order and multiplicity included), liveness,
/// names, counters — everything a fingerprint or a later patch can see.
void expect_graphs_identical(const DynamicGraph& a, const DynamicGraph& b) {
  ASSERT_EQ(a.id_limit(), b.id_limit());
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < a.id_limit(); ++v) {
    ASSERT_EQ(a.alive(v), b.alive(v)) << "vertex " << v;
    if (!a.alive(v)) continue;
    const auto ac = a.children(v);
    const auto bc = b.children(v);
    ASSERT_TRUE(std::equal(ac.begin(), ac.end(), bc.begin(), bc.end()))
        << "children of " << v;
    const auto ap = a.parents(v);
    const auto bp = b.parents(v);
    ASSERT_TRUE(std::equal(ap.begin(), ap.end(), bp.begin(), bp.end()))
        << "parents of " << v;
    EXPECT_EQ(a.name(v), b.name(v)) << "name of " << v;
  }
  EXPECT_EQ(engine::graph_fingerprint(a.materialize()),
            engine::graph_fingerprint(b.materialize()));
}

TEST(StreamJournalTest, GraphRollbackRestoresEveryListExactly) {
  // Parallel edges, names, interleaved adds/removes: rollback must put
  // every adjacency entry back at its original index, not just restore
  // set-equality — content fingerprints hash list order.
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 1);  // parallel
  g.add_edge(3, 1);
  g.add_edge(2, 4);
  g.set_name(2, "mid");
  DynamicGraph d(g);
  const DynamicGraph reference = d;  // one-off snapshot, test-only

  d.begin_journal();
  d.remove_edge(0, 1);                     // drops the *last* multiplicity
  const VertexId fresh = d.add_vertex();
  d.add_edge(fresh, 0);
  d.add_edge(1, fresh);
  d.remove_vertex(2);                      // mid vertex with name + edges
  d.remove_vertex(3);
  d.add_edge(0, 4);
  d.rollback_journal();

  expect_graphs_identical(d, reference);
}

TEST(StreamJournalTest, GraphCommitKeepsMutationsAndReleasesJournal) {
  DynamicGraph d(builders::path(4));
  d.begin_journal();
  d.add_edge(0, 3);
  d.commit_journal();
  EXPECT_EQ(d.num_edges(), 4);
  EXPECT_THROW(d.rollback_journal(), contract_error);
}

TEST(StreamJournalTest, RandomRollbacksAlwaysRestoreScratchEquality) {
  // Randomized failure injection at the structure level: apply a random
  // mutation burst, roll it back, and demand exact equality with the
  // untouched twin — across many seeds, so interleaved adds, vertex
  // removals, and parallel-edge removals all get exercised.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Digraph base = builders::erdos_renyi_dag(
        24, 0.12, static_cast<std::uint64_t>(100 + trial));
    DynamicGraph d(base);
    const DynamicGraph graph_ref = d;

    std::vector<VertexId> alive;
    for (VertexId v = 0; v < d.id_limit(); ++v)
      if (d.alive(v)) alive.push_back(v);
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId v : alive)
      for (VertexId w : d.children(v)) edges.emplace_back(v, w);

    d.begin_journal();
    const int burst = 1 + static_cast<int>(rng() % 8);
    for (int m = 0; m < burst; ++m) {
      switch (rng() % 4) {
        case 0:
          d.add_vertex();
          break;
        case 1: {
          const VertexId u = alive[rng() % alive.size()];
          const VertexId v = alive[rng() % alive.size()];
          if (u == v) break;
          d.add_edge(u, v);
          edges.emplace_back(u, v);
          break;
        }
        case 2: {
          if (edges.empty()) break;
          const auto [u, v] = edges[rng() % edges.size()];
          d.remove_edge(u, v);
          std::erase(edges, std::make_pair(u, v));
          break;
        }
        default: {
          if (alive.size() <= 2) break;
          const std::size_t i = rng() % alive.size();
          const VertexId v = alive[i];
          d.remove_vertex(v);
          alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(i));
          std::erase_if(edges, [v](const auto& e) {
            return e.first == v || e.second == v;
          });
          break;
        }
      }
    }
    d.rollback_journal();
    expect_graphs_identical(d, graph_ref);
  }
}

}  // namespace
}  // namespace graphio::stream
