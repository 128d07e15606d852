#include <gtest/gtest.h>

#include <set>

#include "graphio/flow/convex_mincut.hpp"
#include "graphio/flow/partitioner.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/parallel.hpp"
#include "mincut_reference.hpp"

namespace graphio::flow {
namespace {

using testing_support::exhaustive_sweep;
using testing_support::FourThreadTeam;

TEST(WavefrontMinCut, PathGraphHasUnitWavefronts) {
  const Digraph g = builders::path(4);
  EXPECT_EQ(wavefront_mincut(g, 0), 1);
  EXPECT_EQ(wavefront_mincut(g, 1), 1);
  EXPECT_EQ(wavefront_mincut(g, 2), 1);
  EXPECT_EQ(wavefront_mincut(g, 3), 0);  // sink
}

TEST(WavefrontMinCut, DiamondGraph) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  EXPECT_EQ(wavefront_mincut(g, 0), 1);
  EXPECT_EQ(wavefront_mincut(g, 1), 2);
  EXPECT_EQ(wavefront_mincut(g, 2), 2);
  EXPECT_EQ(wavefront_mincut(g, 3), 0);
}

TEST(WavefrontMinCut, BroadcastGatherPicksCheapestClosure) {
  // 0 -> {1,2,3,4} -> 5. For v=1 the best down-closed set is {0,1}:
  // wavefront {0, 1} of size 2 (not the 4-wide closure of all middles).
  Digraph g(6);
  for (VertexId mid = 1; mid <= 4; ++mid) {
    g.add_edge(0, mid);
    g.add_edge(mid, 5);
  }
  EXPECT_EQ(wavefront_mincut(g, 1), 2);
  EXPECT_EQ(wavefront_mincut(g, 0), 1);
  EXPECT_EQ(wavefront_mincut(g, 5), 0);
}

TEST(WavefrontMinCut, InnerProductGraph) {
  const Digraph g = builders::inner_product(2);
  // Products have wavefront 1 ({inputs...product} closes cheaply).
  EXPECT_EQ(wavefront_mincut(g, 4), 1);
  EXPECT_EQ(wavefront_mincut(g, 5), 1);
  EXPECT_EQ(wavefront_mincut(g, 6), 0);
}

TEST(WavefrontMinCut, RejectsBadVertex) {
  const Digraph g = builders::path(3);
  EXPECT_THROW(wavefront_mincut(g, 9), contract_error);
}

TEST(ConvexMinCut, BoundOnPathIsTrivialForAnyMemory) {
  const Digraph g = builders::path(32);
  const auto result = convex_mincut_bound(g, 1.0);
  EXPECT_TRUE(result.completed);
  EXPECT_DOUBLE_EQ(result.bound, 0.0);  // 2·(1 − 1) = 0
  EXPECT_EQ(result.best_cut, 1);
  EXPECT_EQ(result.vertices_processed, 32);
}

TEST(ConvexMinCut, HypercubeGivesPositiveBoundForSmallMemory) {
  const Digraph g = builders::bhk_hypercube(6);
  const auto small = convex_mincut_bound(g, 2.0);
  EXPECT_TRUE(small.completed);
  EXPECT_GT(small.bound, 0.0);
  EXPECT_DOUBLE_EQ(small.bound,
                   2.0 * (static_cast<double>(small.best_cut) - 2.0));

  // Monotone non-increasing in M.
  const auto large = convex_mincut_bound(g, 8.0);
  EXPECT_LE(large.bound, small.bound);
  EXPECT_EQ(small.best_cut, large.best_cut);  // cut independent of M
}

TEST(ConvexMinCut, SerialAndParallelAgree) {
  const Digraph g = builders::fft(4);
  ConvexMinCutResult a;
  {
    const SerialRegion serial;
    a = convex_mincut_bound(g, 4.0);
  }
  const auto b = convex_mincut_bound(g, 4.0);
  EXPECT_DOUBLE_EQ(a.bound, b.bound);
  EXPECT_EQ(a.best_cut, b.best_cut);
}

TEST(ConvexMinCut, TimeBudgetStopsEarlyButStaysValid) {
  const Digraph g = builders::bhk_hypercube(8);
  ConvexMinCutOptions options;
  options.time_budget_seconds = 0.0;  // expire immediately
  const auto result = convex_mincut_bound(g, 2.0, options);
  EXPECT_FALSE(result.completed);
  EXPECT_LT(result.vertices_processed, g.num_vertices());
  // Whatever was processed still yields a valid (possibly zero) bound.
  EXPECT_GE(result.bound, 0.0);
}

TEST(ConvexMinCut, UpperBoundIsAFeasibleWavefront) {
  // Diamond 0 -> {1, 2} -> 3: at v = 1 both free wavefronts have two
  // members ({1, 2} and {0, 1}).
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  EXPECT_EQ(wavefront_cut_upper_bound(g, 0), 1);
  EXPECT_EQ(wavefront_cut_upper_bound(g, 1), 2);
  EXPECT_EQ(wavefront_cut_upper_bound(g, 3), 0);  // sink
  EXPECT_THROW(wavefront_cut_upper_bound(g, 4), contract_error);
  // Broadcast-gather 0 -> {1..4} -> 5 at v = 1: S = V ∖ {5} pays all four
  // middles plus nothing else, S = {0, 1} pays two; the minimum is kept.
  Digraph fan(6);
  for (VertexId mid = 1; mid <= 4; ++mid) {
    fan.add_edge(0, mid);
    fan.add_edge(mid, 5);
  }
  EXPECT_EQ(wavefront_cut_upper_bound(fan, 1), 2);
  EXPECT_EQ(wavefront_mincut(fan, 1), 2);
}

TEST(ConvexMinCut, PrunedSweepMatchesExhaustiveOnBoundColdFamilies) {
  // Small instances of every family the bound-cold workload sweeps.
  for (const Digraph& g :
       {builders::fft(4), builders::bhk_hypercube(5),
        builders::naive_matmul(3), builders::strassen_matmul(4),
        builders::stencil2d(3, 3, 3), builders::erdos_renyi_dag(60, 0.05, 9),
        builders::erdos_renyi_dag(90, 0.03, 10)}) {
    const auto reference = exhaustive_sweep(g);
    ConvexMinCutResult a;
    {
      const SerialRegion serial;
      a = convex_mincut_bound(g, 0.0);
    }
    ConvexMinCutResult b;
    {
      const FourThreadTeam team;
      b = convex_mincut_bound(g, 0.0);
    }
    for (const ConvexMinCutResult& r : {a, b}) {
      EXPECT_TRUE(r.completed);
      EXPECT_EQ(r.best_cut, reference.best_cut) << "n=" << g.num_vertices();
      EXPECT_EQ(r.best_vertex, reference.best_vertex)
          << "n=" << g.num_vertices();
      EXPECT_EQ(r.vertices_processed, g.num_vertices());
      EXPECT_GE(r.flows, 1);
    }
  }
}

TEST(ConvexMinCut, PrunesOnFft5) {
  const Digraph g = builders::fft(5);
  const SerialRegion serial;
  const auto r = convex_mincut_bound(g, 4.0);
  const auto sinks = static_cast<std::int64_t>(g.sinks().size());
  EXPECT_GT(r.pruned, 0);
  EXPECT_EQ(r.flows + r.pruned + sinks, g.num_vertices());
  EXPECT_EQ(r.vertices_processed, g.num_vertices());
}

TEST(ConvexMinCut, EdgelessGraphKeepsVertexZero) {
  const auto r = convex_mincut_bound(Digraph(5), 1.0);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.best_vertex, 0);
  EXPECT_EQ(r.best_cut, 0);
  EXPECT_EQ(r.vertices_processed, 5);
  EXPECT_EQ(r.flows, 0);
  EXPECT_EQ(convex_mincut_bound(Digraph(0), 1.0).best_vertex, -1);
}

TEST(ConvexMinCut, RejectsNegativeMemory) {
  EXPECT_THROW(convex_mincut_bound(builders::path(3), -1.0), contract_error);
}

TEST(Partitioner, CoversEveryVertexOnceWithinCap) {
  const Digraph g = builders::fft(5);
  const auto parts = bfs_partition(g, 16);
  std::set<VertexId> seen;
  for (const auto& part : parts) {
    EXPECT_LE(static_cast<std::int64_t>(part.size()), 16);
    EXPECT_FALSE(part.empty());
    for (VertexId v : part) EXPECT_TRUE(seen.insert(v).second);
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), g.num_vertices());
}

TEST(Partitioner, SinglePartWhenCapIsLarge) {
  const Digraph g = builders::inner_product(3);
  const auto parts = bfs_partition(g, 1000);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(static_cast<std::int64_t>(parts[0].size()), g.num_vertices());
}

TEST(Partitioner, InducedSubgraphKeepsInternalEdges) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const std::vector<VertexId> keep{1, 2};
  const Digraph sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.num_vertices(), 2);
  EXPECT_EQ(sub.num_edges(), 1);  // only 1 -> 2 survives
  EXPECT_EQ(sub.children(0)[0], 1);
}

TEST(Partitioner, InducedSubgraphRejectsDuplicates) {
  const Digraph g = builders::path(3);
  const std::vector<VertexId> bad{0, 0};
  EXPECT_THROW(induced_subgraph(g, bad), contract_error);
}

TEST(PartitionedMinCut, ReproducesPaperTrivialityObservation) {
  // Section 6.3: with sub-graphs of ~2M vertices the baseline collapses to
  // zero on complex graphs like the butterfly.
  const Digraph g = builders::fft(6);
  const double memory = 4.0;
  const auto partitioned = partitioned_convex_mincut_bound(
      g, memory, static_cast<std::int64_t>(2 * memory));
  EXPECT_DOUBLE_EQ(partitioned.bound, 0.0);
  // While the unpartitioned sweep is positive at this M.
  const auto full = convex_mincut_bound(g, memory);
  EXPECT_GT(full.bound, 0.0);
}

}  // namespace
}  // namespace graphio::flow
