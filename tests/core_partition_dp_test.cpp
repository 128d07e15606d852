#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "graphio/core/partition.hpp"
#include "graphio/core/partition_dp.hpp"
#include "graphio/exact/pebble_search.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/prng.hpp"

namespace graphio {
namespace {

TEST(OptimalPartition, HandComputedPath) {
  // Path 0→1→2→3 with M = 0: every vertex with children is a write and
  // every producer left of a segment is a read. One segment per vertex:
  // segment {v} has R = (v>0 ? 1 : 0), W = (v<3 ? 1 : 0) → total 6.
  const Digraph g = builders::path(4);
  const auto order = topological_order(g);
  const OptimalPartitionResult r = optimal_lemma1_bound(g, *order, 0.0);
  EXPECT_DOUBLE_EQ(r.bound, 6.0);
}

TEST(OptimalPartition, DominatesEveryBalancedPartition) {
  // The DP maximizes over ALL contiguous partitions; balanced k-splits
  // are feasible points, so the DP value must dominate each of them.
  Prng rng(77);
  for (const Digraph& g :
       {builders::fft(4), builders::bhk_hypercube(5),
        builders::erdos_renyi_dag(60, 0.12, 9)}) {
    const std::vector<VertexId> order = random_topological_order(g, rng);
    const double memory = 3.0;
    const OptimalPartitionResult opt =
        optimal_lemma1_bound(g, order, memory);
    for (std::int64_t k = 1; k <= std::min<std::int64_t>(
                                 g.num_vertices(), 12); ++k) {
      const double balanced =
          static_cast<double>(lemma1_reads_writes(g, order, k)) -
          2.0 * static_cast<double>(k) * memory;
      EXPECT_GE(opt.bound + 1e-9, std::max(0.0, balanced))
          << "n=" << g.num_vertices() << " k=" << k;
    }
  }
}

TEST(OptimalPartition, NeverExceedsSimulatedIoOfTheSameOrder) {
  // Lemma 1 at the optimal partition lower-bounds J(X); the simulator
  // upper-bounds it — per-order sandwich.
  Prng rng(123);
  for (const Digraph& g :
       {builders::fft(4), builders::naive_matmul(3),
        builders::stencil1d(8, 4), builders::erdos_renyi_dag(50, 0.15, 4)}) {
    const std::int64_t memory = std::max<std::int64_t>(4, g.max_in_degree());
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<VertexId> order = random_topological_order(g, rng);
      const OptimalPartitionResult lower =
          optimal_lemma1_bound(g, order, static_cast<double>(memory));
      const std::int64_t upper = sim::simulate_io(g, order, memory).total();
      EXPECT_LE(lower.bound, static_cast<double>(upper) + 1e-9)
          << "n=" << g.num_vertices() << " trial=" << trial;
    }
  }
}

TEST(OptimalPartition, ExactOptimumRespectsTheCertificateOnTinyGraphs) {
  // J*(G) = min_X J(X) ≥ min_X optimal_lemma1(X); check against a few
  // explicitly enumerated orders on an exactly solvable graph.
  const Digraph g = builders::bhk_hypercube(4);
  const std::int64_t memory = 4;
  const auto truth = exact::exact_optimal_io(g, memory);
  ASSERT_TRUE(truth.complete);
  Prng rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    const std::vector<VertexId> order = random_topological_order(g, rng);
    const OptimalPartitionResult r =
        optimal_lemma1_bound(g, order, static_cast<double>(memory));
    // J(X) ≥ J* and J(X) ≥ r.bound; nothing forces r.bound ≤ J*, but the
    // simulated I/O of this very order must dominate the certificate.
    EXPECT_LE(r.bound,
              static_cast<double>(sim::simulate_io(g, order, memory).total()));
  }
}

TEST(OptimalPartition, BreakpointsDescribeTheReportedPartition) {
  const Digraph g = builders::fft(4);
  const auto order = topological_order(g);
  const OptimalPartitionResult r = optimal_lemma1_bound(g, *order, 1.0);
  ASSERT_GT(r.bound, 0.0);
  ASSERT_EQ(static_cast<std::int64_t>(r.breakpoints.size()), r.segments);
  EXPECT_EQ(r.breakpoints.front(), 0);
  EXPECT_TRUE(std::is_sorted(r.breakpoints.begin(), r.breakpoints.end()));
  EXPECT_LT(r.breakpoints.back(), g.num_vertices());
}

TEST(OptimalPartition, LargeMemoryDrivesTheBoundToZero) {
  const Digraph g = builders::fft(3);
  const auto order = topological_order(g);
  const OptimalPartitionResult r = optimal_lemma1_bound(g, *order, 1e6);
  EXPECT_DOUBLE_EQ(r.bound, 0.0);
  EXPECT_EQ(r.segments, 0);
}

TEST(OptimalPartition, RejectsNonTopologicalOrders) {
  const Digraph g = builders::path(3);
  EXPECT_THROW(optimal_lemma1_bound(g, {2, 1, 0}, 1.0), contract_error);
}

TEST(OptimalPartition, EmptyGraph) {
  const Digraph g(0);
  EXPECT_DOUBLE_EQ(optimal_lemma1_bound(g, {}, 1.0).bound, 0.0);
}

TEST(OptimalPartition, MemoryListsEqualOneMemoryCallsBitwise) {
  // One cost extension per anchor serves every memory of a list; each
  // memory's f row must come out exactly as a one-memory run computes it,
  // for unsorted lists, duplicates, M = 0 and fractional M.
  const std::vector<std::vector<double>> lists = {
      {16.0, 0.0, 7.5, 4.0, 7.5, 1.0}, {0.0}, {7.5, 7.5}, {64.0, 2.0, 1e6}};
  Prng rng(41);
  for (const Digraph& g :
       {builders::erdos_renyi_dag(80, 0.06, 5), builders::fft(4),
        builders::bhk_hypercube(5), builders::naive_matmul(3)}) {
    const std::vector<VertexId> natural = *topological_order(g);
    for (const std::vector<VertexId>& order :
         {natural, random_topological_order(g, rng)}) {
      for (const std::vector<double>& memories : lists) {
        const std::vector<OptimalPartitionResult> all =
            optimal_lemma1_bound(g, order, memories);
        ASSERT_EQ(all.size(), memories.size());
        for (std::size_t i = 0; i < memories.size(); ++i) {
          const OptimalPartitionResult one =
              optimal_lemma1_bound(g, order, memories[i]);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(all[i].objective),
                    std::bit_cast<std::uint64_t>(one.objective))
              << "M=" << memories[i];
          EXPECT_EQ(all[i].objective_segments, one.objective_segments);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(all[i].bound),
                    std::bit_cast<std::uint64_t>(one.bound));
          EXPECT_EQ(all[i].segments, one.segments);
          EXPECT_EQ(all[i].breakpoints, one.breakpoints);
        }
      }
    }
  }
  EXPECT_TRUE(optimal_lemma1_bound(builders::fft(2),
                                   *topological_order(builders::fft(2)),
                                   std::vector<double>{})
                  .empty());
}

}  // namespace
}  // namespace graphio
