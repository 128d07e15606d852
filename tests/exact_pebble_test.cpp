// Exact optimal I/O (state-space search): hand-checked values on small
// graphs, model invariants, and agreement with the simulator's semantics.
#include <gtest/gtest.h>

#include <tuple>

#include "graphio/exact/enumerate.hpp"
#include "graphio/exact/pebble_search.hpp"
#include "graphio/flow/convex_mincut.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::exact {
namespace {

TEST(ExactPebble, SingleVertexCostsNothing) {
  Digraph g(1);
  const ExactResult r = exact_optimal_io(g, 1);
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.io, 0);
}

TEST(ExactPebble, PathNeverSpillsWithTwoSlots) {
  // A chain keeps exactly one live value; M = 2 (operand + result) is
  // enough to run I/O-free at any length.
  const ExactResult r = exact_optimal_io(builders::path(10), 2);
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.io, 0);
}

TEST(ExactPebble, InnerProductFigure1) {
  // Paper Figure 1: 4 inputs, 2 products, 1 sum. With M = 3 evaluate
  // product-by-product I/O-free; with M = 2 one product must spill
  // (write + read = 2).
  const Digraph g = builders::inner_product(2);
  const ExactResult m3 = exact_optimal_io(g, 3);
  ASSERT_TRUE(m3.complete);
  EXPECT_EQ(m3.io, 0);
  const ExactResult m2 = exact_optimal_io(g, 2);
  ASSERT_TRUE(m2.complete);
  EXPECT_EQ(m2.io, 2);
}

TEST(ExactPebble, DiamondRunsFreeBecauseDeathFreesTheSlot) {
  // 0 → 1, 0 → 2, {1,2} → 3. Even M = 2 suffices: computing 2 is 0's
  // last use, so 0's slot frees exactly when 2 needs one, and 3 is a sink
  // (reported, never stored).
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const ExactResult m2 = exact_optimal_io(g, 2);
  ASSERT_TRUE(m2.complete);
  EXPECT_EQ(m2.io, 0);
}

TEST(ExactPebble, ThreeWayFanOutForcesASpill) {
  // a, b inputs; c = f(a,b); d = f(a,c); e = f(b,c). With M = 2 the three
  // values a, b, c can never coexist, yet each pair is needed — at least
  // one write+read round trip is unavoidable; the search finds exactly 2.
  Digraph g(5);
  g.add_edge(0, 2);  // a → c
  g.add_edge(1, 2);  // b → c
  g.add_edge(0, 3);  // a → d
  g.add_edge(2, 3);  // c → d
  g.add_edge(1, 4);  // b → e
  g.add_edge(2, 4);  // c → e
  const ExactResult m2 = exact_optimal_io(g, 2);
  ASSERT_TRUE(m2.complete);
  EXPECT_EQ(m2.io, 2);
  const ExactResult m3 = exact_optimal_io(g, 3);
  ASSERT_TRUE(m3.complete);
  EXPECT_EQ(m3.io, 0);
}

TEST(ExactPebble, MonotoneInMemory) {
  const Digraph g = builders::fft(2);  // 12 vertices
  std::int64_t previous = std::numeric_limits<std::int64_t>::max();
  for (std::int64_t m = 2; m <= 6; ++m) {
    const ExactResult r = exact_optimal_io(g, m);
    ASSERT_TRUE(r.complete) << m;
    EXPECT_LE(r.io, previous) << m;
    previous = r.io;
  }
}

TEST(ExactPebble, LargeMemoryMeansZeroIo) {
  for (const Digraph& g :
       {builders::fft(2), builders::inner_product(3),
        builders::bhk_hypercube(3), builders::binary_tree(3)}) {
    const ExactResult r =
        exact_optimal_io(g, g.num_vertices());
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.io, 0);
  }
}

TEST(ExactPebble, RejectsOversizedGraphs) {
  EXPECT_THROW(exact_optimal_io(builders::path(22), 2), contract_error);
}

TEST(ExactPebble, RejectsCycles) {
  EXPECT_THROW(exact_optimal_io(builders::cycle(4), 2), contract_error);
}

TEST(ExactPebble, RejectsTooSmallMemory) {
  // The 4-ary reduction vertex needs all 4 operands resident.
  Digraph g(5);
  for (VertexId v = 0; v < 4; ++v) g.add_edge(v, 4);
  EXPECT_THROW(exact_optimal_io(g, 3), contract_error);
  EXPECT_EQ(exact_optimal_io(g, 4).io, 0);
}

TEST(ExactPebble, StateCapReportsIncomplete) {
  ExactOptions tiny;
  tiny.max_states = 3;
  const ExactResult r = exact_optimal_io(builders::fft(2), 2, tiny);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.io, -1);
}

TEST(ExactPebble, ReconstructedOrderIsTopological) {
  ExactOptions opts;
  opts.reconstruct_order = true;
  const Digraph g = builders::inner_product(3);
  const ExactResult r = exact_optimal_io(g, 3, opts);
  ASSERT_TRUE(r.complete);
  ASSERT_EQ(static_cast<std::int64_t>(r.order.size()), g.num_vertices());
  EXPECT_TRUE(is_topological(g, r.order));
}

TEST(ExactPebble, SimulatorNeverBeatsExactSearch) {
  // The search optimizes eviction decisions too, so the best simulated
  // schedule (Belady) is an upper bound — often strictly above.
  for (std::int64_t m : {2, 3, 4}) {
    for (const Digraph& g :
         {builders::inner_product(3), builders::fft(2),
          builders::bhk_hypercube(3)}) {
      if (g.max_in_degree() > m) continue;
      const ExactResult exact = exact_optimal_io(g, m);
      ASSERT_TRUE(exact.complete);
      EXPECT_LE(exact.io, sim::best_schedule_io(g, m).total());
    }
  }
}

TEST(ExactPebble, MatchesExhaustiveOrderSearchWhenEvictionIsForced) {
  // On graphs where at most one value is ever evictable, Belady's choice
  // is vacuous and the exhaustive order sweep must agree exactly.
  const Digraph g = builders::inner_product(2);
  EXPECT_EQ(exact_optimal_io(g, 2).io,
            min_simulated_io_over_all_orders(g, 2));
}

// --- enumeration helpers -----------------------------------------------

TEST(Enumerate, CountsOrdersOfAnAntichain) {
  // 4 isolated vertices: 4! orders.
  EXPECT_EQ(count_topological_orders(Digraph(4), 100), 24);
}

TEST(Enumerate, CountsOrdersOfAChain) {
  EXPECT_EQ(count_topological_orders(builders::path(6), 100), 1);
}

TEST(Enumerate, CapStopsEarly) {
  EXPECT_EQ(count_topological_orders(Digraph(8), 10), 10);
}

TEST(Enumerate, VisitSeesValidOrders) {
  const Digraph g = builders::inner_product(2);
  std::int64_t seen = 0;
  for_each_topological_order(g, [&](const std::vector<VertexId>& order) {
    EXPECT_TRUE(is_topological(g, order));
    ++seen;
    return true;
  });
  EXPECT_GT(seen, 0);
}

// --- brute-force wavefront vs the Dinic reduction ------------------------

class WavefrontAgreement
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static Digraph graph() {
    const auto [kind, size] = GetParam();
    switch (kind) {
      case 0: return builders::fft(size);
      case 1: return builders::bhk_hypercube(size);
      case 2: return builders::inner_product(size);
      case 3: return builders::binary_tree(size);
      default: return builders::grid(size, size);
    }
  }
};

TEST_P(WavefrontAgreement, BruteForceMatchesMaxFlow) {
  const Digraph g = graph();
  ASSERT_LE(g.num_vertices(), 24);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(flow::wavefront_mincut(g, v), brute_force_wavefront(g, v))
        << "vertex " << v;
  }
}

TEST_P(WavefrontAgreement, UpperBoundCoversBruteForce) {
  const Digraph g = graph();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(brute_force_wavefront(g, v),
              flow::wavefront_cut_upper_bound(g, v))
        << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallGraphs, WavefrontAgreement,
    ::testing::Values(std::make_tuple(0, 2), std::make_tuple(1, 3),
                      std::make_tuple(1, 4), std::make_tuple(2, 3),
                      std::make_tuple(3, 3), std::make_tuple(4, 3),
                      std::make_tuple(4, 4)));

}  // namespace
}  // namespace graphio::exact
