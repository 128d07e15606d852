// Randomized property sweeps over Erdős–Rényi computation DAGs: every
// invariant the theory promises must hold for arbitrary graphs, not just
// the structured families.
#include <gtest/gtest.h>

#include <algorithm>

#include "graphio/core/partition.hpp"
#include "graphio/core/spectral_bound.hpp"
#include "graphio/flow/convex_mincut.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/laplacian.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/la/symmetric_eigen.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/support/parallel.hpp"
#include "mincut_reference.hpp"

namespace graphio {
namespace {

struct RandomCase {
  std::int64_t n;
  double p;
  std::uint64_t seed;
};

class RandomGraphProperty : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RandomGraphProperty, FullTheoremChainOnRandomOrders) {
  const auto [n, p, seed] = GetParam();
  const Digraph g = builders::erdos_renyi_dag(n, p, seed);
  const auto lambda = la::symmetric_eigenvalues(
      dense_laplacian(g, LaplacianKind::kOutDegreeNormalized));

  Prng rng(seed ^ 0xABCD);
  for (int trial = 0; trial < 3; ++trial) {
    const auto order = random_topological_order(g, rng);
    for (std::int64_t k : {2, 5, 11}) {
      if (k > n) continue;
      const double objective = partition_edge_objective(g, order, k);
      // Theorem 2 step.
      EXPECT_GE(static_cast<double>(lemma1_reads_writes(g, order, k)),
                objective - 1e-9);
      // Trace identity.
      EXPECT_NEAR(
          trace_objective(g, order, k, LaplacianKind::kOutDegreeNormalized),
          objective, 1e-8);
      // Spectral relaxation.
      double prefix = 0.0;
      for (std::int64_t i = 0; i < k; ++i)
        prefix += std::max(0.0, lambda[static_cast<std::size_t>(i)]);
      EXPECT_GE(objective, static_cast<double>(n / k) * prefix - 1e-8);
    }
  }
}

TEST_P(RandomGraphProperty, BoundsSandwichSimulatedIo) {
  const auto [n, p, seed] = GetParam();
  const Digraph g = builders::erdos_renyi_dag(n, p, seed);
  const std::int64_t memory = std::max<std::int64_t>(g.max_in_degree(), 4);

  const auto upper = sim::best_schedule_io(g, memory, 3, seed);
  const double thm4 = spectral_bound(g, static_cast<double>(memory)).bound;
  const double thm5 =
      spectral_bound_plain(g, static_cast<double>(memory)).bound;
  const double mincut =
      flow::convex_mincut_bound(g, static_cast<double>(memory)).bound;

  EXPECT_LE(thm4, static_cast<double>(upper.total()) + 1e-6);
  EXPECT_LE(thm5, thm4 + 1e-9);
  EXPECT_LE(mincut, static_cast<double>(upper.total()) + 1e-6);
}

TEST_P(RandomGraphProperty, WavefrontCutsStayBelowUpperBound) {
  const auto [n, p, seed] = GetParam();
  const Digraph g = builders::erdos_renyi_dag(n, p, seed);
  for (VertexId v = 0; v < n; ++v)
    EXPECT_LE(flow::wavefront_mincut(g, v),
              flow::wavefront_cut_upper_bound(g, v))
        << "v=" << v;
}

TEST_P(RandomGraphProperty, PrunedSweepMatchesExhaustiveReference) {
  const auto [n, p, seed] = GetParam();
  const Digraph g = builders::erdos_renyi_dag(n, p, seed);
  const auto reference = testing_support::exhaustive_sweep(g);
  flow::ConvexMinCutResult a;
  {
    const SerialRegion serial;
    a = flow::convex_mincut_bound(g, 0.0);
  }
  flow::ConvexMinCutResult b;
  {
    const testing_support::FourThreadTeam team;
    b = flow::convex_mincut_bound(g, 0.0);
  }
  for (const flow::ConvexMinCutResult& r : {a, b}) {
    EXPECT_EQ(r.best_cut, reference.best_cut);
    EXPECT_EQ(r.best_vertex, reference.best_vertex);
    EXPECT_EQ(r.vertices_processed, n);
  }
}

TEST_P(RandomGraphProperty, SimulatorInvariants) {
  const auto [n, p, seed] = GetParam();
  const Digraph g = builders::erdos_renyi_dag(n, p, seed);
  const std::int64_t base = std::max<std::int64_t>(g.max_in_degree(), 2);
  const auto order = *topological_order(g);

  std::int64_t previous = sim::simulate_io(g, order, base).total();
  for (std::int64_t extra : {2, 8, 32}) {
    const std::int64_t current =
        sim::simulate_io(g, order, base + extra).total();
    EXPECT_LE(current, previous);
    previous = current;
  }
  // Unbounded memory ⇒ zero non-trivial I/O.
  EXPECT_EQ(sim::simulate_io(g, order, g.num_vertices() + 1).total(), 0);
}

TEST_P(RandomGraphProperty, ParallelBoundMonotoneInProcessors) {
  const auto [n, p, seed] = GetParam();
  const Digraph g = builders::erdos_renyi_dag(n, p, seed);
  double previous = parallel_spectral_bound(g, 4, 1).bound;
  for (std::int64_t procs : {2, 4}) {
    const double current = parallel_spectral_bound(g, 4, procs).bound;
    EXPECT_LE(current, previous + 1e-12);
    previous = current;
  }
}

TEST_P(RandomGraphProperty, WavefrontCutsAreSchedulerRealizable) {
  // C(v) lower-bounds the live set at the moment v completes under ANY
  // schedule; verify against a direct simulation-derived live-set count.
  const auto [n, p, seed] = GetParam();
  if (n > 80) GTEST_SKIP() << "O(n²) live-set replay";
  const Digraph g = builders::erdos_renyi_dag(n, p, seed);
  Prng rng(seed);
  const auto order = random_topological_order(g, rng);
  std::vector<std::int64_t> position(static_cast<std::size_t>(n));
  for (std::size_t t = 0; t < order.size(); ++t)
    position[static_cast<std::size_t>(order[t])] =
        static_cast<std::int64_t>(t);

  for (std::size_t t = 0; t < order.size(); ++t) {
    // Live set right after computing order[t]: computed values with a
    // consumer still pending.
    std::int64_t live = 0;
    for (VertexId u = 0; u < n; ++u) {
      if (position[static_cast<std::size_t>(u)] >
          static_cast<std::int64_t>(t))
        continue;
      bool needed = false;
      for (VertexId c : g.children(u))
        needed |= position[static_cast<std::size_t>(c)] >
                  static_cast<std::int64_t>(t);
      live += needed ? 1 : 0;
    }
    EXPECT_LE(flow::wavefront_mincut(g, order[t]), live)
        << "vertex " << order[t] << " at step " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomGraphProperty,
    ::testing::Values(RandomCase{40, 0.08, 1}, RandomCase{40, 0.2, 2},
                      RandomCase{80, 0.05, 3}, RandomCase{80, 0.12, 4},
                      RandomCase{140, 0.03, 5}, RandomCase{140, 0.08, 6},
                      RandomCase{220, 0.02, 7}, RandomCase{220, 0.05, 8}),
    [](const ::testing::TestParamInfo<RandomCase>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "_seed" +
             std::to_string(param_info.param.seed);
    });

TEST(PropertyEdgeCases, SingleVertexAndEmptyGraphs) {
  Digraph empty;
  EXPECT_DOUBLE_EQ(spectral_bound(empty, 1).bound, 0.0);
  Digraph one(1);
  EXPECT_DOUBLE_EQ(spectral_bound(one, 1).bound, 0.0);
  EXPECT_DOUBLE_EQ(flow::convex_mincut_bound(one, 1).bound, 0.0);
  const auto order = *topological_order(one);
  EXPECT_EQ(sim::simulate_io(one, order, 1).total(), 0);
}

TEST(PropertyEdgeCases, DisconnectedGraphBoundsStayValid) {
  // Union of two FFTs: two zero eigenvalues; bounds must survive.
  Digraph g = builders::fft(3);
  const Digraph h = builders::fft(3);
  const VertexId offset = g.num_vertices();
  for (VertexId v = 0; v < h.num_vertices(); ++v) (void)g.add_vertex();
  for (VertexId v = 0; v < h.num_vertices(); ++v)
    for (VertexId c : h.children(v)) g.add_edge(v + offset, c + offset);

  const double lower = spectral_bound(g, 4).bound;
  const auto upper = sim::best_schedule_io(g, 4);
  EXPECT_LE(lower, static_cast<double>(upper.total()) + 1e-6);
}

}  // namespace
}  // namespace graphio
