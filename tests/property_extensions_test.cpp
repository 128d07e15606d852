// Randomized property sweeps for the modules added on top of the paper
// reproduction: schedule annealing, the p-processor simulator, and graph
// transforms. Random Erdős–Rényi DAGs exercise shapes no hand-picked
// family covers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graphio/core/spectral_bound.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/graph/transforms.hpp"
#include "graphio/sim/anneal.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/sim/parallel_memsim.hpp"
#include "graphio/support/prng.hpp"

namespace graphio {
namespace {

struct RandomCase {
  std::int64_t n;
  double p;
  std::uint64_t seed;
};

class RandomExtensions : public ::testing::TestWithParam<RandomCase> {
 protected:
  Digraph graph() const {
    const RandomCase& c = GetParam();
    return builders::erdos_renyi_dag(c.n, c.p, c.seed);
  }
  std::int64_t feasible_memory(const Digraph& g) const {
    return std::max<std::int64_t>(4, g.max_in_degree());
  }
};

TEST_P(RandomExtensions, AnnealedOrdersStayTopologicalAndImproveMonotone) {
  const Digraph g = graph();
  const std::int64_t m = feasible_memory(g);
  sim::AnnealOptions options;
  options.iterations = 400;
  options.seed = GetParam().seed;
  const sim::AnnealResult r = sim::anneal_schedule(g, m, options);
  EXPECT_TRUE(is_topological(g, r.order));
  EXPECT_LE(r.io, r.start_io);
  EXPECT_EQ(r.io, sim::simulate_io(g, r.order, m).total());
  // The lower bound must hold for the annealed order too.
  EXPECT_LE(spectral_bound(g, static_cast<double>(m)).bound,
            static_cast<double>(r.io) + 1e-6);
}

TEST_P(RandomExtensions, ParallelSimConservesWorkAndDominatesTheorem6) {
  const Digraph g = graph();
  const std::int64_t m = feasible_memory(g);
  const auto order = topological_order(g);
  ASSERT_TRUE(order.has_value());
  Prng rng(GetParam().seed ^ 0xABCD);
  for (std::int64_t p : {2, 5}) {
    for (auto strategy :
         {sim::PartitionStrategy::kContiguous,
          sim::PartitionStrategy::kRoundRobin,
          sim::PartitionStrategy::kRandom}) {
      const auto assignment =
          sim::partition_assignment(g, *order, p, strategy, rng());
      const auto result = sim::simulate_parallel_io(g, *order, assignment, m);
      std::int64_t vertices = 0;
      for (const auto& proc : result.per_processor) {
        vertices += proc.vertices;
        EXPECT_GE(proc.reads, 0);
        EXPECT_GE(proc.writes, 0);
        EXPECT_GE(proc.sends, 0);
      }
      EXPECT_EQ(vertices, g.num_vertices());
      const double lower =
          parallel_spectral_bound(g, static_cast<double>(m), p).bound;
      EXPECT_LE(lower, static_cast<double>(result.max_total()) + 1e-6);
    }
  }
}

TEST_P(RandomExtensions, SerialAndParallelSimulatorsAgreeAtPEqualsOne) {
  const Digraph g = graph();
  const std::int64_t m = feasible_memory(g);
  const auto order = topological_order(g);
  const std::vector<int> all_zero(
      static_cast<std::size_t>(g.num_vertices()), 0);
  const auto parallel = sim::simulate_parallel_io(g, *order, all_zero, m);
  const auto serial = sim::simulate_io(g, *order, m);
  EXPECT_EQ(parallel.per_processor[0].reads, serial.reads);
  EXPECT_EQ(parallel.per_processor[0].writes, serial.writes);
  EXPECT_EQ(parallel.per_processor[0].sends, 0);
}

TEST_P(RandomExtensions, TransitiveReductionInvariants) {
  const Digraph g = graph();
  const Digraph tr = transitive_reduction(g);
  EXPECT_TRUE(is_dag(tr));
  EXPECT_LE(tr.num_edges(), g.num_edges());
  // Reducing twice changes nothing.
  EXPECT_TRUE(same_structure(tr, transitive_reduction(tr)));
  // Reversal and reduction commute (both are reachability-determined).
  EXPECT_TRUE(
      same_structure(reverse(transitive_reduction(g)),
                     transitive_reduction(reverse(g))));
}

TEST_P(RandomExtensions, MultiMemoryBoundsMatchSingleCalls) {
  const Digraph g = graph();
  const std::vector<double> memories{4.0, 9.0, 33.0};
  const auto multi = spectral_bounds(g, memories);
  for (std::size_t i = 0; i < memories.size(); ++i) {
    EXPECT_NEAR(multi[i].bound, spectral_bound(g, memories[i]).bound,
                1e-9 * std::max(1.0, multi[i].bound));
  }
}

std::string case_name(const ::testing::TestParamInfo<RandomCase>& info) {
  return "n" + std::to_string(info.param.n) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomExtensions,
    ::testing::Values(RandomCase{30, 0.15, 1}, RandomCase{30, 0.3, 2},
                      RandomCase{80, 0.08, 3}, RandomCase{80, 0.2, 4},
                      RandomCase{150, 0.05, 5}, RandomCase{150, 0.1, 6}),
    case_name);

}  // namespace
}  // namespace graphio
