#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "graphio/core/spectral_bound.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/sim/parallel_memsim.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio {
namespace {

std::vector<int> all_on_one(const Digraph& g) {
  return std::vector<int>(static_cast<std::size_t>(g.num_vertices()), 0);
}

TEST(ParallelMemsim, SingleProcessorMatchesSerialSimulator) {
  for (const Digraph& g :
       {builders::fft(4), builders::bhk_hypercube(5),
        builders::naive_matmul(3), builders::stencil1d(8, 4)}) {
    const auto order = topological_order(g);
    ASSERT_TRUE(order.has_value());
    const std::int64_t memory = std::max<std::int64_t>(4, g.max_in_degree());
    const sim::ParallelSimResult par =
        sim::simulate_parallel_io(g, *order, all_on_one(g), memory);
    const sim::SimResult serial = sim::simulate_io(g, *order, memory);
    ASSERT_EQ(par.per_processor.size(), 1u);
    EXPECT_EQ(par.per_processor[0].reads, serial.reads);
    EXPECT_EQ(par.per_processor[0].writes, serial.writes);
    EXPECT_EQ(par.per_processor[0].sends, 0);
  }
}

TEST(ParallelMemsim, VertexCountsPartitionTheGraph) {
  const Digraph g = builders::fft(5);
  const auto order = topological_order(g);
  const auto assignment = sim::partition_assignment(
      g, *order, 4, sim::PartitionStrategy::kRoundRobin);
  const sim::ParallelSimResult r =
      sim::simulate_parallel_io(g, *order, assignment, 8);
  std::int64_t total = 0;
  for (const auto& p : r.per_processor) total += p.vertices;
  EXPECT_EQ(total, g.num_vertices());
}

TEST(ParallelMemsim, ContiguousAssignmentBalancesWithinOne) {
  const Digraph g = builders::bhk_hypercube(6);  // 64 vertices
  const auto order = topological_order(g);
  const auto assignment = sim::partition_assignment(
      g, *order, 5, sim::PartitionStrategy::kContiguous);
  std::vector<std::int64_t> counts(5, 0);
  for (int owner : assignment) ++counts[static_cast<std::size_t>(owner)];
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LE(*hi - *lo, 13);  // ceil(64/5) = 13; last block may be short
  EXPECT_GT(*lo, 0);
}

TEST(ParallelMemsim, SandwichesTheoremSixOnEvaluationGraphs) {
  // Theorem 6: at least one processor incurs at least the parallel
  // spectral bound, so every simulated execution's busiest processor must
  // sit at or above it.
  for (std::int64_t p : {2, 4, 8}) {
    for (const Digraph& g : {builders::fft(5), builders::bhk_hypercube(7)}) {
      const double memory = 4.0;
      if (static_cast<double>(g.max_in_degree()) > memory) continue;
      const SpectralBound lower =
          parallel_spectral_bound(g, memory, p);
      const sim::ParallelSimResult upper = sim::best_parallel_schedule_io(
          g, static_cast<std::int64_t>(memory), p);
      EXPECT_LE(lower.bound, static_cast<double>(upper.max_total()))
          << "p=" << p << " n=" << g.num_vertices();
    }
  }
}

TEST(ParallelMemsim, RemotePullChargesReaderAndUnwrittenHolder) {
  // Path 0 -> 1 with the two vertices on different processors: processor 1
  // must read 0's value (1 read), pulling it straight out of processor 0's
  // fast memory (1 send); nothing is ever written.
  const Digraph g = builders::path(2);
  const std::vector<VertexId> order{0, 1};
  const std::vector<int> assignment{0, 1};
  const sim::ParallelSimResult r =
      sim::simulate_parallel_io(g, order, assignment, 2);
  EXPECT_EQ(r.per_processor[1].reads, 1);
  EXPECT_EQ(r.per_processor[0].sends, 1);
  EXPECT_EQ(r.per_processor[0].writes, 0);
  EXPECT_EQ(r.per_processor[1].writes, 0);
  EXPECT_EQ(r.sum_total(), 2);
}

TEST(ParallelMemsim, StarSourceStaysResidentAndServesPeerPulls) {
  // Star 0 -> {1, 2, 3}: sinks never occupy a slot, so owner 0 keeps the
  // hub value in fast memory forever — it is never written, and each
  // remote consumer's read is a P2P pull charged to the holder as a send.
  const Digraph g = builders::star(4);
  const std::vector<VertexId> order{0, 1, 2, 3};
  const std::vector<int> assignment{0, 0, 1, 2};
  const sim::ParallelSimResult r =
      sim::simulate_parallel_io(g, order, assignment, 1);
  EXPECT_EQ(r.per_processor[0].writes, 0);
  EXPECT_EQ(r.per_processor[0].sends, 2);
  EXPECT_EQ(r.per_processor[1].reads, 1);
  EXPECT_EQ(r.per_processor[2].reads, 1);
}

TEST(ParallelMemsim, WrittenValuesAreReadFromSlowMemoryWithoutSends) {
  // Two producers on processor 0 with memory 1: computing the second
  // evicts the first (live, unwritten -> one write). Its remote consumer
  // then reads from slow memory with no send; the second producer's value
  // is still resident, so its consumer's read is a P2P pull.
  Digraph g(4);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  const std::vector<VertexId> order{0, 1, 2, 3};
  const std::vector<int> assignment{0, 0, 1, 1};
  const sim::ParallelSimResult r =
      sim::simulate_parallel_io(g, order, assignment, 1);
  EXPECT_EQ(r.per_processor[0].writes, 1);  // vertex 0 evicted live
  EXPECT_EQ(r.per_processor[0].sends, 1);   // vertex 1 pulled directly
  EXPECT_EQ(r.per_processor[1].reads, 2);
}

TEST(ParallelMemsim, MorProcessorsNeverIncreaseTheBusiestLoadOnFft) {
  // Splitting work can only shed load from the busiest processor on this
  // family (communication stays bounded by the butterfly's degree).
  const Digraph g = builders::fft(5);
  const sim::ParallelSimResult p1 = sim::best_parallel_schedule_io(g, 4, 1);
  const sim::ParallelSimResult p4 = sim::best_parallel_schedule_io(g, 4, 4);
  EXPECT_LE(p4.max_total(), p1.max_total() + g.num_vertices());
  EXPECT_GT(p4.per_processor.size(), p1.per_processor.size());
}

TEST(ParallelMemsim, RejectsBadInputs) {
  const Digraph g = builders::path(4);
  const auto order = topological_order(g);
  EXPECT_THROW(sim::simulate_parallel_io(g, *order, {0, 0, 0}, 2),
               contract_error);  // wrong assignment size
  EXPECT_THROW(sim::simulate_parallel_io(g, *order, {0, -1, 0, 0}, 2),
               contract_error);  // negative owner
  EXPECT_THROW(
      sim::simulate_parallel_io(g, {3, 2, 1, 0}, all_on_one(g), 2),
      contract_error);  // non-topological order
  EXPECT_THROW(sim::partition_assignment(g, *order, 0,
                                         sim::PartitionStrategy::kContiguous),
               contract_error);
}

TEST(ParallelMemsim, RejectsMoreThan64ProcessorsBeforeAllocating) {
  // The processor count is validated before anything is sized by it: an
  // owner id of 2^30 must throw, not try to allocate 2^30 use lists per
  // vertex.
  const Digraph g = builders::path(4);
  const auto order = topological_order(g);
  EXPECT_THROW(sim::simulate_parallel_io(g, *order, {0, 1 << 30, 0, 0}, 2),
               contract_error);
  EXPECT_THROW(sim::simulate_parallel_io(
                   g, *order, {0, std::numeric_limits<int>::max(), 0, 0}, 2),
               contract_error);
  EXPECT_THROW(sim::simulate_parallel_io(g, *order, {0, 64, 0, 0}, 2),
               contract_error);
  const sim::ParallelSimResult widest =
      sim::simulate_parallel_io(g, *order, {0, 63, 0, 0}, 2);
  EXPECT_EQ(widest.per_processor.size(), 64u);
}

TEST(ParallelMemsim, LruPolicyRunsAndStaysAboveBelady) {
  const Digraph g = builders::fft(4);
  const auto order = topological_order(g);
  const auto assignment = sim::partition_assignment(
      g, *order, 2, sim::PartitionStrategy::kContiguous);
  sim::SimOptions lru;
  lru.policy = sim::EvictionPolicy::kLru;
  const auto belady = sim::simulate_parallel_io(g, *order, assignment, 3);
  const auto with_lru =
      sim::simulate_parallel_io(g, *order, assignment, 3, lru);
  EXPECT_GE(with_lru.sum_total(), belady.sum_total());
}

class ParallelSandwichSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(ParallelSandwichSweep, HypercubeBoundBelowSimulatedMax) {
  const auto [p, memory] = GetParam();
  const Digraph g = builders::bhk_hypercube(7);
  if (g.max_in_degree() > memory) GTEST_SKIP();
  const SpectralBound lower =
      parallel_spectral_bound(g, static_cast<double>(memory), p);
  const sim::ParallelSimResult upper =
      sim::best_parallel_schedule_io(g, memory, p);
  EXPECT_LE(lower.bound, static_cast<double>(upper.max_total()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelSandwichSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 3, 8, 16),
                       ::testing::Values<std::int64_t>(8, 16, 32)),
    [](const ::testing::TestParamInfo<std::tuple<std::int64_t, std::int64_t>>&
           param_info) {
      return "p" + std::to_string(std::get<0>(param_info.param)) + "_m" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace graphio
