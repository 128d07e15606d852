// The CSR/heap memory simulators against the std::set simulators they
// replaced (tests/memsim_reference.hpp): every field of every SimResult
// and ParallelSimResult must agree exactly, and both must reject the same
// infeasible memories.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "graphio/graph/builders.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/sim/parallel_memsim.hpp"
#include "graphio/sim/schedule.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/prng.hpp"
#include "memsim_reference.hpp"

namespace graphio::sim {
namespace {

struct Case {
  std::string name;
  Digraph g;
};

/// A random DAG on shuffled vertex ids (so id order is not topological),
/// with about a fifth of its edges doubled.
Digraph random_dag(std::int64_t n, std::int64_t edges, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<VertexId> label(static_cast<std::size_t>(n));
  std::iota(label.begin(), label.end(), 0);
  rng.shuffle(label);
  Digraph g(n);
  for (std::int64_t e = 0; n >= 2 && e < edges; ++e) {
    const auto u = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(n - 1)));
    const auto v = u + 1 + static_cast<std::int64_t>(rng.below(
                               static_cast<std::uint64_t>(n - 1 - u)));
    const VertexId from = label[static_cast<std::size_t>(u)];
    const VertexId to = label[static_cast<std::size_t>(v)];
    g.add_edge(from, to);
    if (rng.bernoulli(0.2)) g.add_edge(from, to);
  }
  return g;
}

std::vector<Case> reference_cases() {
  std::vector<Case> cases;
  const std::vector<std::pair<std::int64_t, std::int64_t>> shapes{
      {1, 0}, {2, 1}, {5, 6}, {12, 20}, {30, 45}, {30, 120}, {60, 150}};
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto [n, edges] = shapes[i];
    cases.push_back({"random n=" + std::to_string(n) + " m=" +
                         std::to_string(edges),
                     random_dag(n, edges, 77 + i)});
  }
  cases.push_back({"fft:4", builders::fft(4)});
  cases.push_back({"bhk:5", builders::bhk_hypercube(5)});
  cases.push_back({"matmul:3", builders::naive_matmul(3)});
  cases.push_back({"stencil1d:8:4", builders::stencil1d(8, 4)});
  cases.push_back({"stencil2d:3:3:2", builders::stencil2d(3, 3, 2)});
  return cases;
}

std::vector<std::pair<std::string, std::vector<VertexId>>> orders_of(
    const Digraph& g) {
  std::vector<std::pair<std::string, std::vector<VertexId>>> orders;
  orders.emplace_back("natural", *topological_order(g));
  orders.emplace_back("dfs", dfs_topological_order(g));
  orders.emplace_back("greedy", greedy_locality_order(g));
  Prng rng(5);
  for (int i = 0; i < 3; ++i)
    orders.emplace_back("random" + std::to_string(i),
                        random_topological_order(g, rng));
  return orders;
}

/// The feasibility floor: the most distinct operands of any vertex.
std::int64_t operand_minimum(const Digraph& g) {
  std::int64_t most = 1;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::vector<VertexId> parents(g.parents(v).begin(), g.parents(v).end());
    std::sort(parents.begin(), parents.end());
    most = std::max<std::int64_t>(
        most, std::unique(parents.begin(), parents.end()) - parents.begin());
  }
  return most;
}

/// Every memory from the operand minimum to n, or (`ladder`) the first
/// eight of them and then steps of ×1.5, always ending at n.
std::vector<std::int64_t> memories(const Digraph& g, bool ladder) {
  const std::int64_t lo = operand_minimum(g);
  const std::int64_t hi = std::max(lo, g.num_vertices());
  std::vector<std::int64_t> out;
  for (std::int64_t m = lo; m < hi;
       m = (ladder && m >= lo + 8) ? m + std::max<std::int64_t>(1, m / 2)
                                   : m + 1)
    out.push_back(m);
  out.push_back(hi);
  return out;
}

std::vector<std::pair<std::string, SimOptions>> policies() {
  SimOptions belady;
  SimOptions lru;
  lru.policy = EvictionPolicy::kLru;
  SimOptions counted;
  counted.count_trivial = true;
  return {{"belady", belady}, {"lru", lru}, {"belady+trivial", counted}};
}

TEST(MemSimReference, SerialMatchesReferenceExactly) {
  std::int64_t compared = 0;
  for (const Case& c : reference_cases()) {
    for (const auto& [order_name, order] : orders_of(c.g)) {
      for (const auto& [policy_name, options] : policies()) {
        const std::string where =
            c.name + " / " + order_name + " / " + policy_name;
        const std::int64_t lo = operand_minimum(c.g);
        if (lo > 1) {
          EXPECT_THROW(simulate_io(c.g, order, lo - 1, options),
                       contract_error)
              << where;
          EXPECT_THROW(reference::simulate_io(c.g, order, lo - 1, options),
                       contract_error)
              << where;
        }
        for (std::int64_t m : memories(c.g, /*ladder=*/false)) {
          const SimResult got = simulate_io(c.g, order, m, options);
          const SimResult want =
              reference::simulate_io(c.g, order, m, options);
          ASSERT_EQ(got.reads, want.reads) << where << " M=" << m;
          ASSERT_EQ(got.writes, want.writes) << where << " M=" << m;
          ASSERT_EQ(got.trivial_io, want.trivial_io) << where << " M=" << m;
          ASSERT_EQ(got.peak_resident, want.peak_resident)
              << where << " M=" << m;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 3000);
}

TEST(MemSimReference, ParallelMatchesReferenceExactly) {
  std::int64_t compared = 0;
  for (const Case& c : reference_cases()) {
    for (const auto& [order_name, order] : orders_of(c.g)) {
      for (std::int64_t p = 1; p <= 5; ++p) {
        for (PartitionStrategy strategy :
             {PartitionStrategy::kContiguous, PartitionStrategy::kRoundRobin,
              PartitionStrategy::kRandom}) {
          const std::vector<int> assignment =
              partition_assignment(c.g, order, p, strategy, 900 + p);
          for (const auto& [policy_name, options] : policies()) {
            const std::string where =
                c.name + " / " + order_name + " / p=" + std::to_string(p) +
                " strategy " + std::to_string(static_cast<int>(strategy)) +
                " / " + policy_name;
            for (std::int64_t m : memories(c.g, /*ladder=*/true)) {
              const ParallelSimResult got =
                  simulate_parallel_io(c.g, order, assignment, m, options);
              const ParallelSimResult want = reference::simulate_parallel_io(
                  c.g, order, assignment, m, options);
              ASSERT_EQ(got.per_processor.size(), want.per_processor.size())
                  << where << " M=" << m;
              for (std::size_t q = 0; q < got.per_processor.size(); ++q) {
                const ProcessorIo& a = got.per_processor[q];
                const ProcessorIo& b = want.per_processor[q];
                ASSERT_TRUE(a.reads == b.reads && a.writes == b.writes &&
                            a.sends == b.sends && a.vertices == b.vertices)
                    << where << " M=" << m << " processor " << q << ": "
                    << a.reads << "/" << a.writes << "/" << a.sends << "/"
                    << a.vertices << " vs " << b.reads << "/" << b.writes
                    << "/" << b.sends << "/" << b.vertices;
              }
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 10000);
}

}  // namespace
}  // namespace graphio::sim
