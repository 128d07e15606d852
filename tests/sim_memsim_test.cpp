#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graphio/graph/builders.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/sim/schedule.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/prng.hpp"

namespace graphio::sim {
namespace {

std::vector<VertexId> natural(const Digraph& g) {
  auto order = topological_order(g);
  EXPECT_TRUE(order.has_value());
  return *order;
}

TEST(MemSim, ChainNeedsNoIo) {
  const Digraph g = builders::path(16);
  for (std::int64_t m : {1, 2, 8}) {
    const SimResult r = simulate_io(g, natural(g), m);
    EXPECT_EQ(r.total(), 0) << "M=" << m;
  }
}

TEST(MemSim, DiamondFitsInTwoSlots) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  EXPECT_EQ(simulate_io(g, natural(g), 2).total(), 0);
}

TEST(MemSim, ForcedSpillIsExactlyTwo) {
  // a,b inputs; c=a+b; d=f(a,c); e=f(b,c). With M=2, after computing c
  // three values are live: one spill (write+read) is forced.
  Digraph g(5);
  g.add_edge(0, 2);  // a -> c
  g.add_edge(1, 2);  // b -> c
  g.add_edge(0, 3);  // a -> d
  g.add_edge(2, 3);  // c -> d
  g.add_edge(1, 4);  // b -> e
  g.add_edge(2, 4);  // c -> e
  const SimResult r = simulate_io(g, {0, 1, 2, 3, 4}, 2);
  EXPECT_EQ(r.writes, 1);
  EXPECT_EQ(r.reads, 1);
  // With M=3 everything fits.
  EXPECT_EQ(simulate_io(g, {0, 1, 2, 3, 4}, 3).total(), 0);
}

TEST(MemSim, RejectsNonTopologicalOrder) {
  const Digraph g = builders::path(3);
  EXPECT_THROW(simulate_io(g, {1, 0, 2}, 4), contract_error);
  EXPECT_THROW(simulate_io(g, {0, 1}, 4), contract_error);
}

TEST(MemSim, RejectsMemorySmallerThanOperandSet) {
  const Digraph g = builders::naive_matmul(3);  // n-ary sums need 3 operands
  EXPECT_THROW(simulate_io(g, natural(g), 2), contract_error);
  EXPECT_NO_THROW(simulate_io(g, natural(g), 4));
}

TEST(MemSim, ParallelEdgesNeedOneSlot) {
  // x -> y twice (y = x·x): one resident copy serves both operand slots.
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(simulate_io(g, {0, 1}, 1).total(), 0);
}

TEST(MemSim, TrivialIoAccounting) {
  const Digraph g = builders::inner_product(2);  // 4 inputs, 1 output
  const SimResult plain = simulate_io(g, natural(g), 8);
  EXPECT_EQ(plain.total(), 0);
  EXPECT_EQ(plain.trivial_io, 5);
  SimOptions opts;
  opts.count_trivial = true;
  const SimResult with = simulate_io(g, natural(g), 8, opts);
  EXPECT_EQ(with.reads, 4);
  EXPECT_EQ(with.writes, 1);
}

TEST(MemSim, PeakResidentNeverExceedsMemory) {
  const Digraph g = builders::fft(4);
  for (std::int64_t m : {2, 3, 4, 8}) {
    const SimResult r = simulate_io(g, natural(g), m);
    EXPECT_LE(r.peak_resident, m);
  }
}

TEST(MemSim, MoreMemoryNeverHurts) {
  const Digraph g = builders::fft(5);
  const auto order = natural(g);
  std::int64_t previous = simulate_io(g, order, 2).total();
  for (std::int64_t m : {3, 4, 6, 8, 16, 64}) {
    const std::int64_t current = simulate_io(g, order, m).total();
    EXPECT_LE(current, previous) << "M=" << m;
    previous = current;
  }
}

TEST(MemSim, LargeMemoryMeansOnlyCompulsoryIo) {
  const Digraph g = builders::strassen_matmul(4);
  const SimResult r = simulate_io(g, natural(g), g.num_vertices());
  EXPECT_EQ(r.total(), 0);
}

TEST(MemSim, BeladyNoWorseThanLruOnFft) {
  const Digraph g = builders::fft(5);
  const auto order = natural(g);
  for (std::int64_t m : {2, 4, 8}) {
    SimOptions belady;
    SimOptions lru;
    lru.policy = EvictionPolicy::kLru;
    EXPECT_LE(simulate_io(g, order, m, belady).reads,
              simulate_io(g, order, m, lru).reads)
        << "M=" << m;
  }
}

TEST(MemSim, FftRequiresIoWithTinyMemory) {
  const Digraph g = builders::fft(4);
  EXPECT_GT(simulate_io(g, natural(g), 2).total(), 0);
}

Digraph with_edges(std::int64_t n,
                   const std::vector<std::pair<VertexId, VertexId>>& edges) {
  Digraph g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  return g;
}

std::vector<VertexId> identity_order(std::int64_t n) {
  std::vector<VertexId> order(static_cast<std::size_t>(n));
  for (std::size_t t = 0; t < order.size(); ++t)
    order[t] = static_cast<VertexId>(t);
  return order;
}

// Evictable values tie on their policy key; the (key, vertex id) order
// evicts the larger id under Belady and the smaller under LRU. Each case
// is run twice with the two tied vertices' labels exchanged, and the
// labelling decides which one is written out.

TEST(MemSim, BeladyTieEvictsTheLargerVertexId) {
  // Sources `once` and `twice` are both next used by c at t4; `twice` is
  // used again by d at t8. Source y at t2 needs a slot (M = 2) and the
  // tie goes to the larger id. u and w later force out `twice` again,
  // which costs a write only if the tie did not already write it.
  //   t: 0 once, 1 twice, 2 y, 3 z=f(y), 4 c=f(once,twice), 5 u, 6 w,
  //      7 v=f(u,w), 8 d=f(twice)
  auto build = [](VertexId once, VertexId twice) {
    return with_edges(9, {{2, 3}, {once, 4}, {twice, 4}, {5, 7}, {6, 7},
                          {twice, 8}});
  };
  const SimResult twice_evicted =
      simulate_io(build(0, 1), identity_order(9), 2);
  EXPECT_EQ(twice_evicted.reads, 2);
  EXPECT_EQ(twice_evicted.writes, 1);
  const SimResult once_evicted =
      simulate_io(build(1, 0), identity_order(9), 2);
  EXPECT_EQ(once_evicted.reads, 2);
  EXPECT_EQ(once_evicted.writes, 2);
}

TEST(MemSim, LruTieEvictsTheSmallerVertexId) {
  // `early` and `late` are both last used by c at t2 and stay live; c's
  // result needs a slot (M = 2) and the tie goes to the smaller id.
  // `late` is needed again at t3: evicting it costs a second round trip.
  //   t: 0 early, 1 late, 2 c=f(early,late), 3 d=f(late), 4 e=f(early,c)
  auto build = [](VertexId early, VertexId late) {
    return with_edges(5, {{early, 2}, {late, 2}, {late, 3}, {early, 4},
                          {2, 4}});
  };
  SimOptions lru;
  lru.policy = EvictionPolicy::kLru;
  const SimResult early_evicted =
      simulate_io(build(0, 1), identity_order(5), 2, lru);
  EXPECT_EQ(early_evicted.reads, 1);
  EXPECT_EQ(early_evicted.writes, 1);
  const SimResult late_evicted =
      simulate_io(build(1, 0), identity_order(5), 2, lru);
  EXPECT_EQ(late_evicted.reads, 2);
  EXPECT_EQ(late_evicted.writes, 2);
}

TEST(MemSim, BeladyNeverEvictsAPinnedOperandUsedFarthest) {
  // At t4, v = f(x, a) faults x back in with M = 2. Of the resident
  // values, a is used farthest after v (t6), but it is v's operand; the
  // victim is e (next used at t5).
  //   t: 0 x, 1 a, 2 d, 3 e=f(a,d), 4 v=f(x,a), 5 u=f(e), 6 w=f(a)
  const Digraph g =
      with_edges(7, {{1, 3}, {2, 3}, {0, 4}, {1, 4}, {3, 5}, {1, 6}});
  const SimResult r = simulate_io(g, identity_order(7), 2);
  EXPECT_EQ(r.reads, 2);   // x at t4, e at t5
  EXPECT_EQ(r.writes, 2);  // x at t2, e at t4
  EXPECT_EQ(r.peak_resident, 2);
  EXPECT_EQ(r.trivial_io, 6);
}

TEST(MemSim, LruNeverEvictsAPinnedOperandUsedLeastRecently) {
  // At t3, v = f(a, x) faults x back in with M = 2. The least recently
  // used resident is a, but it is v's operand; the victim is b.
  //   t: 0 x, 1 a, 2 b, 3 v=f(x,a), 4 u=f(b), 5 w=f(a)
  const Digraph g = with_edges(6, {{0, 3}, {1, 3}, {2, 4}, {1, 5}});
  SimOptions lru;
  lru.policy = EvictionPolicy::kLru;
  const SimResult r = simulate_io(g, identity_order(6), 2, lru);
  EXPECT_EQ(r.reads, 2);   // x at t3, b at t4
  EXPECT_EQ(r.writes, 2);  // x at t2, b at t3
  EXPECT_EQ(r.peak_resident, 2);
}

TEST(BestScheduleIo, PicksTheCheapestOrder) {
  const Digraph g = builders::fft(4);
  const SimResult best = best_schedule_io(g, 4);
  const SimResult nat = simulate_io(g, natural(g), 4);
  EXPECT_LE(best.total(), nat.total());
}

TEST(BestScheduleIo, ThrowsOnCyclicGraph) {
  EXPECT_THROW(best_schedule_io(builders::cycle(4), 4), contract_error);
}

TEST(BestScheduleIo, MemoryListsEqualOneMemoryCalls) {
  // The candidate orders are generated once and simulated at every
  // memory; each memory's winner must be the one-memory call's, and that
  // is the first of the candidates, in generation order, with the least
  // total I/O.
  for (const Digraph& g :
       {builders::erdos_renyi_dag(70, 0.08, 3), builders::fft(4),
        builders::bhk_hypercube(5), builders::naive_matmul(3)}) {
    std::vector<std::vector<VertexId>> candidates = {
        natural(g), dfs_topological_order(g), greedy_locality_order(g)};
    Prng rng(9);
    for (int i = 0; i < 3; ++i)
      candidates.push_back(random_topological_order(g, rng));
    const std::int64_t d = std::max<std::int64_t>(g.max_in_degree(), 1);
    const std::vector<std::int64_t> memories = {d + 6, d, d + 1, d + 6, 64};
    const std::vector<BestSchedule> all = best_schedule(g, memories, 3, 9);
    ASSERT_EQ(all.size(), memories.size());
    for (std::size_t i = 0; i < memories.size(); ++i) {
      std::size_t first_best = 0;
      for (std::size_t c = 1; c < candidates.size(); ++c)
        if (simulate_io(g, candidates[c], memories[i]).total() <
            simulate_io(g, candidates[first_best], memories[i]).total())
          first_best = c;
      EXPECT_EQ(all[i].order, candidates[first_best]) << "M=" << memories[i];
      const SimResult one = best_schedule_io(g, memories[i], 3, 9);
      EXPECT_EQ(all[i].result.reads, one.reads) << "M=" << memories[i];
      EXPECT_EQ(all[i].result.writes, one.writes);
      EXPECT_EQ(all[i].result.trivial_io, one.trivial_io);
      EXPECT_EQ(all[i].result.peak_resident, one.peak_resident);
      EXPECT_EQ(all[i].order, best_schedule(g, memories[i], 3, 9).order);
    }
  }
}

}  // namespace
}  // namespace graphio::sim
