#include "graphio/sim/parallel_memsim.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "graphio/graph/topo.hpp"
#include "graphio/sim/eviction_heap.hpp"
#include "graphio/sim/use_lists.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/prng.hpp"

namespace graphio::sim {

namespace {

constexpr std::int64_t kNeverUsed = std::numeric_limits<std::int64_t>::max();

}  // namespace

std::vector<int> partition_assignment(const Digraph& g,
                                      const std::vector<VertexId>& order,
                                      std::int64_t processors,
                                      PartitionStrategy strategy,
                                      std::uint64_t seed) {
  GIO_EXPECTS(processors >= 1);
  GIO_EXPECTS_MSG(is_topological(g, order),
                  "assignment requires a topological order");
  const std::int64_t n = g.num_vertices();
  std::vector<int> assignment(static_cast<std::size_t>(n), 0);
  Prng rng(seed);
  const std::int64_t block = (n + processors - 1) / std::max<std::int64_t>(
                                 processors, 1);
  for (std::size_t t = 0; t < order.size(); ++t) {
    const auto v = static_cast<std::size_t>(order[t]);
    switch (strategy) {
      case PartitionStrategy::kContiguous:
        assignment[v] =
            static_cast<int>(static_cast<std::int64_t>(t) / block);
        break;
      case PartitionStrategy::kRoundRobin:
        assignment[v] = static_cast<int>(static_cast<std::int64_t>(t) %
                                         processors);
        break;
      case PartitionStrategy::kRandom:
        assignment[v] = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(processors)));
        break;
    }
  }
  return assignment;
}

ParallelSimResult simulate_parallel_io(const Digraph& g,
                                       const std::vector<VertexId>& order,
                                       const std::vector<int>& assignment,
                                       std::int64_t memory,
                                       const SimOptions& options) {
  GIO_EXPECTS_MSG(is_topological(g, order),
                  "schedule must be a topological order of the graph");
  GIO_EXPECTS(memory >= 1);
  GIO_EXPECTS(assignment.size() == static_cast<std::size_t>(g.num_vertices()));
  // resident[v] is a bitmask of processors currently holding v, so p ≤ 64.
  // Checked before anything is sized by p.
  int processors = 1;
  for (int owner : assignment) {
    GIO_EXPECTS_MSG(owner >= 0, "assignment entries must be non-negative");
    GIO_EXPECTS_MSG(owner < 64,
                    "simulate_parallel_io supports at most 64 processors");
    processors = std::max(processors, owner + 1);
  }
  const auto procs = static_cast<std::size_t>(processors);

  const auto n = static_cast<std::size_t>(g.num_vertices());
  // Per (vertex, processor) slot cursor into the local use list.
  std::vector<std::size_t> next_use;
  const UseLists uses = build_use_lists(
      g, order, procs,
      [&](VertexId c) { return assignment[static_cast<std::size_t>(c)]; },
      next_use);
  std::vector<std::uint64_t> resident(n, 0);
  std::vector<char> written(n, 0);
  std::vector<std::int64_t> remaining_uses(n, 0);
  for (std::size_t v = 0; v < n; ++v)
    remaining_uses[v] = static_cast<std::int64_t>(
        uses.first[(v + 1) * procs] - uses.first[v * procs]);

  // One eviction pool per processor. The operands of the vertex being
  // evaluated are pinned and taken out of their processor's pool, so the
  // victim is always the top.
  const bool belady = options.policy == EvictionPolicy::kBelady;
  std::vector<EvictionHeap> pools(procs, EvictionHeap(n, belady));
  std::vector<std::int64_t> resident_count(procs, 0);

  ParallelSimResult result;
  result.per_processor.assign(procs, {});

  std::vector<char> pinned(n, 0);

  auto local_key = [&](std::size_t v, int proc,
                       std::int64_t now) -> std::int64_t {
    if (!belady) return now;  // LRU: last-touch time
    const std::size_t s = v * procs + static_cast<std::size_t>(proc);
    return next_use[s] < uses.first[s + 1] ? uses.time[next_use[s]]
                                           : kNeverUsed;
  };

  auto make_room = [&](int proc) {
    const auto pi = static_cast<std::size_t>(proc);
    while (resident_count[pi] >= memory) {
      GIO_EXPECTS_MSG(!pools[pi].empty(),
                      "fast memory too small for the operand set");
      const auto victim = static_cast<std::size_t>(pools[pi].pop());
      if (remaining_uses[victim] > 0 && !written[victim]) {
        // Live and unpersisted: the no-recomputation rule forces a write.
        written[victim] = 1;
        ++result.per_processor[pi].writes;
      }
      resident[victim] &= ~(1ULL << proc);
      --resident_count[pi];
    }
  };

  std::vector<VertexId> distinct_parents;
  for (std::size_t t = 0; t < order.size(); ++t) {
    const VertexId v = order[t];
    const auto vi = static_cast<std::size_t>(v);
    const auto now = static_cast<std::int64_t>(t);
    const int me = assignment[vi];
    const auto mi = static_cast<std::size_t>(me);
    auto& io = result.per_processor[mi];
    ++io.vertices;

    distinct_parents.clear();
    for (VertexId p : g.parents(v)) {
      const auto pi = static_cast<std::size_t>(p);
      if (pinned[pi]) continue;
      pinned[pi] = 1;
      distinct_parents.push_back(p);
      if ((resident[pi] >> me) & 1ULL) pools[mi].erase(p);
    }
    GIO_EXPECTS_MSG(
        static_cast<std::int64_t>(distinct_parents.size()) <= memory,
        "vertex has more distinct operands than fast memory");

    // Fault in missing operands.
    for (VertexId p : distinct_parents) {
      const auto pi = static_cast<std::size_t>(p);
      if ((resident[pi] >> me) & 1ULL) continue;
      ++io.reads;
      if (!written[pi]) {
        // The value lives only in some other processor's fast memory: an
        // inter-processor pull; the holder pays the send side.
        GIO_ASSERT(resident[pi] != 0);
        const int holder = std::countr_zero(resident[pi]);
        ++result.per_processor[static_cast<std::size_t>(holder)].sends;
      }
      make_room(me);
      resident[pi] |= 1ULL << me;
      ++resident_count[mi];
    }

    // Consume operands: advance local cursors, free-drop globally dead
    // values from every processor holding them, return live ones to the
    // pool.
    for (VertexId p : distinct_parents) {
      const auto pi = static_cast<std::size_t>(p);
      std::size_t& cursor = next_use[pi * procs + mi];
      const std::size_t end = uses.first[pi * procs + mi + 1];
      while (cursor < end && uses.time[cursor] == now) {
        ++cursor;
        --remaining_uses[pi];
      }
      pinned[pi] = 0;
      if (remaining_uses[pi] == 0) {
        // Dead everywhere: every copy is dropped for free.
        std::uint64_t mask = resident[pi];
        while (mask != 0) {
          const int proc = std::countr_zero(mask);
          mask &= mask - 1;
          if (proc != me) pools[static_cast<std::size_t>(proc)].erase(p);
          --resident_count[static_cast<std::size_t>(proc)];
        }
        resident[pi] = 0;
      } else {
        pools[mi].push(p, local_key(pi, me, now));
      }
    }

    // Place the result locally; sinks are reported immediately and values
    // nobody consumes do not occupy a slot.
    if (remaining_uses[vi] > 0) {
      make_room(me);
      resident[vi] |= 1ULL << me;
      ++resident_count[mi];
      pools[mi].push(v, local_key(vi, me, now));
    }
  }

  return result;
}

ParallelSimResult best_parallel_schedule_io(const Digraph& g,
                                            std::int64_t memory,
                                            std::int64_t processors,
                                            std::uint64_t seed) {
  // Start from the best serial schedule — contiguous blocks of a
  // low-I/O order keep most producer→consumer edges processor-local.
  const std::vector<VertexId> order = best_schedule(g, memory).order;
  ParallelSimResult best;
  bool first = true;
  for (PartitionStrategy strategy :
       {PartitionStrategy::kContiguous, PartitionStrategy::kRoundRobin,
        PartitionStrategy::kRandom}) {
    const std::vector<int> assignment =
        partition_assignment(g, order, processors, strategy, seed);
    ParallelSimResult r = simulate_parallel_io(g, order, assignment, memory);
    if (first || r.max_total() < best.max_total()) best = std::move(r);
    first = false;
  }
  return best;
}

}  // namespace graphio::sim
