#include "graphio/sim/memsim.hpp"

#include <algorithm>
#include <utility>

#include "graphio/graph/topo.hpp"
#include "graphio/sim/eviction_heap.hpp"
#include "graphio/sim/schedule.hpp"
#include "graphio/sim/use_lists.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::sim {

SimResult simulate_io(const Digraph& g, const std::vector<VertexId>& order,
                      std::int64_t memory, const SimOptions& options) {
  GIO_EXPECTS_MSG(is_topological(g, order),
                  "schedule must be a topological order of the graph");
  GIO_EXPECTS(memory >= 1);

  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::size_t> next_use;
  const UseLists uses =
      build_use_lists(g, order, 1, [](VertexId) { return 0; }, next_use);
  std::vector<char> resident(n, 0);
  std::vector<char> written(n, 0);
  std::vector<char> pinned(n, 0);

  // Resident values that may be evicted. The operands of the vertex being
  // evaluated are pinned and taken out, so the victim is always the top.
  const bool belady = options.policy == EvictionPolicy::kBelady;
  EvictionHeap pool(n, belady);

  SimResult result;
  std::vector<VertexId> distinct_parents;
  std::int64_t resident_count = 0;
  std::int64_t sources = 0;
  std::int64_t sinks = 0;

  auto make_room = [&]() {
    while (resident_count >= memory) {
      GIO_EXPECTS_MSG(!pool.empty(),
                      "fast memory too small for the operand set");
      const auto victim = static_cast<std::size_t>(pool.pop());
      if (!written[victim]) {
        written[victim] = 1;
        ++result.writes;
      }
      resident[victim] = 0;
      --resident_count;
    }
  };

  for (std::size_t t = 0; t < order.size(); ++t) {
    const VertexId v = order[t];
    const auto vi = static_cast<std::size_t>(v);
    const auto now = static_cast<std::int64_t>(t);

    distinct_parents.clear();
    for (VertexId p : g.parents(v)) {
      const auto pi = static_cast<std::size_t>(p);
      if (pinned[pi]) continue;
      pinned[pi] = 1;
      distinct_parents.push_back(p);
      if (resident[pi]) pool.erase(p);
    }
    GIO_EXPECTS_MSG(static_cast<std::int64_t>(distinct_parents.size()) <=
                        memory,
                    "vertex has more distinct operands than fast memory");

    // Fault in missing operands (each was written when evicted — the model
    // guarantees needed values are persisted).
    for (VertexId p : distinct_parents) {
      const auto pi = static_cast<std::size_t>(p);
      if (resident[pi]) continue;
      GIO_ASSERT(written[pi]);
      ++result.reads;
      make_room();
      resident[pi] = 1;
      ++resident_count;
    }

    // Consume operands: advance their use cursors, drop dead values and
    // return live ones to the pool.
    for (VertexId p : distinct_parents) {
      const auto pi = static_cast<std::size_t>(p);
      std::size_t& cursor = next_use[pi];
      const std::size_t end = uses.first[pi + 1];
      while (cursor < end && uses.time[cursor] == now) ++cursor;
      pinned[pi] = 0;
      if (cursor == end) {
        resident[pi] = 0;  // dead: free drop
        --resident_count;
      } else {
        pool.push(p, belady ? uses.time[cursor] : now);
      }
    }

    // Place the result. Sinks are reported to the user immediately and
    // never occupy fast memory; dead values cannot exist (no uses).
    sources += distinct_parents.empty() ? 1 : 0;
    if (uses.first[vi] == uses.first[vi + 1]) {
      ++sinks;
    } else {
      make_room();
      resident[vi] = 1;
      ++resident_count;
      pool.push(v, belady ? uses.time[uses.first[vi]] : now);
    }
    result.peak_resident = std::max(result.peak_resident, resident_count);
  }

  result.trivial_io = sources + sinks;
  if (options.count_trivial) {
    result.reads += sources;
    result.writes += sinks;
  }
  return result;
}

std::vector<BestSchedule> best_schedule(
    const Digraph& g, const std::vector<std::int64_t>& memories,
    int random_orders, std::uint64_t seed) {
  auto natural = topological_order(g);
  GIO_EXPECTS_MSG(natural.has_value(), "graph has a cycle");

  // The candidate orders do not depend on M: each is generated once and
  // simulated at every memory, and each memory keeps its own winner.
  std::vector<BestSchedule> best;
  best.reserve(memories.size());
  for (const std::int64_t memory : memories)
    best.push_back({*natural, simulate_io(g, *natural, memory)});
  auto consider = [&](const std::vector<VertexId>& order) {
    for (std::size_t m = 0; m < memories.size(); ++m) {
      const SimResult r = simulate_io(g, order, memories[m]);
      if (r.total() < best[m].result.total()) best[m] = {order, r};
    }
  };
  consider(dfs_topological_order(g));
  consider(greedy_locality_order(g));
  Prng rng(seed);
  for (int i = 0; i < random_orders; ++i)
    consider(random_topological_order(g, rng));
  return best;
}

BestSchedule best_schedule(const Digraph& g, std::int64_t memory,
                           int random_orders, std::uint64_t seed) {
  return std::move(best_schedule(g, std::vector<std::int64_t>{memory},
                                 random_orders, seed)
                       .front());
}

SimResult best_schedule_io(const Digraph& g, std::int64_t memory,
                           int random_orders, std::uint64_t seed) {
  return best_schedule(g, memory, random_orders, seed).result;
}

}  // namespace graphio::sim
