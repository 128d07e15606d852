// Bitwise reference for the memory simulators: simulate_io and
// simulate_parallel_io exactly as graphio shipped them with a
// std::set<(key, vertex)> eviction pool, vector-of-vector use lists and a
// skip-pinned victim scan. The production simulators (CSR use lists, one
// indexed eviction heap) must reproduce every field of every result these
// produce, which is what keeps stored memsim rows valid without an
// artifact key version bump.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "graphio/graph/digraph.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/sim/parallel_memsim.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::sim::reference {

/// Per-vertex list of use times (one entry per consuming edge, ascending).
inline std::vector<std::vector<std::int64_t>> build_use_lists(
    const Digraph& g, const std::vector<VertexId>& order) {
  std::vector<std::vector<std::int64_t>> uses(
      static_cast<std::size_t>(g.num_vertices()));
  for (std::size_t t = 0; t < order.size(); ++t)
    for (VertexId p : g.parents(order[t]))
      uses[static_cast<std::size_t>(p)].push_back(
          static_cast<std::int64_t>(t));
  return uses;
}

inline SimResult simulate_io(const Digraph& g,
                             const std::vector<VertexId>& order,
                             std::int64_t memory, const SimOptions& options) {
  GIO_EXPECTS_MSG(is_topological(g, order),
                  "schedule must be a topological order of the graph");
  GIO_EXPECTS(memory >= 1);

  const std::int64_t n = g.num_vertices();
  auto uses = build_use_lists(g, order);
  std::vector<std::size_t> next_use(static_cast<std::size_t>(n), 0);
  std::vector<char> resident(static_cast<std::size_t>(n), 0);
  std::vector<char> written(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> key(static_cast<std::size_t>(n), 0);

  // Eviction pool ordered by policy key:
  //   Belady — key is the next use time; victim = largest (farthest).
  //   LRU    — key is the last use time; victim = smallest (oldest).
  std::set<std::pair<std::int64_t, VertexId>> pool;
  const bool belady = options.policy == EvictionPolicy::kBelady;

  SimResult result;
  std::vector<VertexId> distinct_parents;
  std::vector<char> pinned(static_cast<std::size_t>(n), 0);
  std::int64_t resident_count = 0;

  auto pool_insert = [&](VertexId v, std::int64_t k) {
    key[static_cast<std::size_t>(v)] = k;
    pool.emplace(k, v);
  };
  auto pool_erase = [&](VertexId v) {
    pool.erase({key[static_cast<std::size_t>(v)], v});
  };

  auto evict = [&](VertexId victim) {
    if (!written[static_cast<std::size_t>(victim)]) {
      written[static_cast<std::size_t>(victim)] = 1;
      ++result.writes;
    }
    resident[static_cast<std::size_t>(victim)] = 0;
    --resident_count;
  };

  auto evict_one = [&]() {
    // Choose the victim at the policy end of the pool, skipping pinned
    // vertices (operands of the vertex currently being evaluated).
    if (belady) {
      for (auto it = pool.rbegin(); it != pool.rend(); ++it) {
        if (pinned[static_cast<std::size_t>(it->second)]) continue;
        evict(it->second);
        pool.erase(std::next(it).base());
        return;
      }
    } else {
      for (auto it = pool.begin(); it != pool.end(); ++it) {
        if (pinned[static_cast<std::size_t>(it->second)]) continue;
        evict(it->second);
        pool.erase(it);
        return;
      }
    }
    GIO_EXPECTS_MSG(false, "fast memory too small for the operand set");
  };

  for (std::size_t t = 0; t < order.size(); ++t) {
    const VertexId v = order[t];

    distinct_parents.clear();
    for (VertexId p : g.parents(v)) {
      if (pinned[static_cast<std::size_t>(p)]) continue;
      pinned[static_cast<std::size_t>(p)] = 1;
      distinct_parents.push_back(p);
    }
    GIO_EXPECTS_MSG(static_cast<std::int64_t>(distinct_parents.size()) <=
                        memory,
                    "vertex has more distinct operands than fast memory");

    // Fault in missing operands (each was written when evicted — the model
    // guarantees needed values are persisted).
    for (VertexId p : distinct_parents) {
      if (resident[static_cast<std::size_t>(p)]) continue;
      GIO_ASSERT(written[static_cast<std::size_t>(p)]);
      ++result.reads;
      while (resident_count >= memory) evict_one();
      resident[static_cast<std::size_t>(p)] = 1;
      ++resident_count;
      pool_insert(p, belady ? uses[static_cast<std::size_t>(p)]
                                  [next_use[static_cast<std::size_t>(p)]]
                            : static_cast<std::int64_t>(t));
    }

    // Consume operands: advance their use cursors, drop dead values.
    for (VertexId p : distinct_parents) {
      auto& cursor = next_use[static_cast<std::size_t>(p)];
      const auto& plist = uses[static_cast<std::size_t>(p)];
      while (cursor < plist.size() &&
             plist[cursor] == static_cast<std::int64_t>(t))
        ++cursor;
      pool_erase(p);
      pinned[static_cast<std::size_t>(p)] = 0;
      if (cursor == plist.size()) {
        resident[static_cast<std::size_t>(p)] = 0;  // dead: free drop
        --resident_count;
      } else {
        pool_insert(p, belady ? plist[cursor] : static_cast<std::int64_t>(t));
      }
    }

    // Place the result. Sinks are reported to the user immediately and
    // never occupy fast memory; dead values cannot exist (no uses).
    if (!uses[static_cast<std::size_t>(v)].empty()) {
      while (resident_count >= memory) evict_one();
      resident[static_cast<std::size_t>(v)] = 1;
      ++resident_count;
      pool_insert(v, belady ? uses[static_cast<std::size_t>(v)][0]
                            : static_cast<std::int64_t>(t));
    }
    result.peak_resident = std::max(result.peak_resident, resident_count);
  }

  result.trivial_io =
      static_cast<std::int64_t>(g.sources().size() + g.sinks().size());
  if (options.count_trivial) {
    result.reads += static_cast<std::int64_t>(g.sources().size());
    result.writes += static_cast<std::int64_t>(g.sinks().size());
  }
  return result;
}

inline constexpr std::int64_t kNeverUsed =
    std::numeric_limits<std::int64_t>::max();

/// For each vertex and each processor, the ascending list of global times
/// at which that processor consumes the vertex.
inline std::vector<std::vector<std::vector<std::int64_t>>>
build_local_use_lists(
    const Digraph& g, const std::vector<VertexId>& order,
    const std::vector<int>& assignment, int processors) {
  std::vector<std::vector<std::vector<std::int64_t>>> uses(
      static_cast<std::size_t>(g.num_vertices()),
      std::vector<std::vector<std::int64_t>>(
          static_cast<std::size_t>(processors)));
  for (std::size_t t = 0; t < order.size(); ++t) {
    const int owner = assignment[static_cast<std::size_t>(order[t])];
    for (VertexId p : g.parents(order[t]))
      uses[static_cast<std::size_t>(p)][static_cast<std::size_t>(owner)]
          .push_back(static_cast<std::int64_t>(t));
  }
  return uses;
}

inline ParallelSimResult simulate_parallel_io(
    const Digraph& g, const std::vector<VertexId>& order,
    const std::vector<int>& assignment, std::int64_t memory,
    const SimOptions& options) {
  GIO_EXPECTS_MSG(is_topological(g, order),
                  "schedule must be a topological order of the graph");
  GIO_EXPECTS(memory >= 1);
  GIO_EXPECTS(assignment.size() == static_cast<std::size_t>(g.num_vertices()));
  int processors = 1;
  for (int owner : assignment) {
    GIO_EXPECTS_MSG(owner >= 0, "assignment entries must be non-negative");
    processors = std::max(processors, owner + 1);
  }

  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto uses = build_local_use_lists(g, order, assignment, processors);
  // Per (vertex, processor) cursor into the local use list.
  std::vector<std::vector<std::size_t>> next_use(
      n, std::vector<std::size_t>(static_cast<std::size_t>(processors), 0));
  // resident[v] is a bitmask of processors currently holding v (p ≤ 64 is
  // enforced; beyond that the mask would need widening).
  GIO_EXPECTS_MSG(processors <= 64,
                  "simulate_parallel_io supports at most 64 processors");
  std::vector<std::uint64_t> resident(n, 0);
  std::vector<char> written(n, 0);
  std::vector<std::int64_t> remaining_uses(n, 0);
  for (std::size_t v = 0; v < n; ++v)
    for (const auto& per_proc : uses[v])
      remaining_uses[v] += static_cast<std::int64_t>(per_proc.size());

  const bool belady = options.policy == EvictionPolicy::kBelady;

  struct ProcState {
    std::set<std::pair<std::int64_t, VertexId>> pool;  // (key, vertex)
    std::vector<std::int64_t> key;
    std::int64_t resident_count = 0;
  };
  std::vector<ProcState> procs(static_cast<std::size_t>(processors));
  for (auto& ps : procs) ps.key.assign(n, 0);

  ParallelSimResult result;
  result.per_processor.assign(static_cast<std::size_t>(processors), {});

  std::vector<char> pinned(n, 0);

  auto local_key = [&](std::size_t v, int proc,
                       std::int64_t now) -> std::int64_t {
    if (!belady) return now;  // LRU: last-touch time
    const auto& list = uses[v][static_cast<std::size_t>(proc)];
    const std::size_t cursor = next_use[v][static_cast<std::size_t>(proc)];
    return cursor < list.size() ? list[cursor] : kNeverUsed;
  };

  auto pool_insert = [&](int proc, VertexId v, std::int64_t k) {
    auto& ps = procs[static_cast<std::size_t>(proc)];
    ps.key[static_cast<std::size_t>(v)] = k;
    ps.pool.emplace(k, v);
  };
  auto pool_erase = [&](int proc, VertexId v) {
    auto& ps = procs[static_cast<std::size_t>(proc)];
    ps.pool.erase({ps.key[static_cast<std::size_t>(v)], v});
  };

  auto drop = [&](int proc, VertexId victim) {
    auto& ps = procs[static_cast<std::size_t>(proc)];
    const auto vi = static_cast<std::size_t>(victim);
    if (remaining_uses[vi] > 0 && !written[vi]) {
      // Live and unpersisted: the no-recomputation rule forces a write.
      written[vi] = 1;
      ++result.per_processor[static_cast<std::size_t>(proc)].writes;
    }
    resident[vi] &= ~(1ULL << proc);
    --ps.resident_count;
  };

  auto evict_one = [&](int proc) {
    auto& ps = procs[static_cast<std::size_t>(proc)];
    // Victim at the policy end of the pool, skipping pinned operands.
    if (belady) {
      for (auto it = ps.pool.rbegin(); it != ps.pool.rend(); ++it) {
        if (pinned[static_cast<std::size_t>(it->second)]) continue;
        drop(proc, it->second);
        ps.pool.erase(std::next(it).base());
        return;
      }
    } else {
      for (auto it = ps.pool.begin(); it != ps.pool.end(); ++it) {
        if (pinned[static_cast<std::size_t>(it->second)]) continue;
        drop(proc, it->second);
        ps.pool.erase(it);
        return;
      }
    }
    GIO_EXPECTS_MSG(false, "fast memory too small for the operand set");
  };

  std::vector<VertexId> distinct_parents;
  for (std::size_t t = 0; t < order.size(); ++t) {
    const VertexId v = order[t];
    const auto vi = static_cast<std::size_t>(v);
    const int me = assignment[vi];
    auto& ps = procs[static_cast<std::size_t>(me)];
    auto& io = result.per_processor[static_cast<std::size_t>(me)];
    ++io.vertices;

    distinct_parents.clear();
    for (VertexId p : g.parents(v)) {
      if (pinned[static_cast<std::size_t>(p)]) continue;
      pinned[static_cast<std::size_t>(p)] = 1;
      distinct_parents.push_back(p);
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
      while (ps.resident_count >= memory) evict_one(me);
      resident[pi] |= 1ULL << me;
      ++ps.resident_count;
      pool_insert(me, p, local_key(pi, me, static_cast<std::int64_t>(t)));
    }

    // Consume operands: advance local cursors, free-drop globally dead
    // values from every processor holding them.
    for (VertexId p : distinct_parents) {
      const auto pi = static_cast<std::size_t>(p);
      auto& cursor = next_use[pi][static_cast<std::size_t>(me)];
      const auto& list = uses[pi][static_cast<std::size_t>(me)];
      while (cursor < list.size() &&
             list[cursor] == static_cast<std::int64_t>(t)) {
        ++cursor;
        --remaining_uses[pi];
      }
      pool_erase(me, p);
      pinned[pi] = 0;
      if (remaining_uses[pi] == 0) {
        // Dead everywhere: every copy is dropped for free.
        std::uint64_t mask = resident[pi];
        while (mask != 0) {
          const int proc = std::countr_zero(mask);
          mask &= mask - 1;
          if (proc != me) pool_erase(proc, p);
          --procs[static_cast<std::size_t>(proc)].resident_count;
        }
        resident[pi] = 0;
      } else {
        pool_insert(me, p, local_key(pi, me, static_cast<std::int64_t>(t)));
      }
    }

    // Place the result locally; sinks are reported immediately and values
    // nobody consumes do not occupy a slot.
    if (remaining_uses[vi] > 0) {
      while (ps.resident_count >= memory) evict_one(me);
      resident[vi] |= 1ULL << me;
      ++ps.resident_count;
      pool_insert(me, v, local_key(vi, me, static_cast<std::int64_t>(t)));
    }
  }

  return result;
}

}  // namespace graphio::sim::reference
