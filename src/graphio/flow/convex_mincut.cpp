#include "graphio/flow/convex_mincut.hpp"

#include <algorithm>
#include <atomic>

#include "graphio/flow/dinic.hpp"
#include "graphio/flow/partitioner.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/parallel.hpp"
#include "graphio/support/timer.hpp"

namespace graphio::flow {

namespace {

constexpr char kDescendant = 1;
constexpr char kBoundary = 2;  ///< non-descendant with a child in desc(v)
constexpr char kClosure = 3;   ///< member of anc(v) ∪ {v}

/// Marks all strict descendants of v (BFS over children); on return
/// `queue` lists them.
void mark_descendants(const Digraph& g, VertexId v, std::vector<char>& mark,
                      std::vector<VertexId>& queue) {
  mark.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  queue.clear();
  for (VertexId child : g.children(v)) {
    if (!mark[static_cast<std::size_t>(child)]) {
      mark[static_cast<std::size_t>(child)] = kDescendant;
      queue.push_back(child);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (VertexId child : g.children(queue[head])) {
      if (!mark[static_cast<std::size_t>(child)]) {
        mark[static_cast<std::size_t>(child)] = kDescendant;
        queue.push_back(child);
      }
    }
  }
}

std::int64_t wavefront_mincut_impl(const Digraph& g, VertexId v,
                                   std::vector<char>& descendant,
                                   std::vector<VertexId>& scratch) {
  if (g.out_degree(v) == 0) return 0;
  mark_descendants(g, v, descendant, scratch);

  const std::int64_t n = g.num_vertices();
  // Node layout: u_in = 2u, u_out = 2u + 1, s = 2n, t = 2n + 1.
  Dinic net(2 * n + 2);
  const std::int64_t s = 2 * n;
  const std::int64_t t = 2 * n + 1;
  auto in_node = [](VertexId u) { return 2 * u; };
  auto out_node = [](VertexId u) { return 2 * u + 1; };

  for (VertexId u = 0; u < n; ++u) net.add_edge(in_node(u), out_node(u), 1);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId w : g.children(u)) {
      net.add_edge(out_node(u), in_node(w), Dinic::kInfinity);  // boundary
      net.add_edge(in_node(w), in_node(u), Dinic::kInfinity);   // closure
    }
  }
  net.add_edge(s, in_node(v), Dinic::kInfinity);
  for (VertexId w = 0; w < n; ++w)
    if (descendant[static_cast<std::size_t>(w)])
      net.add_edge(in_node(w), t, Dinic::kInfinity);

  const std::int64_t cut = net.max_flow(s, t);
  GIO_ENSURES(cut < Dinic::kInfinity);
  return cut;
}

/// UB(v): the smaller wavefront of the two feasible sets the header
/// derives from one descendant walk and one ancestor walk.
std::int64_t upper_bound_impl(const Digraph& g, VertexId v,
                              std::vector<char>& mark,
                              std::vector<VertexId>& queue) {
  if (g.out_degree(v) == 0) return 0;
  mark_descendants(g, v, mark, queue);
  auto at = [&mark](VertexId u) -> char& {
    return mark[static_cast<std::size_t>(u)];
  };

  // S = V ∖ desc(v): the wavefront is the parents of desc(v) outside it.
  std::int64_t outside = 0;
  for (VertexId w : queue) {
    for (VertexId parent : g.parents(w)) {
      if (at(parent) == 0) {
        at(parent) = kBoundary;
        ++outside;
      }
    }
  }

  // S = anc(v) ∪ {v}: the wavefront is its members with a child outside.
  queue.clear();
  at(v) = kClosure;
  queue.push_back(v);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (VertexId parent : g.parents(queue[head])) {
      if (at(parent) != kClosure) {
        at(parent) = kClosure;
        queue.push_back(parent);
      }
    }
  }
  std::int64_t closure = 0;
  for (VertexId u : queue) {
    for (VertexId child : g.children(u)) {
      if (at(child) != kClosure) {
        ++closure;
        break;
      }
    }
  }
  return std::min(outside, closure);
}

/// (cut, −v) packed so that unsigned order is lexicographic order.
std::uint64_t rank(std::int64_t cut, VertexId v) {
  return (static_cast<std::uint64_t>(cut) << 32) |
         (0xFFFFFFFFULL - static_cast<std::uint64_t>(v));
}

}  // namespace

std::int64_t wavefront_mincut(const Digraph& g, VertexId v) {
  GIO_EXPECTS(g.contains(v));
  std::vector<char> descendant;
  std::vector<VertexId> scratch;
  return wavefront_mincut_impl(g, v, descendant, scratch);
}

std::int64_t wavefront_cut_upper_bound(const Digraph& g, VertexId v) {
  GIO_EXPECTS(g.contains(v));
  std::vector<char> mark;
  std::vector<VertexId> queue;
  return upper_bound_impl(g, v, mark, queue);
}

ConvexMinCutResult convex_mincut_bound(const Digraph& g, double memory,
                                       const ConvexMinCutOptions& options) {
  GIO_EXPECTS_MSG(memory >= 0.0, "memory size must be non-negative");
  const std::int64_t n = g.num_vertices();
  GIO_EXPECTS_MSG(n < (std::int64_t{1} << 32), "graph too large to sweep");
  WallTimer timer;
  std::atomic<bool> expired{false};
  // Runs body(first) .. body(last - 1), stopping once the budget expires.
  auto sweep = [&](std::int64_t first, std::int64_t last, const auto& body) {
    auto guarded = [&](std::int64_t i) {
      if (expired.load(std::memory_order_relaxed)) return;
      body(first + i);
      if (timer.seconds() > options.time_budget_seconds)
        expired.store(true, std::memory_order_relaxed);
    };
    parallel_for_dynamic(last - first, guarded);
  };

  std::vector<std::int64_t> upper(static_cast<std::size_t>(n), 0);
  sweep(0, n, [&](std::int64_t v) {
    thread_local std::vector<char> mark;
    thread_local std::vector<VertexId> queue;
    upper[static_cast<std::size_t>(v)] =
        upper_bound_impl(g, static_cast<VertexId>(v), mark, queue);
  });

  std::vector<VertexId> order;
  for (VertexId v = 0; v < n; ++v)
    if (g.out_degree(v) > 0) order.push_back(v);
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return upper[static_cast<std::size_t>(a)] >
           upper[static_cast<std::size_t>(b)];
  });

  enum : char { kUnsettled, kFlowed, kPruned };
  std::vector<char> state(static_cast<std::size_t>(n), kUnsettled);
  std::vector<std::int64_t> cuts(static_cast<std::size_t>(n), 0);
  std::atomic<std::uint64_t> best{0};
  auto visit = [&](std::int64_t i) {
    const VertexId v = order[static_cast<std::size_t>(i)];
    const auto slot = static_cast<std::size_t>(v);
    if (rank(upper[slot], v) < best.load(std::memory_order_relaxed)) {
      state[slot] = kPruned;
      return;
    }
    thread_local std::vector<char> descendant;
    thread_local std::vector<VertexId> scratch;
    cuts[slot] = wavefront_mincut_impl(g, v, descendant, scratch);
    state[slot] = kFlowed;
    const std::uint64_t found = rank(cuts[slot], v);
    std::uint64_t current = best.load(std::memory_order_relaxed);
    while (found > current && !best.compare_exchange_weak(current, found)) {
    }
  };
  // The top candidate runs alone first: its cut usually equals the
  // largest upper bound. `order` descends in rank(UB(v), v), so the
  // vertices that can still beat it form a prefix; the rest are pruned
  // without a flow or a thread.
  const auto seeded =
      static_cast<std::int64_t>(std::min<std::size_t>(1, order.size()));
  sweep(0, seeded, visit);
  const auto open = std::partition_point(
      order.begin() + seeded, order.end(), [&](VertexId v) {
        return rank(upper[static_cast<std::size_t>(v)], v) >= best.load();
      });
  for (auto it = open; it != order.end(); ++it)
    state[static_cast<std::size_t>(*it)] = kPruned;
  sweep(seeded, open - order.begin(), visit);

  // The scan keeps the lowest-index maximum among settled vertices; an
  // unflowed vertex counts with cut 0 only when it is childless.
  ConvexMinCutResult result;
  for (VertexId v = 0; v < n; ++v) {
    const auto slot = static_cast<std::size_t>(v);
    if (state[slot] == kPruned) ++result.pruned;
    if (state[slot] == kFlowed) ++result.flows;
    const bool childless = g.out_degree(v) == 0;
    if (state[slot] == kUnsettled && !childless) continue;
    ++result.vertices_processed;
    if (state[slot] == kPruned) continue;
    const std::int64_t cut = cuts[slot];
    if (result.best_vertex < 0 || cut > result.best_cut) {
      result.best_vertex = v;
      result.best_cut = cut;
    }
  }
  // max_v 2·(C(v) − M) is monotone in C(v), so only the largest cut matters.
  result.bound =
      std::max(0.0, 2.0 * (static_cast<double>(result.best_cut) - memory));
  result.completed = !expired.load();
  result.seconds = timer.seconds();
  return result;
}

ConvexMinCutResult partitioned_convex_mincut_bound(
    const Digraph& g, double memory, std::int64_t max_part_size,
    const ConvexMinCutOptions& options) {
  GIO_EXPECTS(max_part_size >= 1);
  WallTimer timer;
  ConvexMinCutResult total;
  for (const auto& part : bfs_partition(g, max_part_size)) {
    const Digraph sub = induced_subgraph(g, part);
    ConvexMinCutOptions sub_options = options;
    sub_options.time_budget_seconds =
        options.time_budget_seconds - timer.seconds();
    const ConvexMinCutResult piece =
        convex_mincut_bound(sub, memory, sub_options);
    total.bound += piece.bound;
    total.vertices_processed += piece.vertices_processed;
    total.flows += piece.flows;
    total.pruned += piece.pruned;
    total.completed = total.completed && piece.completed;
    if (!piece.completed) break;
  }
  total.seconds = timer.seconds();
  return total;
}

}  // namespace graphio::flow
