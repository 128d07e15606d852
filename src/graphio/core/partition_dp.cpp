#include "graphio/core/partition_dp.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "graphio/graph/topo.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio {

std::vector<OptimalPartitionResult> optimal_lemma1_bound(
    const Digraph& g, const std::vector<VertexId>& order,
    const std::vector<double>& memories) {
  GIO_EXPECTS_MSG(is_topological(g, order),
                  "optimal_lemma1_bound requires a topological order");
  for (const double memory : memories) GIO_EXPECTS(memory >= 0.0);
  const std::int64_t n = g.num_vertices();
  const std::size_t k = memories.size();
  std::vector<OptimalPartitionResult> results(k);
  if (n == 0 || k == 0) return results;

  std::vector<std::int64_t> position(static_cast<std::size_t>(n), 0);
  for (std::size_t t = 0; t < order.size(); ++t)
    position[static_cast<std::size_t>(order[t])] =
        static_cast<std::int64_t>(t);

  // last_use[p] = vertices whose final consumer sits at position p (their
  // W membership ends when the segment extends past p).
  std::vector<std::vector<VertexId>> last_use(static_cast<std::size_t>(n));
  std::vector<char> has_children(static_cast<std::size_t>(n), 0);
  for (VertexId v = 0; v < n; ++v) {
    std::int64_t last = -1;
    for (VertexId child : g.children(v))
      last = std::max(last, position[static_cast<std::size_t>(child)]);
    if (last >= 0) {
      has_children[static_cast<std::size_t>(v)] = 1;
      last_use[static_cast<std::size_t>(last)].push_back(v);
    }
  }

  const double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> charge(k);
  for (std::size_t m = 0; m < k; ++m) charge[m] = 2.0 * memories[m];
  // f[j·k + m] = best objective over partitions of the first j positions
  // at memories[m]; f(0) = 0 and every prefix may also be "not yet
  // started" — Lemma 1 allows the partition to cover all of V, so
  // segments tile [0, n). One row per position keeps a memory sweep's
  // updates for one segment contiguous.
  std::vector<double> f((static_cast<std::size_t>(n) + 1) * k, kNegInf);
  std::vector<std::int64_t> parent_break(f.size(), 0);
  std::fill_n(f.begin(), k, 0.0);

  std::vector<std::int64_t> r_stamp(static_cast<std::size_t>(n), -1);
  for (std::int64_t i = 0; i < n; ++i) {
    const double* const fi = &f[static_cast<std::size_t>(i) * k];
    if (std::all_of(fi, fi + k, [&](double v) { return v == kNegInf; }))
      continue;
    // Extend a segment anchored at i rightward, maintaining |R| and |W|.
    std::int64_t reads = 0;
    std::int64_t writes = 0;
    for (std::int64_t j = i; j < n; ++j) {
      const VertexId w = order[static_cast<std::size_t>(j)];
      // R: distinct producers strictly left of the anchor.
      for (VertexId u : g.parents(w)) {
        const auto ui = static_cast<std::size_t>(u);
        if (position[ui] < i && r_stamp[ui] != i) {
          r_stamp[ui] = i;
          ++reads;
        }
      }
      // W: w joins if it has any consumer (they all sit right of j).
      if (has_children[static_cast<std::size_t>(w)]) ++writes;
      // ...and vertices whose final consumer is exactly at j leave W.
      for (VertexId v : last_use[static_cast<std::size_t>(j)])
        if (position[static_cast<std::size_t>(v)] >= i) --writes;

      // The segment cost is M-independent; only the 2M charge differs.
      // An unreachable f(i) = −∞ yields a −∞ candidate that never wins.
      const auto cost = static_cast<double>(reads + writes);
      const std::size_t row = static_cast<std::size_t>(j + 1) * k;
      for (std::size_t m = 0; m < k; ++m) {
        const double candidate = fi[m] + cost - charge[m];
        if (candidate > f[row + m]) {
          f[row + m] = candidate;
          parent_break[row + m] = i;
        }
      }
    }
  }

  for (std::size_t m = 0; m < k; ++m) {
    const auto prev = [&](std::int64_t pos) {
      return parent_break[static_cast<std::size_t>(pos) * k + m];
    };
    OptimalPartitionResult& result = results[m];
    result.objective = f[static_cast<std::size_t>(n) * k + m];
    for (std::int64_t pos = n; pos > 0; pos = prev(pos))
      ++result.objective_segments;
    if (result.objective <= 0.0) continue;
    result.bound = result.objective;
    result.segments = result.objective_segments;
    for (std::int64_t pos = n; pos > 0; pos = prev(pos))
      result.breakpoints.push_back(prev(pos));
    std::reverse(result.breakpoints.begin(), result.breakpoints.end());
  }
  return results;
}

OptimalPartitionResult optimal_lemma1_bound(
    const Digraph& g, const std::vector<VertexId>& order, double memory) {
  return std::move(
      optimal_lemma1_bound(g, order, std::vector<double>{memory}).front());
}

}  // namespace graphio
