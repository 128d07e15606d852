// Use lists of the memory simulators: for every value, the ascending
// evaluation times at which it is consumed, one entry per consuming edge.
//
// Stored as CSR over slots: slot s's list is time[first[s] .. first[s + 1]).
// The serial simulator has one slot per vertex; the p-processor simulator
// has one per (vertex, consuming processor) pair, v·p + q.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graphio/graph/digraph.hpp"

namespace graphio::sim {

struct UseLists {
  std::vector<std::size_t> first;
  std::vector<std::int64_t> time;
};

/// Builds the use lists of `order` on `processors` processors, where
/// `owner(c)` in [0, processors) evaluates vertex c. Leaves cursor[s] on
/// slot s's first use.
template <typename Owner>
UseLists build_use_lists(const Digraph& g, const std::vector<VertexId>& order,
                         std::size_t processors, Owner owner,
                         std::vector<std::size_t>& cursor) {
  const auto slot = [&](VertexId value, VertexId consumer) {
    return static_cast<std::size_t>(value) * processors +
           static_cast<std::size_t>(owner(consumer));
  };
  UseLists uses;
  uses.first.assign(static_cast<std::size_t>(g.num_vertices()) * processors + 1,
                    0);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (VertexId c : g.children(v)) ++uses.first[slot(v, c) + 1];
  for (std::size_t s = 0; s + 1 < uses.first.size(); ++s)
    uses.first[s + 1] += uses.first[s];
  uses.time.resize(uses.first.back());
  // Fill back to front from each list's end: the lists come out ascending
  // and every cursor is left on its slot's first use.
  cursor.assign(uses.first.begin() + 1, uses.first.end());
  for (std::size_t t = order.size(); t-- > 0;)
    for (VertexId p : g.parents(order[t]))
      uses.time[--cursor[slot(p, order[t])]] = static_cast<std::int64_t>(t);
  return uses;
}

}  // namespace graphio::sim
