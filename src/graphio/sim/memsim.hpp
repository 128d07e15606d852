// Two-level memory execution simulator (the paper's model, Section 3).
//
// Executes a topological evaluation order on a computation graph with fast
// memory of M values and counts *non-trivial* I/O:
//   * inputs are read from the user straight into fast memory (free on
//     first touch) and outputs are reported as computed (free, and sinks
//     never occupy a slot);
//   * an evicted value that is still needed is written to slow memory once
//     (values are immutable, so clean re-evictions are free) and costs one
//     read per subsequent miss;
//   * recomputation is disallowed.
// The simulated cost of any schedule is an upper bound on J*(G): every
// lower-bound engine in the library is sandwich-tested against it.
//
// best_schedule's candidate orders do not depend on M, so its list form
// generates them once and simulates each at every memory of a request;
// the one-memory forms wrap it.
#pragma once

#include <cstdint>
#include <vector>

#include "graphio/graph/digraph.hpp"

namespace graphio::sim {

enum class EvictionPolicy {
  kBelady,  ///< offline MIN: evict the value reused farthest in the future
  kLru,     ///< least-recently-used
};

struct SimOptions {
  EvictionPolicy policy = EvictionPolicy::kBelady;
  /// Also count trivial I/O (#sources reads + #sinks writes) in totals.
  bool count_trivial = false;
};

struct SimResult {
  std::int64_t reads = 0;        ///< non-trivial reads from slow memory
  std::int64_t writes = 0;       ///< non-trivial writes to slow memory
  std::int64_t trivial_io = 0;   ///< #sources + #sinks (reported separately)
  std::int64_t peak_resident = 0;

  [[nodiscard]] std::int64_t total() const noexcept { return reads + writes; }
};

/// Simulates `order` (must be a topological order of g) with fast memory of
/// `memory` values. Requires memory ≥ the largest number of distinct
/// operands of any vertex (the paper's feasibility rule — points with max
/// in-degree > M are not evaluated).
SimResult simulate_io(const Digraph& g, const std::vector<VertexId>& order,
                      std::int64_t memory, const SimOptions& options = {});

/// Convenience: the best (minimum total) simulated I/O across a set of
/// standard schedules (natural Kahn, DFS, locality-greedy, and
/// `random_orders` random samples) under the Belady policy. A practical
/// upper bound for J*.
SimResult best_schedule_io(const Digraph& g, std::int64_t memory,
                           int random_orders = 4,
                           std::uint64_t seed = 0xC0FFEE);

/// As best_schedule_io, but also reports the winning order (e.g. as the
/// starting point for anneal_schedule).
struct BestSchedule {
  std::vector<VertexId> order;
  SimResult result;
};
BestSchedule best_schedule(const Digraph& g, std::int64_t memory,
                           int random_orders = 4,
                           std::uint64_t seed = 0xC0FFEE);

/// best_schedule at every entry of `memories` (each must be feasible), one
/// result per entry, each equal to a one-memory call: the candidate
/// orders are generated once and simulated at every memory, and each
/// memory picks its own winner. The one-memory forms wrap this.
std::vector<BestSchedule> best_schedule(
    const Digraph& g, const std::vector<std::int64_t>& memories,
    int random_orders = 4, std::uint64_t seed = 0xC0FFEE);

}  // namespace graphio::sim
