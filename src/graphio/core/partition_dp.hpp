// Optimal contiguous partitions for Lemma 1 (strengthening Section 4.2's
// balanced k-partitions).
//
// For a fixed evaluation order X, Lemma 1 holds for EVERY partition of X
// into contiguous segments, so the strongest per-order statement is
//
//   J(X)  ≥  max_{P ∈ P_X}  Σ_{S ∈ P} (|R_S| + |W_S|)  −  2M|P|
//
// The paper relaxes the max to balanced k-partitions (which is what makes
// the spectral step possible); this module computes the true max by
// dynamic programming over segment breakpoints in O(n² + n·E):
//
//   f(j) = max_{i < j}  f(i) + cost(i, j) − 2M,      f(0) = 0,
//
// where cost(i, j) = |R| + |W| of the segment holding positions [i, j).
// Per left anchor i the segment costs extend incrementally in O(1)
// amortized (stamped distinct-parent counting for R; last-consumer
// buckets for W). The costs do not depend on M — only the flat 2M charge
// per segment does — so a list of memories shares one cost extension per
// anchor and updates one f row per memory, each with exactly the
// arithmetic of a one-memory run.
//
// The result lower-bounds J(X) for that specific order — not J*(G) —
// so it serves as (a) a per-schedule certificate ("this order cannot do
// better than ..."), and (b) a tighter adversary for the relaxation
// ablation when minimized over sampled orders.
#pragma once

#include <cstdint>
#include <vector>

#include "graphio/graph/digraph.hpp"

namespace graphio {

struct OptimalPartitionResult {
  /// max(0, best partition objective) — a lower bound on J(X).
  double bound = 0.0;
  /// Number of segments in the maximizing partition (0 when bound is 0).
  std::int64_t segments = 0;
  /// Breakpoints of the maximizing partition: positions where segments
  /// start, ascending, beginning with 0 (empty when bound is 0).
  std::vector<std::int64_t> breakpoints;
  /// The raw optimum f(n), unclamped — negative when even the best
  /// partition loses to the 2M-per-segment charge. Per-component
  /// composition needs the sign-carrying value: segment costs are
  /// additive across weak components (no cross edges), so for a
  /// component-concatenated order the whole-graph optimum is
  /// Σ_c objective_c + 2M·(k−1), the boundary merges refunding one
  /// segment charge per seam.
  double objective = 0.0;
  /// Segments of the unclamped maximizing partition (equals `segments`
  /// whenever objective > 0; still meaningful when it is not).
  std::int64_t objective_segments = 0;
};

/// Evaluates the Lemma 1 objective at the optimal contiguous partition of
/// `order` (must be topological) at every entry of `memories` (any order,
/// duplicates allowed; each ≥ 0), one result per entry — bit-identical to
/// a one-memory call. O(n² · |memories| + n·E) time, O(n · |memories|)
/// extra space.
std::vector<OptimalPartitionResult> optimal_lemma1_bound(
    const Digraph& g, const std::vector<VertexId>& order,
    const std::vector<double>& memories);

/// The one-memory form of the list evaluation above.
OptimalPartitionResult optimal_lemma1_bound(
    const Digraph& g, const std::vector<VertexId>& order, double memory);

}  // namespace graphio
