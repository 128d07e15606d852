// BoundRequest — one unit of analysis work for the Engine: a graph, a
// memory sweep, a processor count, a method set, and per-method options.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graphio/core/spectral_bound.hpp"
#include "graphio/exact/pebble_search.hpp"
#include "graphio/flow/convex_mincut.hpp"
#include "graphio/graph/digraph.hpp"

namespace graphio::engine {

struct BoundRequest {
  /// Graph family/file spec (see graph_spec.hpp). Ignored when `graph` is
  /// set, except as a display name and as family metadata for the
  /// closed-form method.
  std::string spec;
  /// Explicit graph; takes precedence over `spec`. Requests carrying an
  /// explicit graph are evaluated against a private cache.
  std::optional<Digraph> graph;
  /// Display label; defaults to `spec` (or "<graph>").
  std::string name;

  /// Fast-memory sizes to evaluate (the M sweep). Must be non-empty.
  std::vector<double> memories;
  /// Processor count for the Theorem 6 ("parallel") method.
  std::int64_t processors = 1;
  /// Method ids (see engine::methods()). Empty, or containing "all",
  /// selects every registered method.
  std::vector<std::string> methods;

  /// Soft deadline in seconds (0 = none): one budget for the whole
  /// evaluation, whose every spectrum merge skips the component solves
  /// left once it has elapsed (SpectrumMerge) — a certified, degraded
  /// lower bound instead of a wait. In no cache or store key. Min-cut
  /// sweeps keep mincut.time_budget_seconds.
  double deadline_seconds = 0.0;

  // Per-method options, passed through verbatim.
  SpectralOptions spectral;
  flow::ConvexMinCutOptions mincut;
  exact::ExactOptions exact;
  /// Random schedules sampled by the "memsim" upper bound.
  int sim_random_orders = 4;

  [[nodiscard]] std::string display_name() const {
    if (!name.empty()) return name;
    if (!spec.empty()) return spec;
    return "<graph>";
  }
};

}  // namespace graphio::engine
