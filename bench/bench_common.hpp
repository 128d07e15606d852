// Shared scaffolding for the figure-reproduction benches, built on the
// unified engine::Engine so every bench resolves graphs, dispatches
// methods, and shares artifacts (spectra, wavefront cut sweeps) the same
// way the CLI does.
#pragma once

#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "graphio/graphio.hpp"

namespace graphio::bench {

/// Problem-size preset of a bench run:
///   quick   — smoke-test sizes (CI)
///   default — every figure reproduced at sizes that finish in minutes
///   paper   — the full parameter ranges from the paper (minutes to hours)
enum class BenchScale { kQuick, kDefault, kPaper };

std::string to_string(BenchScale scale);

/// Command line: every figure bench accepts `--csv <path>` (mirror rows to
/// CSV) and `--scale quick|default|paper`.
struct BenchArgs {
  std::string csv_path;
  BenchScale scale = BenchScale::kDefault;

  static BenchArgs parse(int argc, char** argv);
};

/// Prints the standard bench header (name, paper anchor, scale).
void print_header(const std::string& title, const std::string& anchor,
                  const BenchArgs& args);

/// The Engine shared by one bench process. Spec-addressed artifacts
/// persist across rows and figures, so e.g. the fft:10 spectrum computed
/// for one table section is reused by the next.
engine::Engine& shared_engine();

/// Knobs the scale presets tune per figure.
struct RunOptions {
  /// Wall-clock cutoff for the min-cut wavefront sweep (the paper cut the
  /// baseline off at 1 day).
  double mincut_budget_seconds = std::numeric_limits<double>::infinity();
  /// Skip the "mincut" method entirely beyond this vertex count (its
  /// O(n · maxflow) sweep explodes); the report then has no mincut rows
  /// and cell() renders "-".
  std::int64_t mincut_max_vertices =
      std::numeric_limits<std::int64_t>::max();
  SpectralOptions spectral;
};

/// Evaluates `methods` over `memories` for `spec` through shared_engine().
engine::BoundReport run(const std::string& spec,
                        std::vector<double> memories,
                        std::vector<std::string> methods,
                        const RunOptions& options = {});

/// The bound of (method, memory) in a report, or NaN — rendered "-" by
/// format_double — when the row is absent, inapplicable, or a cut-off
/// min-cut sweep (matching the paper's missing points).
double cell(const engine::BoundReport& report, std::string_view method,
            double memory);

/// Legacy convenience for benches that build graphs directly: the convex
/// min-cut baseline with a cap and budget; NaN past either limit. Routed
/// through a private Engine request.
double mincut_or_nan(const Digraph& g, double memory,
                     std::int64_t max_vertices, double budget_seconds);

/// Finishes a bench: print table, optionally write CSV.
void finish(Table& table, const BenchArgs& args);

}  // namespace graphio::bench
