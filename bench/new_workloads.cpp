// Generality study: the spectral bound on HPC kernel families beyond the
// paper's four evaluation graphs. The paper's pitch is that the method
// applies to *arbitrary* computations — and its §5.3 caveat is that it
// "can perform well on most graphs with high connectivity". This bench
// measures both halves of that sentence.
//
// For each workload: spectral Theorem-4 bound, the convex min-cut
// baseline, and the best simulated schedule (an upper bound on J*), at
// two memory sizes per family. Not a paper figure.
//
// Shape to expect: spectral ≤ best schedule everywhere (soundness). These
// kernels are *low-expansion* — stencils, scans and triangular solves have
// grid/tree-like cuts, so Σ_{i≤k} λ_i stays tiny and the spectral bound is
// near-trivial, while the *local* min-cut baseline keeps a nontrivial
// wavefront bound. This is the mirror image of the paper's Figures 7–10
// (expander-like families where spectral dominates): which automatic bound
// wins is a function of graph expansion, not of bound quality per se.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("New workloads: spectral bound beyond the paper set",
                      "generality study (no paper figure)", args);

  struct Case {
    std::string name;
    Digraph graph;
    std::vector<double> memories;
  };
  std::vector<Case> cases;
  auto add = [&cases](std::string name, Digraph g,
                      std::vector<double> memories) {
    cases.push_back({std::move(name), std::move(g), std::move(memories)});
  };

  if (args.scale == bench::BenchScale::kQuick) {
    add("stencil1d 32x16", builders::stencil1d(32, 16), {4, 16});
    add("stencil2d 8x8x4", builders::stencil2d(8, 8, 4), {8, 16});
    add("prefix scan 2^6", builders::prefix_scan(6), {4, 16});
    add("bitonic 2^4", builders::bitonic_sort(4), {4, 16});
    add("trisolve n=12", builders::triangular_solve(12), {4, 16});
    add("cholesky n=10", builders::cholesky(10), {4, 16});
  } else {
    add("stencil1d 64x48", builders::stencil1d(64, 48), {4, 16});
    add("stencil1d 128x64", builders::stencil1d(128, 64), {4, 16});
    add("stencil2d 16x16x8", builders::stencil2d(16, 16, 8), {8, 32});
    add("prefix scan 2^9", builders::prefix_scan(9), {4, 16});
    add("bitonic 2^5", builders::bitonic_sort(5), {4, 16});
    add("trisolve n=24", builders::triangular_solve(24), {4, 16});
    add("cholesky n=16", builders::cholesky(16), {4, 16});
    if (args.scale == bench::BenchScale::kPaper) {
      add("stencil2d 24x24x12", builders::stencil2d(24, 24, 12), {8, 32});
      add("bitonic 2^6", builders::bitonic_sort(6), {4, 16});
      add("cholesky n=24", builders::cholesky(24), {4, 16});
    }
  }

  Table table({"workload", "n", "edges", "max in-deg", "M", "spectral",
               "best k", "mincut", "best schedule", "spectral/upper"});
  for (const Case& c : cases) {
    const std::vector<SpectralBound> spectral =
        spectral_bounds(c.graph, c.memories);
    for (std::size_t i = 0; i < c.memories.size(); ++i) {
      const double m = c.memories[i];
      if (static_cast<double>(c.graph.max_in_degree()) > m) continue;
      const double mincut = bench::mincut_or_nan(c.graph, m, 3000, 60.0);
      const auto upper =
          sim::best_schedule_io(c.graph, static_cast<std::int64_t>(m));
      const double ratio =
          upper.total() > 0
              ? spectral[i].bound / static_cast<double>(upper.total())
              : 1.0;
      table.add_row({c.name, format_int(c.graph.num_vertices()),
                     format_int(c.graph.num_edges()),
                     format_int(c.graph.max_in_degree()), format_double(m, 0),
                     format_double(spectral[i].bound, 1),
                     format_int(spectral[i].best_k), format_double(mincut, 1),
                     format_int(upper.total()), format_double(ratio, 3)});
    }
  }
  bench::finish(table, args);

  std::cout << "Shape checks:\n"
               "  * spectral <= best schedule on every row (soundness)\n"
               "  * spectral is near-trivial here: these kernels have "
               "low expansion (grid/tree-like cuts -> tiny lambda_i), the "
               "regime the paper's 5.3 caveat predicts\n"
               "  * convex min-cut, being local, keeps a nontrivial bound "
               "on the same rows - the two automatic methods are "
               "complementary, split by graph expansion\n"
               "  * '-' cells: min-cut past its size cutoff\n";
  return 0;
}
