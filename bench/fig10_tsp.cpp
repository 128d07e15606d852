// Figure 10: I/O lower bound for the Bellman–Held–Karp TSP dynamic
// program (boolean hypercube).
//   (top)    bound vs city count l, spectral + convex min-cut,
//            M ∈ {16, 32, 64}
//   (bottom) bound vs 2^l/l — the paper's own §5.1-derived growth term.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Figure 10: Bellman-Held-Karp (TSP) I/O bound",
                      "Jain & Zaharia SPAA'20, Figure 10", args);

  int l_max = 13;                 // n = 8192 (Lanczos path)
  std::int64_t mincut_cap = 600;  // per-vertex max-flows explode (Fig. 11)
  double mincut_budget = 60.0;
  if (args.scale == bench::BenchScale::kQuick) {
    l_max = 9;
    mincut_cap = 260;
    mincut_budget = 10.0;
  } else if (args.scale == bench::BenchScale::kPaper) {
    l_max = 15;                   // the paper's full range (n = 32768)
    mincut_cap = 1100;
    mincut_budget = 3600.0;
  }

  const std::vector<double> memories{16.0, 32.0, 64.0};

  std::vector<std::string> header{"l", "n", "2^l/l"};
  for (double m : memories) {
    header.push_back("spectral M=" + format_double(m, 0));
    header.push_back("mincut M=" + format_double(m, 0));
  }
  header.push_back("closed form a=1 (M=16)");
  Table table(std::move(header));

  for (int l = 6; l <= l_max; ++l) {
    const Digraph g = builders::bhk_hypercube(l);
    std::vector<std::string> row{format_int(l), format_int(g.num_vertices()),
                                 format_double(published::bhk_growth(l), 1)};
    // One eigendecomposition serves every memory size (spectra are M-free).
    const std::vector<SpectralBound> spectral = spectral_bounds(g, memories);
    for (std::size_t i = 0; i < memories.size(); ++i) {
      const double m = memories[i];
      if (static_cast<double>(g.max_in_degree()) > m) {
        row.insert(row.end(), {"-", "-"});
        continue;
      }
      row.push_back(format_double(spectral[i].bound, 1));
      row.push_back(format_double(
          bench::mincut_or_nan(g, m, mincut_cap, mincut_budget), 1));
    }
    row.push_back(
        format_double(std::max(0.0, analytic::bhk_bound_alpha1(l, 16.0)), 1));
    table.add_row(std::move(row));
  }
  bench::finish(table, args);

  std::cout << "Shape checks (paper, Section 6.4):\n"
               "  * spectral above mincut at equal M once l clears the "
               "in-degree rule\n"
               "  * spectral column roughly linear vs the 2^l/l column\n"
               "  * machine bound dominates the alpha=1 closed form (the "
               "solver optimizes k)\n";
  return 0;
}
