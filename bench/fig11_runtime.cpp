// Figure 11: runtime of computing the bound for the l-city TSP hypercube —
// the spectral method stays near-flat while convex min-cut explodes
// (the paper measured 98 s vs 8.5 h at l = 15 on their machine; absolute
// numbers differ on other hardware, the explosion shape is the result).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Figure 11: bound computation runtime (l-city TSP)",
                      "Jain & Zaharia SPAA'20, Figure 11", args);

  int l_max = 12;
  int mincut_l_max = 9;
  double mincut_budget = 120.0;
  if (args.scale == bench::BenchScale::kQuick) {
    l_max = 9;
    mincut_l_max = 7;
    mincut_budget = 15.0;
  } else if (args.scale == bench::BenchScale::kPaper) {
    l_max = 15;
    mincut_l_max = 11;
    mincut_budget = 3600.0;
  }

  const double memory = 16.0;
  Table table({"l", "n", "spectral (s)", "mincut (s)", "mincut/spectral"});

  for (int l = 6; l <= l_max; ++l) {
    const Digraph g = builders::bhk_hypercube(l);

    WallTimer spectral_timer;
    (void)spectral_bound(g, memory);
    const double spectral_seconds = spectral_timer.seconds();

    double mincut_seconds = std::nan("");
    if (l <= mincut_l_max) {
      flow::ConvexMinCutOptions options;
      options.time_budget_seconds = mincut_budget;
      WallTimer mincut_timer;
      const auto result = flow::convex_mincut_bound(g, memory, options);
      if (result.completed) mincut_seconds = mincut_timer.seconds();
    }

    table.add_row({format_int(l), format_int(g.num_vertices()),
                   format_double(spectral_seconds, 3),
                   format_double(mincut_seconds, 3),
                   format_double(mincut_seconds / spectral_seconds, 1)});
  }
  bench::finish(table, args);

  std::cout << "Shape check (paper, Section 6.5): the mincut/spectral ratio "
               "explodes with l\n(the paper: 98 s vs 8.5 h at l=15); '-' = "
               "past cutoff, exactly like the paper's 1-day cap.\n";
  return 0;
}
