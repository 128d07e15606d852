// Figure 7: I/O lower bound for the 2^l-point FFT.
//   (top)    bound vs l, spectral + convex min-cut, M ∈ {4, 8, 16}
//   (bottom) bound vs the growth term l·2^l — should be near-linear, the
//            paper's evidence that the spectral bound tracks the published
//            Ω(l·2^l/log M) shape.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Figure 7: FFT I/O bound vs graph size",
                      "Jain & Zaharia SPAA'20, Figure 7", args);

  bench::RunOptions options;
  int l_max = 10;                       // n = 11·1024 = 11264 (Lanczos path)
  options.mincut_max_vertices = 700;    // min-cut O(n·maxflow) explodes beyond
  options.mincut_budget_seconds = 60.0;
  if (args.scale == bench::BenchScale::kQuick) {
    l_max = 6;
    options.mincut_max_vertices = 200;
    options.mincut_budget_seconds = 10.0;
  } else if (args.scale == bench::BenchScale::kPaper) {
    l_max = 12;                         // the paper's full range
    options.mincut_max_vertices = 1600;
    options.mincut_budget_seconds = 3600.0;
  }

  const std::vector<double> memories{4.0, 8.0, 16.0};

  std::vector<std::string> header{"l", "n", "l*2^l"};
  for (double m : memories) {
    header.push_back("spectral M=" + format_double(m, 0));
    header.push_back("mincut M=" + format_double(m, 0));
    header.push_back("bound/(l*2^l) M=" + format_double(m, 0));
  }
  Table table(std::move(header));

  for (int l = 3; l <= l_max; ++l) {
    const std::string spec = "fft:" + std::to_string(l);
    // One Engine request per graph: the eigendecomposition and the min-cut
    // wavefront sweep are each computed once and reused across all M.
    const engine::BoundReport report =
        bench::run(spec, memories, {"spectral", "mincut"}, options);
    std::vector<std::string> row{format_int(l), format_int(report.vertices),
                                 format_double(published::fft_growth(l), 0)};
    const std::int64_t in_degree =
        bench::shared_engine().graph(spec).max_in_degree();
    for (double m : memories) {
      if (static_cast<double>(in_degree) > m) {
        row.insert(row.end(), {"-", "-", "-"});  // paper's feasibility rule
        continue;
      }
      const double spectral = bench::cell(report, "spectral", m);
      row.push_back(format_double(spectral, 1));
      row.push_back(format_double(bench::cell(report, "mincut", m), 1));
      row.push_back(format_double(spectral / published::fft_growth(l), 4));
    }
    table.add_row(std::move(row));
  }
  bench::finish(table, args);

  std::cout << "Shape checks (paper, Section 6.4):\n"
               "  * spectral > mincut at equal M for all plotted l\n"
               "  * bound/(l*2^l) column roughly flat -> linear growth in "
               "the Hong-Kung term\n"
               "  * '-' cells: min-cut past cutoff (paper cut off at 1 day) "
               "or M < max in-degree\n";
  return 0;
}
