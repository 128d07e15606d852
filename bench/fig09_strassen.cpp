// Figure 9: I/O lower bound for Strassen multiplication.
//   (top)    bound vs n, spectral + convex min-cut, M ∈ {8, 16}
//   (bottom) bound vs n^{log₂7} (Ballard et al.'s growth term)
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Figure 9: Strassen I/O bound vs matrix size",
                      "Jain & Zaharia SPAA'20, Figure 9", args);

  bench::RunOptions options;
  int n_max = 16;
  options.mincut_max_vertices = 3000;
  options.mincut_budget_seconds = 60.0;
  if (args.scale == bench::BenchScale::kQuick) {
    n_max = 8;
    options.mincut_max_vertices = 700;
    options.mincut_budget_seconds = 10.0;
  } else if (args.scale == bench::BenchScale::kPaper) {
    n_max = 32;  // one size past the paper's 16 — the method scales
    options.mincut_budget_seconds = 600.0;
  }

  const std::vector<double> memories{8.0, 16.0};

  std::vector<std::string> header{"n", "vertices", "n^log2(7)"};
  for (double m : memories) {
    header.push_back("spectral M=" + format_double(m, 0));
    header.push_back("mincut M=" + format_double(m, 0));
    header.push_back("bound/growth M=" + format_double(m, 0));
  }
  Table table(std::move(header));

  for (int n = 4; n <= n_max; n *= 2) {
    const std::string spec = "strassen:" + std::to_string(n);
    const double growth = published::strassen_growth(n);
    // Strassen's recursive graph has a tightly clustered near-zero
    // spectrum that defeats Krylov solvers without shift-invert (the
    // authors used ARPACK's shift-invert eigsh); past the dense-rescue
    // size we either pay the dense path (paper scale) or report "nc".
    bench::RunOptions run_options = options;
    if (args.scale == bench::BenchScale::kPaper &&
        bench::shared_engine().graph(spec).num_vertices() > 4096)
      run_options.spectral.solver = la::SolverKind::kDense;
    const engine::BoundReport report =
        bench::run(spec, memories, {"spectral", "mincut"}, run_options);
    const std::int64_t in_degree =
        bench::shared_engine().graph(spec).max_in_degree();
    std::vector<std::string> row{format_int(n), format_int(report.vertices),
                                 format_double(growth, 0)};
    for (double m : memories) {
      if (static_cast<double>(in_degree) > m) {
        row.insert(row.end(), {"-", "-", "-"});
        continue;
      }
      const engine::MethodRow* spectral = report.row("spectral", m);
      // "nc": the solver certified nothing (no spectrum prefix at all);
      // a partial prefix still yields a valid, just weaker, bound.
      const engine::ArtifactCache* cache = bench::shared_engine().cache(spec);
      bool certified = spectral != nullptr && spectral->converged;
      if (spectral != nullptr && !certified && cache != nullptr) {
        const auto& spectra = cache->cached_spectra();
        const auto it = spectra.find(LaplacianKind::kOutDegreeNormalized);
        certified = it != spectra.end() && !it->second.values.empty();
      }
      row.push_back(certified ? format_double(spectral->value, 1) : "nc");
      row.push_back(format_double(bench::cell(report, "mincut", m), 1));
      row.push_back(certified ? format_double(spectral->value / growth, 4)
                              : "nc");
    }
    table.add_row(std::move(row));
  }
  bench::finish(table, args);

  std::cout << "Shape checks (paper, Section 6.4):\n"
               "  * spectral above mincut at every plotted point\n"
               "  * bound/growth column roughly flat -> the bound tracks "
               "Ballard et al.'s Omega((n/sqrt(M))^log2(7) * M) shape\n"
               "  * 'nc': the Krylov solver could not certify the clustered "
               "near-zero Strassen spectrum at this size; "
               "--scale paper switches to the exact dense path\n";
  return 0;
}
