// Ablation: eigensolver backend for the spectral bound.
//
// Four routes to the smallest h Laplacian eigenvalues:
//   dense    — Householder + implicit-shift QL, O(n³), exact;
//   lanczos  — block thick-restart Lanczos with Chebyshev filtering;
//   lobpcg   — block LOBPCG, Rayleigh–Ritz on span[X, R, P];
//   power    — deflated power iteration on σI − A (the abstract's
//              "efficiently computable by power iteration" baseline).
// This bench reports wall time and the resulting Theorem-4 bound per
// route, as the evidence behind the thresholds of la::choose_solver's
// "auto" policy (README "Solver policy").
//
// Shape to expect: dense wins below ~2k vertices; Lanczos wins beyond and
// keeps the bound within a fraction of a percent of dense; LOBPCG tracks
// Lanczos at small h but pays a dense 3b×3b Rayleigh–Ritz per iteration;
// plain power iteration trails both by orders of magnitude in matvecs.
#include "bench_common.hpp"

#include "graphio/la/power_iteration.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Ablation: eigensolver backend (dense / Lanczos / power)",
                      "backend-selection policy for Theorem 4", args);

  struct Case {
    std::string name;
    Digraph graph;
    double memory;
  };
  std::vector<Case> cases;
  cases.push_back({"fft l=6", builders::fft(6), 2.0});
  cases.push_back({"bhk l=9", builders::bhk_hypercube(9), 8.0});
  if (args.scale != bench::BenchScale::kQuick) {
    cases.push_back({"fft l=8", builders::fft(8), 2.0});
    cases.push_back({"er n=2000 p=.004", builders::erdos_renyi_dag(2000, 0.004, 11), 8.0});
  }
  if (args.scale == bench::BenchScale::kPaper) {
    cases.push_back({"bhk l=12", builders::bhk_hypercube(12), 16.0});
    cases.push_back({"fft l=9", builders::fft(9), 4.0});
  }

  const int h = 16;  // eigenvalue budget (ablation_k shows this suffices)
  Table table({"case", "n", "dense bound", "dense s", "lanczos bound",
               "lanczos s", "lanczos matvecs", "lobpcg bound", "lobpcg s",
               "lobpcg matvecs", "power bound", "power s", "power matvecs"});

  for (const Case& c : cases) {
    std::vector<std::string> row{c.name, format_int(c.graph.num_vertices())};
    // Dense.
    {
      SpectralOptions opts;
      opts.solver = la::SolverKind::kDense;
      opts.max_eigenvalues = h;
      const SpectralBound b = spectral_bound(c.graph, c.memory, opts);
      row.push_back(format_double(b.bound, 2));
      row.push_back(format_double(b.seconds, 2));
    }
    // Lanczos.
    {
      SpectralOptions opts;
      opts.solver = la::SolverKind::kLanczos;
      opts.max_eigenvalues = h;
      WallTimer timer;
      const la::CsrMatrix lap =
          laplacian(c.graph, LaplacianKind::kOutDegreeNormalized);
      la::LanczosOptions lopts;
      lopts.rel_tol = 1e-6;
      const la::LanczosResult res = la::smallest_eigenvalues(lap, h, lopts);
      std::vector<double> certified;
      for (std::size_t i = 0; i < res.values.size(); ++i)
        certified.push_back(
            std::max(0.0, res.values[i] - res.residuals[i]));
      std::sort(certified.begin(), certified.end());
      const BoundOverK b = bound_from_spectrum(
          certified, c.graph.num_vertices(), c.memory);
      row.push_back(format_double(b.bound, 2));
      row.push_back(format_double(timer.seconds(), 2));
      row.push_back(format_int(res.matvecs));
    }
    // LOBPCG.
    {
      WallTimer timer;
      const la::CsrMatrix lap =
          laplacian(c.graph, LaplacianKind::kOutDegreeNormalized);
      la::LobpcgOptions lopts;
      lopts.rel_tol = 1e-6;
      const la::LobpcgResult res = la::lobpcg_smallest(lap, h, lopts);
      std::vector<double> certified;
      for (std::size_t i = 0; i < res.values.size(); ++i)
        certified.push_back(
            std::max(0.0, res.values[i] - res.residuals[i]));
      std::sort(certified.begin(), certified.end());
      const BoundOverK b = bound_from_spectrum(
          certified, c.graph.num_vertices(), c.memory);
      row.push_back(format_double(b.bound, 2));
      row.push_back(format_double(timer.seconds(), 2));
      row.push_back(format_int(res.matvecs));
    }
    // Power iteration (skipped at sizes where it would dominate runtime).
    if (c.graph.num_vertices() <= 3000) {
      WallTimer timer;
      const la::CsrMatrix lap =
          laplacian(c.graph, LaplacianKind::kOutDegreeNormalized);
      la::PowerOptions popts;
      popts.rel_tol = 1e-5;
      popts.max_iterations = 20000;
      const la::PowerResult res =
          la::power_smallest_eigenvalues(lap, h, popts);
      std::vector<double> certified;
      for (std::size_t i = 0; i < res.values.size(); ++i)
        certified.push_back(
            std::max(0.0, res.values[i] - res.residuals[i]));
      std::sort(certified.begin(), certified.end());
      const BoundOverK b = bound_from_spectrum(
          certified, c.graph.num_vertices(), c.memory);
      row.push_back(format_double(b.bound, 2));
      row.push_back(format_double(timer.seconds(), 2));
      row.push_back(format_int(res.matvecs));
    } else {
      row.insert(row.end(), {"-", "-", "-"});
    }
    table.add_row(std::move(row));
  }
  bench::finish(table, args);

  std::cout << "Shape checks:\n"
               "  * all four backends agree on the bound where they "
               "converge (certified estimates are conservative)\n"
               "  * lanczos uses far fewer matvecs than power at equal "
               "accuracy; lobpcg sits between them at small h\n";
  return 0;
}
