// Ablation (paper Section 6.5): how many Laplacian eigenvalues does the
// bound actually need? The paper fixes h = 100 and observes that the
// maximizing k stays far below it; this bench sweeps the eigenvalue
// budget h and reports the bound and the argmax k at each budget, across
// the four evaluation families.
//
// Shape to expect: the bound saturates at small h (usually ≤ 32); the
// h = 100 column matches the saturated value, so capping h loses nothing.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Ablation: eigenvalue budget h vs bound (Section 6.5)",
                      "Jain & Zaharia SPAA'20, Section 6.5", args);

  struct Case {
    std::string name;
    Digraph graph;
    double memory;
  };
  std::vector<Case> cases;
  cases.push_back({"fft l=7 M=2", builders::fft(7), 2.0});
  cases.push_back({"bhk l=9 M=8", builders::bhk_hypercube(9), 8.0});
  cases.push_back({"matmul n=8 M=16", builders::naive_matmul(8), 16.0});
  cases.push_back({"strassen n=8 M=8", builders::strassen_matmul(8), 8.0});
  if (args.scale == bench::BenchScale::kPaper) {
    cases.push_back({"fft l=9 M=4", builders::fft(9), 4.0});
    cases.push_back({"bhk l=12 M=16", builders::bhk_hypercube(12), 16.0});
  }

  const std::vector<int> budgets{2, 4, 8, 16, 32, 64, 100};
  std::vector<std::string> header{"case", "n"};
  for (int h : budgets) header.push_back("h=" + format_int(h));
  header.push_back("best k @h=100");
  Table table(std::move(header));

  for (const Case& c : cases) {
    std::vector<std::string> row{c.name, format_int(c.graph.num_vertices())};
    int final_k = 0;
    for (int h : budgets) {
      SpectralOptions opts;
      opts.max_eigenvalues = h;
      const SpectralBound b = spectral_bound(c.graph, c.memory, opts);
      row.push_back(format_double(b.bound, 1));
      if (h == 100) final_k = b.best_k;
    }
    row.push_back(format_int(final_k));
    table.add_row(std::move(row));
  }
  bench::finish(table, args);

  std::cout
      << "Shape checks:\n"
         "  * rows saturate well before h=100 (paper: best k << 100)\n"
         "  * columns are non-decreasing in h (more eigenvalues never "
         "hurt)\n";
  return 0;
}
