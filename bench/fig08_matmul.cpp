// Figure 8: I/O lower bound for naive n×n matrix multiplication.
//   (top)    bound vs n, spectral + convex min-cut, M ∈ {32, 64, 128}
//   (bottom) bound vs n³ (the Irony–Toledo–Tiskin Ω(n³/√M) growth term)
//
// The paper's caption notes max in-degree n (the traced dot products are
// n-ary sums); points with n > M are therefore not displayed. The paper
// also finds the convex min-cut baseline *trivial* (0) on this family —
// the mincut columns reproduce that.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Figure 8: naive matmul I/O bound vs matrix size",
                      "Jain & Zaharia SPAA'20, Figure 8", args);

  bench::RunOptions options;
  int n_max = 40;
  options.mincut_max_vertices = 4000;
  options.mincut_budget_seconds = 60.0;
  if (args.scale == bench::BenchScale::kQuick) {
    n_max = 16;
    options.mincut_max_vertices = 1500;
    options.mincut_budget_seconds = 10.0;
  } else if (args.scale == bench::BenchScale::kPaper) {
    n_max = 64;
    options.mincut_max_vertices = 8000;
    options.mincut_budget_seconds = 600.0;
  }

  const std::vector<double> memories{32.0, 64.0, 128.0};

  std::vector<std::string> header{"n", "vertices", "n^3"};
  for (double m : memories) {
    header.push_back("spectral M=" + format_double(m, 0));
    header.push_back("mincut M=" + format_double(m, 0));
  }
  Table table(std::move(header));

  for (int n = 4; n <= n_max; n += 4) {
    const std::string spec = "matmul:" + std::to_string(n);
    const engine::BoundReport report =
        bench::run(spec, memories, {"spectral", "mincut"}, options);
    std::vector<std::string> row{
        format_int(n), format_int(report.vertices),
        format_double(published::matmul_growth(n), 0)};
    for (double m : memories) {
      if (static_cast<double>(n) > m) {  // max in-degree is n (n-ary sums)
        row.insert(row.end(), {"-", "-"});
        continue;
      }
      row.push_back(format_double(bench::cell(report, "spectral", m), 1));
      row.push_back(format_double(bench::cell(report, "mincut", m), 1));
    }
    table.add_row(std::move(row));
  }
  bench::finish(table, args);

  std::cout << "Shape checks (paper, Section 6.4):\n"
               "  * mincut columns are 0 — the baseline is trivial on naive "
               "matmul (paper's finding)\n"
               "  * spectral bound grows with n and stays positive, roughly "
               "linear vs the n^3 column\n";
  return 0;
}
