// Section 5.3: Erdős–Rényi random graphs — the probabilistic closed form
// vs machine-computed spectral bounds on sampled graphs, in both regimes:
//   sparse  p = p0·log n/(n−1), p0 > 6  (graph barely connected)
//   dense   np/log n → ∞                (graph essentially regular)
#include <cmath>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Section 5.3: Erdos-Renyi probabilistic bounds",
                      "Jain & Zaharia SPAA'20, Section 5.3", args);

  const std::int64_t n_max =
      args.scale == bench::BenchScale::kQuick ? 400 : 1200;
  const double memory = 8.0;
  const int samples = args.scale == bench::BenchScale::kPaper ? 5 : 3;

  {
    std::cout << "Sparse regime p = p0 log n/(n-1), p0 = 24, M=" << memory
              << " (bounds averaged over " << samples << " samples):\n";
    Table table({"n", "p", "machine Thm5 (k=2..h)", "closed form (k=2)",
                 "machine/closed"});
    for (std::int64_t n = 200; n <= n_max; n += n >= 800 ? 400 : 200) {
      const double p0 = 24.0;
      const double p =
          p0 * std::log(static_cast<double>(n)) / static_cast<double>(n - 1);
      double machine = 0.0;
      for (int s = 0; s < samples; ++s) {
        const Digraph g = builders::erdos_renyi_dag(n, p, 100 + s);
        machine += spectral_bound_plain(g, memory).bound;
      }
      machine /= samples;
      const double closed = analytic::er_sparse_bound(n, p0, memory);
      table.add_row({format_int(n), format_double(p, 4),
                     format_double(machine, 1), format_double(closed, 1),
                     format_double(machine / closed, 3)});
    }
    bench::finish(table, args);
  }

  {
    std::cout << "Dense regime p = 0.25 (np/log n large), M=" << memory
              << ":\n";
    Table table({"n", "machine Thm5", "closed form n/2-4M",
                 "machine/closed"});
    for (std::int64_t n = 200; n <= n_max; n += n >= 800 ? 400 : 200) {
      double machine = 0.0;
      for (int s = 0; s < samples; ++s) {
        const Digraph g = builders::erdos_renyi_dag(n, 0.25, 500 + s);
        machine += spectral_bound_plain(g, memory).bound;
      }
      machine /= samples;
      const double closed = analytic::er_dense_bound(n, memory);
      table.add_row({format_int(n), format_double(machine, 1),
                     format_double(closed, 1),
                     format_double(machine / closed, 3)});
    }
    bench::finish(table, args);
  }

  std::cout << "Shape checks (Section 5.3): machine bounds scale linearly "
               "in n in both regimes and\nstay within a constant of the "
               "probabilistic closed forms (which keep only leading "
               "terms).\n";
  return 0;
}
