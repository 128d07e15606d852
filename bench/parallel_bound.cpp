// Theorem 6 (parallel spectral bound): per-processor I/O lower bound as a
// function of the processor count p. The paper derives the bound but does
// not plot it; this bench completes the contribution with a table across
// the evaluation families, sandwiched from above by the p-processor
// execution simulator (busiest-processor I/O of the best partitioned
// schedule, marked "sim").
//
// Shape to expect: the bound decreases roughly like ⌊n/(kp)⌋ (work spread
// over more processors means each one can incur less I/O), never
// increases with p, and stays positive while n/(kp) dominates 2kM; every
// bound column sits below its "sim" column.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Theorem 6: parallel per-processor I/O bound vs processor count",
      "Jain & Zaharia SPAA'20, Section 4.4 (no paper figure)", args);

  struct Case {
    std::string name;
    Digraph graph;
    double memory;
  };
  std::vector<Case> cases;
  if (args.scale == bench::BenchScale::kQuick) {
    cases.push_back({"fft l=6", builders::fft(6), 2.0});
    cases.push_back({"bhk l=8", builders::bhk_hypercube(8), 4.0});
  } else {
    cases.push_back({"fft l=8", builders::fft(8), 2.0});
    cases.push_back({"bhk l=10", builders::bhk_hypercube(10), 8.0});
    cases.push_back({"matmul n=10", builders::naive_matmul(10), 16.0});
    if (args.scale == bench::BenchScale::kPaper) {
      cases.push_back({"fft l=10", builders::fft(10), 2.0});
      cases.push_back({"bhk l=12", builders::bhk_hypercube(12), 8.0});
    }
  }

  const std::vector<std::int64_t> procs{1, 2, 4, 8, 16, 32};
  std::vector<std::string> header{"graph", "n", "M"};
  for (std::int64_t p : procs) {
    header.push_back("p=" + format_int(p));
    header.push_back("sim p=" + format_int(p));
  }
  Table table(std::move(header));

  for (const Case& c : cases) {
    std::vector<std::string> row{c.name, format_int(c.graph.num_vertices()),
                                 format_double(c.memory, 0)};
    double previous = std::numeric_limits<double>::infinity();
    for (std::int64_t p : procs) {
      const SpectralBound b = parallel_spectral_bound(c.graph, c.memory, p);
      row.push_back(format_double(b.bound, 1));
      // Monotonicity sanity (printed bounds must not increase with p).
      if (b.bound > previous + 1e-9)
        row.back() += "!";  // flags a violation in the table itself
      previous = b.bound;
      if (static_cast<double>(c.graph.max_in_degree()) > c.memory) {
        // The bound is still valid below the feasibility line, but no
        // execution exists to simulate (operands cannot fit at once).
        row.push_back("-");
        continue;
      }
      const sim::ParallelSimResult upper = sim::best_parallel_schedule_io(
          c.graph, static_cast<std::int64_t>(c.memory), p);
      row.push_back(format_int(upper.max_total()));
      if (b.bound > static_cast<double>(upper.max_total()) + 1e-9)
        row.back() += "!";  // soundness violation flag
    }
    table.add_row(std::move(row));
  }
  bench::finish(table, args);

  std::cout << "Shape checks:\n"
               "  * each bound row is non-increasing in p (per-processor "
               "bound); '!' flags a violation\n"
               "  * p=1 column equals the serial Theorem 4 bound\n"
               "  * bound <= sim at every p (Theorem 6 soundness against "
               "the partitioned execution simulator)\n";
  return 0;
}
