// Tightness study: how far below the truth do the lower bounds sit?
//
// On graphs small enough for the exact state-space search, J*(G) is known
// exactly, so each bound's tightness ratio bound/J* is measurable. On
// larger graphs the best simulated schedule stands in as the upper end of
// the sandwich. Not a paper figure — this quantifies what the paper's
// Figure 7-10 curves mean in absolute terms.
//
// Shape to expect: spectral ≤ J* ≤ best schedule everywhere (soundness);
// the spectral/minkut ratios rise with graph size at fixed M.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Tightness: lower bounds vs exact J* / best schedule",
                      "sandwich quantification (no paper figure)", args);

  // --- exact section: tiny graphs, true J* -------------------------------
  struct TinyCase {
    std::string name;
    Digraph graph;
    std::int64_t memory;
  };
  std::vector<TinyCase> tiny;
  tiny.push_back({"inner m=2", builders::inner_product(2), 2});
  tiny.push_back({"inner m=3", builders::inner_product(3), 2});
  tiny.push_back({"fft l=2", builders::fft(2), 2});
  tiny.push_back({"bhk l=3", builders::bhk_hypercube(3), 3});
  tiny.push_back({"bhk l=4", builders::bhk_hypercube(4), 4});
  tiny.push_back({"stencil 5x2", builders::stencil1d(5, 2), 3});
  tiny.push_back({"scan 2^2", builders::prefix_scan(2), 2});

  Table exact_table({"graph", "n", "M", "J* (exact)", "spectral", "mincut",
                     "best schedule", "annealed"});
  for (const TinyCase& c : tiny) {
    if (c.graph.num_vertices() > exact::kMaxExactVertices) continue;
    const auto truth = exact::exact_optimal_io(c.graph, c.memory);
    const double spectral =
        spectral_bound(c.graph, static_cast<double>(c.memory)).bound;
    const double mincut =
        flow::convex_mincut_bound(c.graph, static_cast<double>(c.memory))
            .bound;
    const auto upper = sim::best_schedule_io(c.graph, c.memory);
    sim::AnnealOptions anneal_options;
    anneal_options.iterations = 2000;
    const auto annealed =
        sim::anneal_schedule(c.graph, c.memory, anneal_options);
    exact_table.add_row(
        {c.name, format_int(c.graph.num_vertices()), format_int(c.memory),
         truth.complete ? format_int(truth.io) : "-",
         format_double(spectral, 1), format_double(mincut, 1),
         format_int(upper.total()), format_int(annealed.io)});
  }
  exact_table.print(std::cout);
  std::cout << "\n";

  // --- sandwich section: evaluation-family sizes --------------------------
  struct Case {
    std::string name;
    Digraph graph;
    std::int64_t memory;
  };
  std::vector<Case> cases;
  cases.push_back({"fft l=6 M=2", builders::fft(6), 2});
  cases.push_back({"fft l=8 M=2", builders::fft(8), 2});
  cases.push_back({"bhk l=9 M=16", builders::bhk_hypercube(9), 16});
  cases.push_back({"matmul n=8 M=16", builders::naive_matmul(8), 16});
  cases.push_back({"strassen n=8 M=8", builders::strassen_matmul(8), 8});
  if (args.scale == bench::BenchScale::kPaper) {
    cases.push_back({"fft l=10 M=4", builders::fft(10), 4});
    cases.push_back({"bhk l=12 M=16", builders::bhk_hypercube(12), 16});
  }

  Table table({"graph", "n", "M", "spectral", "mincut", "best schedule",
               "annealed", "spectral/annealed"});
  for (const Case& c : cases) {
    if (c.graph.max_in_degree() > c.memory) continue;  // infeasible at M
    const double m = static_cast<double>(c.memory);
    const double spectral = spectral_bound(c.graph, m).bound;
    const double mincut = bench::mincut_or_nan(c.graph, m, 3000, 120.0);
    const auto upper = sim::best_schedule_io(c.graph, c.memory);
    // Annealing budget shrinks with graph size (each move re-simulates).
    sim::AnnealOptions anneal_options;
    anneal_options.iterations =
        c.graph.num_vertices() > 4000 ? 300 : 1500;
    const auto annealed =
        sim::anneal_schedule(c.graph, c.memory, anneal_options);
    const double ratio =
        annealed.io > 0 ? spectral / static_cast<double>(annealed.io) : 1.0;
    table.add_row({c.name, format_int(c.graph.num_vertices()),
                   format_int(c.memory), format_double(spectral, 1),
                   format_double(mincut, 1), format_int(upper.total()),
                   format_int(annealed.io), format_double(ratio, 3)});
  }
  bench::finish(table, args);

  std::cout << "Shape checks:\n"
               "  * every lower bound column <= J* (exact table) and <= "
               "every schedule column\n"
               "  * annealed <= best schedule (annealing refines the best "
               "heuristic order)\n"
               "  * spectral/annealed ratio shrinks with graph size at "
               "fixed M (the bound loses a log-ish factor)\n";
  return 0;
}
