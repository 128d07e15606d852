// Ablation: reduction shape in the naive-matmul computation graph.
//
// The paper evaluates the n-ary formulation ("max in-degree n", so points
// with n > M are infeasible). Chain and balanced-tree reductions express
// the same computation with in-degree 2, changing both the graph and the
// feasibility region. This bench compares the spectral bound across the
// three shapes — the evidence for why the figure uses the paper's n-ary
// formulation.
//
// Shape to expect: bounds of the three shapes stay within a small factor
// where all are feasible; chain/tree remain available when n > M.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Ablation: matmul reduction shape vs spectral bound",
                      "Jain & Zaharia SPAA'20, Section 6.2 graph (2)", args);

  int n_max = 12;
  if (args.scale == bench::BenchScale::kQuick) n_max = 8;
  if (args.scale == bench::BenchScale::kPaper) n_max = 16;
  const double memory = 8.0;

  Table table({"n", "vertices (nary/chain/tree)", "nary", "chain", "tree"});
  for (int n = 4; n <= n_max; n += 2) {
    const Digraph nary = builders::naive_matmul(n, builders::Reduction::kNary);
    const Digraph chain =
        builders::naive_matmul(n, builders::Reduction::kChain);
    const Digraph tree =
        builders::naive_matmul(n, builders::Reduction::kBinaryTree);
    auto bound = [&](const Digraph& g) -> std::string {
      if (static_cast<double>(g.max_in_degree()) > memory)
        return "-";  // the paper's feasibility rule
      return format_double(spectral_bound(g, memory).bound, 1);
    };
    table.add_row({format_int(n),
                   format_int(nary.num_vertices()) + "/" +
                       format_int(chain.num_vertices()) + "/" +
                       format_int(tree.num_vertices()),
                   bound(nary), bound(chain), bound(tree)});
  }
  bench::finish(table, args);

  std::cout << "Shape checks:\n"
               "  * nary column goes infeasible (-) once n > M = 8\n"
               "  * chain/tree stay feasible and grow with n\n";
  return 0;
}
