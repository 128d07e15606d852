// Ablation (paper Section 6.3): the partitioned convex min-cut variant.
//
// Elango et al. propose cutting the runtime of the O(n⁵) baseline by
// partitioning the graph into pieces of ~2M vertices and summing
// per-piece bounds. The paper reports that this collapses to the trivial
// bound 0 on complex graphs, and therefore runs the baseline
// unpartitioned. This bench reproduces that observation across families
// and part sizes.
//
// Shape to expect: partitioned bound 0 (or near 0) wherever the full
// sweep is positive; larger parts recover some signal at rapidly growing
// cost.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Ablation: partitioned convex min-cut (paper's triviality observation)",
      "Jain & Zaharia SPAA'20, Section 6.3", args);

  struct Case {
    std::string name;
    Digraph graph;
    double memory;
  };
  std::vector<Case> cases;
  cases.push_back({"fft l=6 M=4", builders::fft(6), 4.0});
  cases.push_back({"bhk l=8 M=8", builders::bhk_hypercube(8), 8.0});
  cases.push_back({"matmul n=6 M=8", builders::naive_matmul(6), 8.0});
  if (args.scale != bench::BenchScale::kQuick)
    cases.push_back({"fft l=7 M=4", builders::fft(7), 4.0});

  Table table({"case", "n", "full sweep", "parts 2M", "parts 8M",
               "parts 32M"});
  for (const Case& c : cases) {
    const auto full = flow::convex_mincut_bound(c.graph, c.memory);
    auto partitioned = [&](double factor) {
      const auto part_size =
          static_cast<std::int64_t>(factor * c.memory);
      const auto r = flow::partitioned_convex_mincut_bound(
          c.graph, c.memory, part_size);
      return format_double(r.bound, 1);
    };
    table.add_row({c.name, format_int(c.graph.num_vertices()),
                   format_double(full.bound, 1), partitioned(2.0),
                   partitioned(8.0), partitioned(32.0)});
  }
  bench::finish(table, args);

  std::cout << "Shape checks:\n"
               "  * 'parts 2M' column is ~0 where 'full sweep' is positive\n"
               "  * growing the parts recovers signal monotonically\n";
  return 0;
}
