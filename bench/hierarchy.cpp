// Multi-level hierarchy pricing (extension beyond the paper's two-level
// model): one spectral decomposition prices the traffic across every
// boundary of an L1/L2/L3-style inclusive hierarchy.
//
// Shape to expect: traffic bounds decrease as capacity grows (outer
// levels absorb more of the working set); the level where the bound hits
// zero is where the computation "fits"; the best k grows as capacity
// shrinks (finer partitions pay off against small caches).
#include "bench_common.hpp"

#include "graphio/core/hierarchy.hpp"

int main(int argc, char** argv) {
  using namespace graphio;
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Hierarchy: per-level traffic bounds (L1/L2/L3)",
                      "multi-level extension (no paper figure)", args);

  // A toy inclusive hierarchy in units of values: 8-value L1, 64-value L2,
  // 512-value L3.
  const std::vector<double> capacities{8.0, 64.0, 512.0};

  struct Case {
    std::string name;
    Digraph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"fft l=8", builders::fft(8)});
  cases.push_back({"bhk l=10", builders::bhk_hypercube(10)});
  cases.push_back({"matmul n=12", builders::naive_matmul(12)});
  if (args.scale == bench::BenchScale::kQuick) {
    cases.clear();
    cases.push_back({"fft l=6", builders::fft(6)});
    cases.push_back({"bhk l=8", builders::bhk_hypercube(8)});
  } else if (args.scale == bench::BenchScale::kPaper) {
    cases.push_back({"fft l=10", builders::fft(10)});
    cases.push_back({"strassen n=16", builders::strassen_matmul(16)});
  }

  std::vector<std::string> header{"graph", "n"};
  for (double c : capacities) {
    header.push_back("L(" + format_double(c, 0) + ") traffic");
    header.push_back("k*");
  }
  Table table(std::move(header));

  for (const Case& c : cases) {
    const HierarchyProfile profile = hierarchy_profile(c.graph, capacities);
    std::vector<std::string> row{c.name, format_int(c.graph.num_vertices())};
    for (const LevelTraffic& level : profile.levels) {
      row.push_back(format_double(level.traffic_bound, 1));
      row.push_back(format_int(level.best_k));
    }
    table.add_row(std::move(row));
  }
  bench::finish(table, args);

  std::cout << "Shape checks:\n"
               "  * traffic bounds weakly decrease along each row "
               "(bigger level, less forced traffic)\n"
               "  * the whole row is priced from ONE eigendecomposition\n";
  return 0;
}
