#include "bench_common.hpp"

#include <cmath>
#include <cstring>
#include <utility>

namespace graphio::bench {

std::string to_string(BenchScale scale) {
  switch (scale) {
    case BenchScale::kQuick: return "quick";
    case BenchScale::kDefault: return "default";
    case BenchScale::kPaper: return "paper";
  }
  return "unknown";
}

BenchArgs BenchArgs::parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      GIO_EXPECTS_MSG(i + 1 < argc, arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--csv") {
      args.csv_path = next();
    } else if (arg == "--scale") {
      const std::string value = next();
      if (value == "quick")
        args.scale = BenchScale::kQuick;
      else if (value == "default")
        args.scale = BenchScale::kDefault;
      else if (value == "paper")
        args.scale = BenchScale::kPaper;
      else
        GIO_EXPECTS_MSG(false, "--scale must be quick|default|paper");
    } else {
      GIO_EXPECTS_MSG(false, "unknown argument: " + arg +
                                 " (supported: --csv <path>, --scale <s>)");
    }
  }
  return args;
}

void print_header(const std::string& title, const std::string& anchor,
                  const BenchArgs& args) {
  std::cout << "== " << title << " ==\n"
            << "reproduces: " << anchor << "   scale: "
            << to_string(args.scale) << "\n\n";
}

engine::Engine& shared_engine() {
  static engine::Engine instance;
  return instance;
}

engine::BoundReport run(const std::string& spec,
                        std::vector<double> memories,
                        std::vector<std::string> methods,
                        const RunOptions& options) {
  engine::BoundRequest request;
  request.spec = spec;
  request.memories = std::move(memories);
  request.methods = std::move(methods);
  request.spectral = options.spectral;
  request.mincut.time_budget_seconds = options.mincut_budget_seconds;
  if (shared_engine().graph(spec).num_vertices() >
      options.mincut_max_vertices) {
    std::erase(request.methods, std::string("mincut"));
    if (request.methods.empty()) {
      // An empty method list means "all" to the Engine — which would
      // re-enable the min-cut sweep the cap just excluded. Return an
      // empty report instead.
      engine::BoundReport report;
      report.graph = request.display_name();
      report.vertices = shared_engine().graph(spec).num_vertices();
      report.edges = shared_engine().graph(spec).num_edges();
      report.memories = request.memories;
      return report;
    }
  }
  return shared_engine().evaluate(request);
}

double cell(const engine::BoundReport& report, std::string_view method,
            double memory) {
  const engine::MethodRow* row = report.row(method, memory);
  if (row == nullptr || !row->applicable) return std::nan("");
  if (method == "mincut" && !row->converged) return std::nan("");
  return row->value;
}

double mincut_or_nan(const Digraph& g, double memory,
                     std::int64_t max_vertices, double budget_seconds) {
  if (g.num_vertices() > max_vertices) return std::nan("");
  engine::BoundRequest request;
  request.graph = g;
  request.memories = {memory};
  request.methods = {"mincut"};
  request.mincut.time_budget_seconds = budget_seconds;
  const engine::BoundReport report = shared_engine().evaluate(request);
  return cell(report, "mincut", memory);
}

void finish(Table& table, const BenchArgs& args) {
  table.print(std::cout);
  if (!args.csv_path.empty()) {
    table.write_csv_file(args.csv_path);
    std::cout << "\nCSV written to " << args.csv_path << "\n";
  }
  std::cout << "\n";
}

}  // namespace graphio::bench
