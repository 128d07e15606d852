// solver_policy — monolithic vs decompose-and-conquer spectral pipeline.
//
// The pipeline claim (ISSUE 3 acceptance): on a corpus of disjoint FFT
// graphs, the per-component pipeline performs one *small* eigensolve per
// component instead of one monolithic whole-graph eigensolve, flips
// solver tiers when components drop below the dense threshold the union
// exceeds, and reproduces the monolithic spectrum exactly. On top of the
// core pipeline, the Engine's fingerprint-keyed component cache collapses
// equal components across specs to a single eigensolve. Everything
// measured here is algorithmic (eigensolve counts, problem sizes), so the
// conclusions hold on 1 CPU.
//
// Emits BENCH_solver.json:
//
//   {"bench": "solver_policy", "scale": ...,
//    "cases": [{"name": "multi:8:fft:5", "vertices": ..., "components": ...,
//               "monolithic": {"eigensolves": 1, "solver": "dense",
//                              "seconds": ...},
//               "pipeline": {"eigensolves": 8, "seconds": ...,
//                            "tiers": [{"solver": "dense", "solves": 8,
//                                       "seconds": ...}]},
//               "speedup": ..., "max_abs_diff": ...}, ...],
//    "shared_components": {"specs": [...], "eigensolves": 1,
//                          "component_hits": 8}}
#include <cmath>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace graphio;

struct TierAggregate {
  std::int64_t solves = 0;
  double seconds = 0.0;
};

struct CaseResult {
  std::string name;
  std::int64_t vertices = 0;
  int components = 0;
  std::int64_t mono_eigensolves = 0;
  std::string mono_solver;
  double mono_seconds = 0.0;
  std::int64_t pipe_eigensolves = 0;
  double pipe_seconds = 0.0;
  std::map<std::string, TierAggregate> tiers;
  double max_abs_diff = 0.0;
};

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size())
    return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  return worst;
}

CaseResult run_case(const std::string& spec, int h) {
  const Digraph g = engine::GraphSpec::parse(spec).build();
  CaseResult result;
  result.name = spec;
  result.vertices = g.num_vertices();

  SpectralOptions mono;
  mono.decompose = false;
  mono.max_eigenvalues = h;
  const PipelineResult whole =
      SpectralPipeline(mono).run(g, LaplacianKind::kOutDegreeNormalized, h);
  result.mono_eigensolves = whole.eigensolves;
  result.mono_seconds = whole.seconds;
  result.mono_solver =
      whole.per_component.empty()
          ? "-"
          : std::string(la::to_string(whole.per_component.front().solver));

  SpectralOptions split;
  split.max_eigenvalues = h;
  const PipelineResult piped =
      SpectralPipeline(split).run(g, LaplacianKind::kOutDegreeNormalized, h);
  result.components = piped.components;
  result.pipe_eigensolves = piped.eigensolves;
  result.pipe_seconds = piped.seconds;
  for (const ComponentSolve& solve : piped.per_component) {
    if (!solve.solver_ran) continue;
    TierAggregate& tier = result.tiers[std::string(la::to_string(solve.solver))];
    ++tier.solves;
    tier.seconds += solve.seconds;
  }
  result.max_abs_diff = max_abs_diff(whole.values, piped.values);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Solver policy: monolithic vs per-component spectral pipeline",
      "decompose-and-conquer pipeline (no paper figure)", args);

  // h = 32 eigenvalues: comfortably above every optimal k the evaluation
  // graphs produce (bench/ablation_k) while keeping the monolithic
  // Lanczos baseline affordable at bench scale.
  const int h = 32;
  std::vector<std::string> cases = {"multi:8:fft:4"};
  if (args.scale != bench::BenchScale::kQuick) {
    cases.push_back("multi:8:fft:5");  // union dense, components dense
    cases.push_back("multi:8:fft:6");  // union above the dense threshold
    cases.push_back("multi:4:bhk:7");
  }
  if (args.scale == bench::BenchScale::kPaper) {
    cases.push_back("multi:8:fft:7");
    cases.push_back("multi:16:matmul:5");
  }

  Table table({"case", "n", "comps", "mono solver", "mono solves", "mono s",
               "pipe solves", "pipe s", "speedup", "max |diff|"});
  std::vector<CaseResult> results;
  for (const std::string& spec : cases) {
    CaseResult r = run_case(spec, h);
    table.add_row(
        {r.name, format_int(r.vertices), format_int(r.components),
         r.mono_solver, format_int(r.mono_eigensolves),
         format_double(r.mono_seconds, 3), format_int(r.pipe_eigensolves),
         format_double(r.pipe_seconds, 3),
         format_double(r.pipe_seconds > 0.0 ? r.mono_seconds / r.pipe_seconds
                                            : 0.0,
                       2),
         format_double(r.max_abs_diff, 12)});
    results.push_back(std::move(r));
  }
  bench::finish(table, args);

  // Cross-spec component sharing through the Engine: the second request's
  // components are all content-equal to the first's graph, so the shared
  // component cache turns the whole union into hits.
  const std::string base_spec =
      args.scale == bench::BenchScale::kQuick ? "fft:4" : "fft:5";
  const std::string union_spec = "multi:8:" + base_spec;
  engine::Engine eng;
  engine::BoundRequest request;
  request.spec = base_spec;
  request.memories = {8.0};
  request.methods = {"spectral"};
  eng.evaluate(request);
  request.spec = union_spec;
  const engine::BoundReport shared = eng.evaluate(request);
  std::cout << "shared components: " << base_spec << " then " << union_spec
            << " -> eigensolves " << shared.cache.eigensolves
            << ", component hits " << shared.cache.component_hits << "\n\n";

  io::JsonWriter w;
  w.begin_object();
  w.key("bench").value("solver_policy");
  w.key("scale").value(to_string(args.scale));
  w.key("eigenvalues").value(static_cast<std::int64_t>(h));
  w.key("cases").begin_array();
  for (const CaseResult& r : results) {
    w.begin_object();
    w.key("name").value(r.name);
    w.key("vertices").value(r.vertices);
    w.key("components").value(static_cast<std::int64_t>(r.components));
    w.key("monolithic").begin_object();
    w.key("eigensolves").value(r.mono_eigensolves);
    w.key("solver").value(r.mono_solver);
    w.key("seconds").value(r.mono_seconds);
    w.end_object();
    w.key("pipeline").begin_object();
    w.key("eigensolves").value(r.pipe_eigensolves);
    w.key("seconds").value(r.pipe_seconds);
    w.key("tiers").begin_array();
    for (const auto& [solver, tier] : r.tiers) {
      w.begin_object();
      w.key("solver").value(solver);
      w.key("solves").value(tier.solves);
      w.key("seconds").value(tier.seconds);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    w.key("speedup").value(
        r.pipe_seconds > 0.0 ? r.mono_seconds / r.pipe_seconds : 0.0);
    w.key("max_abs_diff").value(r.max_abs_diff);
    w.end_object();
  }
  w.end_array();
  w.key("shared_components").begin_object();
  w.key("specs").begin_array();
  w.value(base_spec);
  w.value(union_spec);
  w.end_array();
  w.key("eigensolves").value(shared.cache.eigensolves);
  w.key("component_hits").value(shared.cache.component_hits);
  w.end_object();
  w.end_object();

  std::ofstream json_out("BENCH_solver.json");
  json_out << w.str() << "\n";
  std::cout << "wrote BENCH_solver.json\n";
  return 0;
}
