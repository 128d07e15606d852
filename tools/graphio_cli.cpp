// graphio — command-line front end for the spectral I/O bound library.
//
//   graphio generate fft:6 --out fft6.gel        emit a builder graph
//   graphio info fft6.gel [--json]               structural summary
//   graphio bound fft:8 --memory 4,8,16 --method all [--json]
//                                                every bound, one report
//   graphio compare fft:8 bhk:10 --memory 8 --method spectral,mincut
//                                                batch over graphs
//   graphio sweep fft:8 --memory-min 2 --memory-max 64 --method spectral
//                                                geometric M sweep
//   graphio spectrum bhk:8 --count 12            smallest Laplacian values
//   graphio simulate fft:6 --memory 8            schedule I/O (upper bound)
//   graphio exact inner:2 --memory 3             exact J* (tiny graphs)
//   graphio batch jobs.jsonl --threads 8 --store runs/store
//                                                concurrent batch service
//   graphio serve --store runs/store             JSONL request loop (stdin)
//
// Graph arguments are either a family spec (see `graphio help`) or a path
// to a graph file (graphio-edgelist, or Graphviz DOT for *.dot / *.gv).
// Bound evaluation routes through engine::Engine, so artifacts (spectra,
// wavefront cuts) are shared across methods, memory sizes and processor
// counts, and --json uniformly emits BoundReport JSON. Only `anneal` and
// `hierarchy` call the spectral_bound* free functions, which solve the
// same h as an Engine request. compare submits its requests as jobs to
// a serve::Scheduler, the one request-level fan-out, and prints the
// reports in argument order. batch/serve route through
// serve::BatchSession: results stream to stdout as deterministic JSONL
// (sortable, timing-free), the summary footer goes to stderr.
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graphio/audit/provenance.hpp"
#include "graphio/audit/replay.hpp"
#include "graphio/core/hierarchy.hpp"
#include "graphio/core/spectral_bound.hpp"
#include "graphio/engine/engine.hpp"
#include "graphio/engine/graph_spec.hpp"
#include "graphio/exact/pebble_search.hpp"
#include "graphio/faults/fault_injection.hpp"
#include "graphio/graph/laplacian.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/io/edgelist.hpp"
#include "graphio/io/json.hpp"
#include "graphio/la/solver_policy.hpp"
#include "graphio/serve/batch_session.hpp"
#include "graphio/serve/job.hpp"
#include "graphio/serve/scheduler.hpp"
#include "graphio/sim/anneal.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/sim/parallel_memsim.hpp"
#include "graphio/sim/schedule.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/support/table.hpp"
#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/trace.hpp"

namespace {

using namespace graphio;

std::string method_list() {
  std::string out;
  for (const std::string& id : engine::method_ids()) {
    if (!out.empty()) out += "|";
    out += id;
  }
  return out;
}

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: graphio <command> <graph...> [options]\n"
      "\n"
      "commands\n"
      "  generate <graph> [--out FILE]          write graph as edgelist\n"
      "  info <graph> [--json]                  structural summary\n"
      "  bound <graph> --memory M[,M...]        I/O bounds through the Engine\n"
      "        [--method m[,m...]|all] [--processors P] [--json]\n"
      "  compare <graph> <graph...> --memory M[,M...]\n"
      "        [--method ...] [--json]          one report per graph, batched\n"
      "  sweep <graph> --memory-min A --memory-max B [--memory-factor F]\n"
      "        [--method ...] [--json]          geometric memory sweep\n"
      "  spectrum <graph> [--count H] [--plain] smallest Laplacian eigenvalues\n"
      "  simulate <graph> --memory M            schedule I/O (upper bound)\n"
      "  exact <graph> --memory M               exact J* (<= 21 vertices)\n"
      "  anneal <graph> --memory M [--iterations I]\n"
      "                                         local-search schedule tuning\n"
      "  parallel <graph> --memory M [--processors P]\n"
      "                                         Theorem 6 vs simulated p-proc\n"
      "  hierarchy <graph> [--levels 8,64,512]  per-level traffic bounds\n"
      "  batch <jobs.jsonl> [--threads N] [--store DIR]\n"
      "        [--store-artifacts DIR]          fan a JSONL job corpus across\n"
      "                                         workers; results to stdout,\n"
      "                                         summary footer to stderr\n"
      "  serve [--threads N] [--store DIR] [--store-artifacts DIR]\n"
      "                                         JSONL request/response loop\n"
      "                                         on stdin/stdout\n"
      "  stream <updates.jsonl> [--json] [--store-artifacts DIR]\n"
      "        [--warm-basis-mb N]              replay a stream of graph\n"
      "                                         loads/patches/queries in\n"
      "                                         order; incremental re-analysis\n"
      "                                         with warm-started eigensolves\n"
      "                                         (N MiB of retained bases,\n"
      "                                         default 64, 0 = off; --json\n"
      "                                         adds the summary as a final\n"
      "                                         stdout line)\n"
      "  store stats <DIR> [--json]             inspect a durable artifact\n"
      "                                         store (entries per kind,\n"
      "                                         corrupt-line count)\n"
      "  store compact <DIR>                    rewrite the artifact log to\n"
      "                                         its live entries\n"
      "  trace summarize <FILE> [--json]        per-span-name total/self time\n"
      "                                         table for a --trace file\n"
      "                                         (Chrome JSON or JSONL)\n"
      "  audit <DIR|FILE> [updates.jsonl]       check a recorded provenance\n"
      "                                         trail (--provenance output)\n"
      "                                         and replay it from scratch,\n"
      "                                         verifying bit-identical\n"
      "                                         bounds (degraded records\n"
      "                                         verify dominance instead);\n"
      "                                         stream records need the\n"
      "                                         updates file; exit 1 on any\n"
      "                                         mismatch\n"
      "  faults list [--json]                   registered fault-injection\n"
      "                                         sites with armed/hit state\n"
      "\n"
      "robustness (batch/serve/stream)\n"
      "  --fault-plan SPEC                      arm deterministic fault\n"
      "                                         injection: 'site:nth=N' or\n"
      "                                         'site:prob=P[,seed=S]', comma\n"
      "                                         options incl. kind=K, multiple\n"
      "                                         sites ';'-separated (see\n"
      "                                         `graphio faults list`)\n"
      "  --job-timeout-ms N                     per-job soft deadline, one\n"
      "                                         budget for all of a job's\n"
      "                                         spectra (min-cut sweeps\n"
      "                                         excluded): over-budget\n"
      "                                         component solves are\n"
      "                                         skipped and the result is a\n"
      "                                         certified partial bound\n"
      "                                         flagged degraded:true\n"
      "  --durable                              fsync result/artifact/\n"
      "                                         provenance logs at batch\n"
      "                                         boundaries\n"
      "  --max-attempts N                       transient-failure attempts\n"
      "                                         per job before quarantine\n"
      "                                         (default 3)\n"
      "\n"
      "telemetry (any command)\n"
      "  --trace FILE                           record spans; write Chrome\n"
      "                                         trace JSON on exit (JSONL\n"
      "                                         when FILE ends in .jsonl)\n"
      "  --metrics                              print the metrics registry\n"
      "                                         as JSON to stderr on exit\n"
      "  --metrics-prom FILE                    write the metrics registry in\n"
      "                                         Prometheus text format on exit\n"
      "\n"
      "provenance (bound/compare/stream/batch/serve)\n"
      "  --explain                              attach the per-result lineage\n"
      "                                         record: per-component solver\n"
      "                                         tier (refresh/warm/cold),\n"
      "                                         iterations, certified residual,\n"
      "                                         artifact source (human table,\n"
      "                                         or a provenance field with\n"
      "                                         --json)\n"
      "  --provenance DIR                       append one provenance record\n"
      "                                         per result to\n"
      "                                         DIR/provenance.jsonl (see\n"
      "                                         `graphio audit`)\n"
      "\n"
      "graph: family spec, edgelist file, or DOT file (*.dot, *.gv)\n"
      << engine::family_help() <<
      "\n"
      "methods: " << method_list() << " | all\n"
      "\n"
      "spectral eigensolver options (bound/compare/sweep/spectrum)\n"
      "  --solver " << la::kSolverPolicyNames << "\n"
      "                                         per-component solver policy\n"
      "  --monolithic                           disable the per-component\n"
      "                                         decomposition (one whole-graph\n"
      "                                         eigensolve)\n";
  std::exit(2);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto end = s.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

std::int64_t parse_int(const std::string& s, const char* what) {
  std::int64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size())
    usage(std::string("bad ") + what + ": '" + s + "'");
  return v;
}

double parse_double(const std::string& s, const char* what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    usage(std::string("bad ") + what + ": '" + s + "'");
  }
}

struct Args {
  std::string command;
  std::vector<std::string> graphs;
  std::vector<double> memories;
  double memory_min = 0.0;
  double memory_max = 0.0;
  double memory_factor = 2.0;
  std::int64_t processors = 1;
  std::vector<std::string> methods;
  std::string out;
  int count = 16;
  std::int64_t iterations = 4000;
  std::string levels = "8,64,512";
  std::int64_t threads = 0;
  std::string store;
  std::string store_artifacts;
  /// Eigenbasis warm-start budget in MiB; -1 = unset (commands pick
  /// their default: 64 for `stream`, 0 elsewhere).
  std::int64_t warm_basis_mb = -1;
  std::optional<la::SolverKind> solver;  // empty = "auto"
  std::string trace_file;
  std::string metrics_prom;
  std::string provenance_dir;
  std::string fault_plan;
  std::int64_t job_timeout_ms = 0;
  std::int64_t max_attempts = 3;
  bool durable = false;
  bool explain = false;
  bool metrics = false;
  bool monolithic = false;
  bool plain = false;
  bool json = false;

  [[nodiscard]] const std::string& graph() const {
    if (graphs.empty()) usage("command needs a graph argument");
    return graphs.front();
  }
  [[nodiscard]] double memory() const {
    if (memories.empty()) return -1.0;
    return memories.front();
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.command = argv[1];
  int i = 2;
  for (; i < argc && argv[i][0] != '-'; ++i) a.graphs.emplace_back(argv[i]);
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("flag " + flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--memory") {
      for (const std::string& part : split(next(), ','))
        a.memories.push_back(parse_double(part, "memory"));
    } else if (flag == "--memory-min") {
      a.memory_min = parse_double(next(), "memory-min");
    } else if (flag == "--memory-max") {
      a.memory_max = parse_double(next(), "memory-max");
    } else if (flag == "--memory-factor") {
      a.memory_factor = parse_double(next(), "memory-factor");
    } else if (flag == "--processors") {
      a.processors = parse_int(next(), "processors");
    } else if (flag == "--method") {
      for (const std::string& part : split(next(), ','))
        a.methods.push_back(part);
    } else if (flag == "--out") {
      a.out = next();
    } else if (flag == "--count") {
      a.count = static_cast<int>(parse_int(next(), "count"));
    } else if (flag == "--iterations") {
      a.iterations = parse_int(next(), "iterations");
    } else if (flag == "--levels") {
      a.levels = next();
    } else if (flag == "--threads") {
      a.threads = parse_int(next(), "threads");
      if (a.threads < 1) usage("--threads must be >= 1");
    } else if (flag == "--store") {
      a.store = next();
    } else if (flag == "--store-artifacts") {
      a.store_artifacts = next();
    } else if (flag == "--warm-basis-mb") {
      a.warm_basis_mb = parse_int(next(), "warm-basis-mb");
      if (a.warm_basis_mb < 0) usage("--warm-basis-mb must be >= 0");
    } else if (flag == "--solver") {
      // Parse here so a typo fails with the known names instead of
      // surfacing later from deep inside an evaluation.
      try {
        a.solver = la::parse_solver_policy(next());
      } catch (const std::exception& e) {
        usage(e.what());
      }
    } else if (flag == "--trace") {
      a.trace_file = next();
      if (a.trace_file.empty()) usage("--trace needs a file path");
    } else if (flag == "--metrics") {
      a.metrics = true;
    } else if (flag == "--metrics-prom") {
      a.metrics_prom = next();
      if (a.metrics_prom.empty()) usage("--metrics-prom needs a file path");
    } else if (flag == "--fault-plan") {
      a.fault_plan = next();
      if (a.fault_plan.empty()) usage("--fault-plan needs a spec");
    } else if (flag == "--job-timeout-ms") {
      a.job_timeout_ms = parse_int(next(), "job-timeout-ms");
      if (a.job_timeout_ms < 0) usage("--job-timeout-ms must be >= 0");
    } else if (flag == "--max-attempts") {
      a.max_attempts = parse_int(next(), "max-attempts");
      if (a.max_attempts < 1) usage("--max-attempts must be >= 1");
    } else if (flag == "--durable") {
      a.durable = true;
    } else if (flag == "--explain") {
      a.explain = true;
    } else if (flag == "--provenance") {
      a.provenance_dir = next();
      if (a.provenance_dir.empty()) usage("--provenance needs a directory");
    } else if (flag == "--monolithic") {
      a.monolithic = true;
    } else if (flag == "--plain") {
      a.plain = true;
    } else if (flag == "--json") {
      a.json = true;
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  return a;
}

void require_memory(const Args& a) {
  if (a.memory() < 1.0)
    usage("command '" + a.command + "' needs --memory M (>= 1)");
}

Digraph resolve_graph(const std::string& spec) {
  return engine::GraphSpec::parse(spec).build();
}

engine::BoundRequest make_request(const Args& a, const std::string& spec) {
  engine::BoundRequest req;
  req.spec = spec;
  req.memories = a.memories;
  req.processors = a.processors;
  req.spectral.solver = a.solver;
  req.spectral.decompose = !a.monolithic;
  req.methods = a.methods.empty() ? std::vector<std::string>{"spectral"}
                                  : a.methods;
  // --processors P with P > 1 asks for the Theorem 6 bound; the serial
  // "spectral" method would silently ignore P, so route it to "parallel"
  // (which is Theorem 4 again when P == 1).
  if (a.processors > 1)
    for (std::string& method : req.methods)
      if (method == "spectral") method = "parallel";
  return req;
}

int emit_reports(const Args& a, std::span<const engine::BoundReport> reports) {
  if (a.json) {
    io::JsonWriter w;
    if (reports.size() == 1) {
      reports.front().append_json(w, /*include_timing=*/true,
                                  /*include_provenance=*/a.explain);
    } else {
      w.begin_array();
      for (const engine::BoundReport& report : reports)
        report.append_json(w, /*include_timing=*/true,
                           /*include_provenance=*/a.explain);
      w.end_array();
    }
    std::cout << w.str() << "\n";
    return 0;
  }
  if (reports.size() == 1)
    reports.front().to_table().print(std::cout);
  else
    engine::reports_to_table(reports).print(std::cout);
  if (a.explain) {
    for (const engine::BoundReport& report : reports) {
      const audit::ProvenanceRecord& prov = report.provenance;
      std::cout << "\nprovenance — " << report.graph << "\n";
      prov.to_table().print(std::cout);
      std::cout << "registry delta: warm_hits=" << prov.registry.warm_hits
                << " iterations=" << prov.registry.iterations
                << (prov.registry.exclusive ? "" : " (not exclusive)")
                << "\n";
    }
  }
  return 0;
}

/// Stamps the identity fields only the CLI layer knows (the Engine never
/// fingerprints eagerly — that would materialize lazy graphs) and the
/// request in its replayable job-line form, then appends the records to
/// --provenance. Gated on --explain/--provenance so plain runs skip the
/// fingerprint work.
void finish_provenance(const Args& a, engine::Engine& eng,
                       std::span<const engine::BoundRequest> requests,
                       std::span<engine::BoundReport> reports) {
  if (!a.explain && a.provenance_dir.empty()) return;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    reports[i].provenance.fingerprint = eng.fingerprint(requests[i].spec);
    reports[i].provenance.request =
        serve::request_to_json_line(requests[i]);
  }
  if (a.provenance_dir.empty()) return;
  audit::ProvenanceLog log{std::filesystem::path(a.provenance_dir)};
  for (const engine::BoundReport& report : reports)
    log.append(report.provenance);
}

int cmd_generate(const Args& a) {
  const Digraph g = resolve_graph(a.graph());
  if (a.out.empty()) {
    io::write_edgelist(std::cout, g);
  } else {
    io::save_edgelist(a.out, g);
    std::cout << "wrote " << g.num_vertices() << " vertices, "
              << g.num_edges() << " edges to " << a.out << "\n";
  }
  return 0;
}

int cmd_info(const Args& a) {
  const Digraph g = resolve_graph(a.graph());
  const bool acyclic = topological_order(g).has_value();
  if (a.json) {
    io::JsonWriter w;
    w.begin_object();
    w.key("graph").value(a.graph());
    w.key("vertices").value(g.num_vertices());
    w.key("edges").value(g.num_edges());
    w.key("sources").value(static_cast<std::int64_t>(g.sources().size()));
    w.key("sinks").value(static_cast<std::int64_t>(g.sinks().size()));
    w.key("max_in_degree").value(g.max_in_degree());
    w.key("max_out_degree").value(g.max_out_degree());
    w.key("acyclic").value(acyclic);
    w.end_object();
    std::cout << w.str() << "\n";
    return 0;
  }
  Table t({"property", "value"});
  t.add_row({"vertices", std::to_string(g.num_vertices())});
  t.add_row({"edges", std::to_string(g.num_edges())});
  t.add_row({"sources", std::to_string(g.sources().size())});
  t.add_row({"sinks", std::to_string(g.sinks().size())});
  t.add_row({"max in-degree", std::to_string(g.max_in_degree())});
  t.add_row({"max out-degree", std::to_string(g.max_out_degree())});
  t.add_row({"acyclic", acyclic ? "yes" : "no"});
  t.print(std::cout);
  return 0;
}

int cmd_bound(const Args& a) {
  require_memory(a);
  engine::Engine eng;
  const engine::BoundRequest request = make_request(a, a.graph());
  engine::BoundReport reports[] = {eng.evaluate(request)};
  const engine::BoundRequest requests[] = {request};
  finish_provenance(a, eng, requests, reports);
  return emit_reports(a, reports);
}

int cmd_compare(const Args& a) {
  require_memory(a);
  if (a.graphs.size() < 2)
    usage("compare needs at least two graph arguments");
  std::vector<engine::BoundRequest> requests;
  std::vector<serve::Job> jobs(a.graphs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<std::int64_t>(i);
    jobs[i].request = make_request(a, a.graphs[i]);
    requests.push_back(jobs[i].request);
  }
  std::vector<engine::BoundReport> reports(jobs.size());
  std::vector<std::string> errors(jobs.size());
  serve::Scheduler scheduler;
  scheduler.run(std::move(jobs), [&](const serve::JobResult& result) {
    const auto i = static_cast<std::size_t>(result.id);
    if (result.ok)
      reports[i] = result.report;
    else
      errors[i] = result.error;
  });
  for (std::size_t i = 0; i < errors.size(); ++i)
    if (!errors[i].empty())
      throw std::runtime_error("request '" + requests[i].display_name() +
                               "' failed: " + errors[i]);
  engine::Engine eng;  // fingerprints, only under --explain/--provenance
  finish_provenance(a, eng, requests, reports);
  return emit_reports(a, reports);
}

int cmd_sweep(const Args& a) {
  if (a.memory_min < 1.0 || a.memory_max < a.memory_min)
    usage("sweep needs --memory-min A and --memory-max B with 1 <= A <= B");
  if (a.memory_factor <= 1.0) usage("--memory-factor must be > 1");
  Args sweep = a;
  sweep.memories.clear();
  for (double m = a.memory_min; m <= a.memory_max; m *= a.memory_factor)
    sweep.memories.push_back(m);
  engine::Engine eng;
  const engine::BoundReport report =
      eng.evaluate(make_request(sweep, a.graph()));
  const engine::BoundReport reports[] = {report};
  return emit_reports(a, reports);
}

int cmd_spectrum(const Args& a) {
  const Digraph g = resolve_graph(a.graph());
  SpectralOptions opts;
  opts.solver = a.solver;
  opts.decompose = !a.monolithic;
  bool converged = true;
  const auto kind = a.plain ? LaplacianKind::kPlain
                            : LaplacianKind::kOutDegreeNormalized;
  const auto values =
      smallest_laplacian_eigenvalues(g, kind, a.count, opts, &converged);
  if (a.json) {
    io::JsonWriter w;
    w.begin_object();
    w.key("kind").value(a.plain ? "plain" : "out-degree-normalized");
    w.key("converged").value(converged);
    w.key("values").begin_array();
    for (double v : values) w.value(v);
    w.end_array();
    w.end_object();
    std::cout << w.str() << "\n";
    return 0;
  }
  std::printf("# %zu smallest eigenvalues (%s Laplacian)%s\n", values.size(),
              a.plain ? "plain" : "out-degree-normalized",
              converged ? "" : "  [NOT fully converged]");
  for (std::size_t i = 0; i < values.size(); ++i)
    std::printf("lambda_%zu = %.12g\n", i + 1, values[i]);
  return 0;
}

int cmd_simulate(const Args& a) {
  require_memory(a);
  const Digraph g = resolve_graph(a.graph());
  const auto m = static_cast<std::int64_t>(a.memory());
  Table t({"schedule", "reads", "writes", "total"});
  auto row = [&](const std::string& name, const sim::SimResult& r) {
    t.add_row({name, std::to_string(r.reads), std::to_string(r.writes),
               std::to_string(r.total())});
  };
  row("natural", sim::simulate_io(g, *topological_order(g), m));
  row("dfs", sim::simulate_io(g, dfs_topological_order(g), m));
  row("greedy-locality", sim::simulate_io(g, sim::greedy_locality_order(g), m));
  row("best-of-all", sim::best_schedule_io(g, m));
  t.print(std::cout);
  return 0;
}

int cmd_exact(const Args& a) {
  require_memory(a);
  const Digraph g = resolve_graph(a.graph());
  exact::ExactOptions opts;
  opts.reconstruct_order = true;
  const auto r = exact::exact_optimal_io(
      g, static_cast<std::int64_t>(a.memory()), opts);
  if (!r.complete) {
    std::cout << "search hit the state cap (" << r.states_expanded
              << " states) — no exact answer\n";
    return 1;
  }
  std::cout << "J* = " << r.io << "   (" << r.states_expanded
            << " states expanded)\n";
  std::cout << "optimal order:";
  for (VertexId v : r.order) std::cout << ' ' << v;
  std::cout << "\n";
  return 0;
}

int cmd_anneal(const Args& a) {
  require_memory(a);
  const Digraph g = resolve_graph(a.graph());
  if (g.max_in_degree() > static_cast<std::int64_t>(a.memory()))
    usage("no feasible schedule: max in-degree exceeds --memory");
  sim::AnnealOptions opts;
  opts.iterations = a.iterations;
  const sim::AnnealResult r =
      sim::anneal_schedule(g, static_cast<std::int64_t>(a.memory()), opts);
  const SpectralBound lower = spectral_bound(g, a.memory());
  std::cout << "start schedule I/O:   " << r.start_io << "\n"
            << "annealed schedule:    " << r.io << "  ("
            << r.moves_accepted << "/" << r.moves_attempted
            << " moves accepted)\n"
            << "spectral lower bound: " << lower.bound << "\n";
  if (!a.out.empty()) {
    io::JsonWriter w;
    w.begin_object();
    w.key("io").value(r.io);
    w.key("order").begin_array();
    for (VertexId v : r.order) w.value(v);
    w.end_array();
    w.end_object();
    std::ofstream out(a.out);
    out << w.str() << "\n";
    std::cout << "wrote annealed order to " << a.out << "\n";
  }
  return 0;
}

int cmd_parallel(const Args& a) {
  require_memory(a);
  const Digraph g = resolve_graph(a.graph());
  const auto m = static_cast<std::int64_t>(a.memory());
  // One Engine for every p: the Theorem 6 rows share one eigensolve.
  engine::Engine eng;
  engine::BoundRequest request = make_request(a, a.graph());
  request.memories = {a.memory()};
  request.methods = {"parallel"};
  Table t({"p", "Theorem 6 bound", "sim busiest", "sim aggregate"});
  for (std::int64_t p = 1; p <= a.processors; p *= 2) {
    request.processors = p;
    const double bound = eng.evaluate(request).rows.front().value;
    std::string busiest = "-";
    std::string aggregate = "-";
    if (g.max_in_degree() <= m) {
      const auto r = sim::best_parallel_schedule_io(g, m, p);
      busiest = std::to_string(r.max_total());
      aggregate = std::to_string(r.sum_total());
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", bound);
    t.add_row({std::to_string(p), buf, busiest, aggregate});
  }
  t.print(std::cout);
  return 0;
}

serve::BatchOptions batch_options(const Args& a,
                                  std::int64_t default_warm_mb = 0) {
  serve::BatchOptions options;
  options.threads = static_cast<int>(a.threads);
  options.store_dir = a.store;
  options.artifact_dir = a.store_artifacts;
  options.warm_basis_mb =
      a.warm_basis_mb >= 0 ? a.warm_basis_mb : default_warm_mb;
  options.explain = a.explain;
  options.provenance_dir = a.provenance_dir;
  options.durable = a.durable;
  options.job_timeout_ms = a.job_timeout_ms;
  options.max_attempts = static_cast<int>(a.max_attempts);
  return options;
}

int cmd_batch(const Args& a) {
  if (a.graphs.empty()) usage("batch needs a jobs.jsonl argument");
  std::ifstream jobs(a.graphs.front());
  if (!jobs.good()) usage("cannot open jobs file '" + a.graphs.front() + "'");
  serve::BatchSession session(batch_options(a));
  const serve::BatchSummary summary = session.run(jobs, std::cout);
  std::cerr << summary.to_json() << "\n";
  // Rejected lines are per-line errors, already reported on stdout; only
  // a batch where nothing succeeded exits non-zero.
  return summary.ok > 0 || summary.jobs + summary.rejected_lines == 0 ? 0
                                                                      : 1;
}

int cmd_serve(const Args& a) {
  serve::BatchSession session(batch_options(a));
  const serve::BatchSummary summary = session.serve(std::cin, std::cout);
  std::cerr << summary.to_json() << "\n";
  return 0;
}

int cmd_stream(const Args& a) {
  if (a.graphs.empty()) usage("stream needs an updates.jsonl argument");
  std::ifstream updates(a.graphs.front());
  if (!updates.good())
    usage("cannot open updates file '" + a.graphs.front() + "'");
  // Warm-started solves default ON for stream replay; --warm-basis-mb 0
  // turns the layer off.
  serve::BatchSession session(batch_options(a, serve::kStreamWarmBasisMb));
  // serve(): the ordered single-lane loop — every query sees exactly the
  // patches above it, and results stream out as they complete.
  const serve::BatchSummary summary = session.serve(updates, std::cout);
  if (a.json)
    std::cout << "{\"summary\":" << summary.to_json() << "}\n";
  std::cerr << summary.to_json() << "\n";
  return summary.ok > 0 || summary.jobs + summary.rejected_lines == 0 ? 0
                                                                      : 1;
}

int cmd_store(const Args& a) {
  // `graphio store stats|compact DIR`: the subcommand and directory both
  // arrive as positional "graph" arguments.
  if (a.graphs.size() != 2)
    usage("store needs a subcommand and a directory: "
          "graphio store stats|compact DIR");
  const std::string& sub = a.graphs[0];
  const std::string& dir = a.graphs[1];
  if (sub != "stats" && sub != "compact")
    usage("unknown store subcommand '" + sub + "' (stats|compact)");
  store::ArtifactStore artifacts{std::filesystem::path(dir)};
  if (sub == "compact") {
    const std::int64_t written = artifacts.compact();
    std::cout << "compacted " << artifacts.path().string() << " to "
              << written << " artifacts\n";
    return 0;
  }
  const store::ArtifactStore::Stats stats = artifacts.stats();
  if (a.json) {
    io::JsonWriter w;
    w.begin_object();
    w.key("path").value(artifacts.path().string());
    w.key("entries").value(stats.total().entries);
    w.key("loaded").value(stats.loaded);
    w.key("corrupt").value(stats.corrupt);
    for (std::size_t k = 0; k < store::kKindNames.size(); ++k) {
      w.key(store::kKindNames[k]).begin_object();
      for (const auto& row : store::ArtifactStore::KindStats::fields())
        w.key(row.key).value(stats.kinds[k].*row.count);
      w.end_object();
    }
    w.key("eigenbasis_bytes").value(stats.eigenbasis_bytes);
    w.end_object();
    std::cout << w.str() << "\n";
    return 0;
  }
  Table t({"kind", "entries"});
  for (std::size_t k = 0; k < store::kKindNames.size(); ++k)
    t.add_row({store::kKindNames[k], std::to_string(stats.kinds[k].entries)});
  t.add_row({"total", std::to_string(stats.total().entries)});
  t.print(std::cout);
  std::cout << artifacts.path().string() << ": " << stats.loaded
            << " loaded, " << stats.corrupt << " corrupt line(s) skipped\n";
  return 0;
}

int cmd_trace(const Args& a) {
  // `graphio trace summarize FILE`: subcommand and file arrive as
  // positional "graph" arguments.
  if (a.graphs.size() != 2 || a.graphs[0] != "summarize")
    usage("trace needs a subcommand and a file: graphio trace summarize FILE");
  std::ifstream in(a.graphs[1]);
  if (!in.good()) usage("cannot open trace file '" + a.graphs[1] + "'");
  std::ostringstream text;
  text << in.rdbuf();
  std::int64_t dropped = 0;
  const std::vector<telemetry::SpanRecord> records =
      telemetry::parse_trace(text.str(), &dropped);
  telemetry::TraceSummary summary = telemetry::summarize_records(records);
  summary.dropped = dropped;
  if (dropped > 0)
    std::cerr << "warning: ring buffer overflowed while recording — "
              << dropped << " event(s) dropped, totals undercount\n";
  if (a.json)
    std::cout << telemetry::summary_json(summary) << "\n";
  else
    std::cout << telemetry::summary_table(summary);
  return 0;
}

/// Writes the recorded trace (when --trace was given; format by file
/// extension) and the metrics registry (when --metrics was given) after
/// the command ran. Failures here must not change the command's exit
/// status beyond being reported.
void finish_telemetry(const Args& a) {
  if (!a.trace_file.empty()) {
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    tracer.disable();
    std::ofstream out(a.trace_file);
    if (!out.good()) {
      std::cerr << "error: cannot write trace file '" << a.trace_file
                << "'\n";
    } else {
      const bool jsonl = a.trace_file.size() >= 6 &&
                         a.trace_file.rfind(".jsonl") ==
                             a.trace_file.size() - 6;
      if (jsonl)
        tracer.export_jsonl(out);
      else
        tracer.export_chrome(out);
      const telemetry::TraceSummary summary = tracer.summarize();
      std::cerr << "trace: wrote " << summary.spans << " spans, "
                << summary.instants << " instant events to " << a.trace_file;
      if (summary.dropped > 0)
        std::cerr << " (" << summary.dropped << " dropped)";
      std::cerr << "\n";
    }
  }
  if (a.metrics)
    std::cerr << telemetry::MetricsRegistry::global().to_json() << "\n";
  if (!a.metrics_prom.empty()) {
    std::ofstream out(a.metrics_prom);
    if (!out.good())
      std::cerr << "error: cannot write metrics file '" << a.metrics_prom
                << "'\n";
    else
      out << telemetry::MetricsRegistry::global().to_prometheus();
  }
}

/// `graphio audit DIR|FILE [updates.jsonl]`: loads a recorded provenance
/// trail and replays it from scratch through audit::replay (stream records
/// through their updates file); exits 1 on any issue or mismatch.
int cmd_audit(const Args& a) {
  if (a.graphs.empty() || a.graphs.size() > 2)
    usage("audit needs a provenance dir/file and an optional updates file: "
          "graphio audit DIR [updates.jsonl]");
  std::filesystem::path trail(a.graphs.front());
  if (std::filesystem::is_directory(trail)) trail /= "provenance.jsonl";
  const std::vector<audit::ProvenanceRecord> records =
      audit::load_provenance(trail);
  const bool has_updates = a.graphs.size() == 2;
  std::ifstream updates(has_updates ? a.graphs[1] : std::string());
  if (has_updates && !updates.good())
    usage("cannot open updates file '" + a.graphs[1] + "'");
  const audit::ReplayReport report = audit::replay(
      records, has_updates ? &updates : nullptr,
      a.warm_basis_mb >= 0 ? a.warm_basis_mb : serve::kStreamWarmBasisMb);
  for (const std::string& message : report.messages)
    std::cerr << "audit: " << message << "\n";
  if (a.json) {
    io::JsonWriter w;
    w.begin_object();
    w.key("records").value(report.records);
    w.key("replayed").value(report.replayed);
    w.key("issues").value(report.issues);
    w.key("mismatches").value(report.mismatches);
    w.key("ok").value(report.ok());
    w.end_object();
    std::cout << w.str() << "\n";
  } else {
    std::cout << "audit: " << report.records << " record(s), "
              << report.replayed << " replayed, " << report.issues
              << " consistency issue(s), " << report.mismatches
              << " replay mismatch(es)"
              << (report.ok() ? " — trail verified" : "") << "\n";
  }
  return report.ok() ? 0 : 1;
}

/// `graphio faults list`: the registered fault-injection sites, with the
/// armed/hit state of the process-wide registry (reflects --fault-plan).
int cmd_faults(const Args& a) {
  if (a.graphs.size() != 1 || a.graphs[0] != "list")
    usage("faults needs a subcommand: graphio faults list");
  const std::vector<faults::SiteInfo> sites =
      faults::FaultRegistry::global().sites();
  if (a.json) {
    io::JsonWriter w;
    w.begin_array();
    for (const faults::SiteInfo& site : sites) {
      w.begin_object();
      w.key("site").value(site.name);
      w.key("description").value(site.description);
      w.key("armed").value(site.armed);
      w.key("hits").value(site.hits);
      w.key("fired").value(site.fired);
      w.end_object();
    }
    w.end_array();
    std::cout << w.str() << "\n";
    return 0;
  }
  Table t({"site", "armed", "hits", "fired", "description"});
  for (const faults::SiteInfo& site : sites)
    t.add_row({site.name, site.armed ? "yes" : "-",
               std::to_string(site.hits), std::to_string(site.fired),
               site.description});
  t.print(std::cout);
  return 0;
}

int cmd_hierarchy(const Args& a) {
  const Digraph g = resolve_graph(a.graph());
  std::vector<double> capacities;
  for (const std::string& part : split(a.levels, ','))
    capacities.push_back(parse_double(part, "level capacity"));
  const HierarchyProfile profile = hierarchy_profile(g, capacities);
  Table t({"level capacity", "traffic bound", "best k"});
  for (const LevelTraffic& level : profile.levels) {
    char cap[32];
    char bound[32];
    std::snprintf(cap, sizeof cap, "%.6g", level.capacity);
    std::snprintf(bound, sizeof bound, "%.6g", level.traffic_bound);
    t.add_row({cap, bound, std::to_string(level.best_k)});
  }
  t.print(std::cout);
  return 0;
}

int dispatch(const Args& a) {
  if (a.command == "generate") return cmd_generate(a);
  if (a.command == "info") return cmd_info(a);
  if (a.command == "bound") return cmd_bound(a);
  if (a.command == "compare") return cmd_compare(a);
  if (a.command == "sweep") return cmd_sweep(a);
  if (a.command == "spectrum") return cmd_spectrum(a);
  if (a.command == "simulate") return cmd_simulate(a);
  if (a.command == "exact") return cmd_exact(a);
  if (a.command == "anneal") return cmd_anneal(a);
  if (a.command == "parallel") return cmd_parallel(a);
  if (a.command == "hierarchy") return cmd_hierarchy(a);
  if (a.command == "store") return cmd_store(a);
  if (a.command == "batch") return cmd_batch(a);
  if (a.command == "serve") return cmd_serve(a);
  if (a.command == "stream") return cmd_stream(a);
  if (a.command == "trace") return cmd_trace(a);
  if (a.command == "audit") return cmd_audit(a);
  if (a.command == "faults") return cmd_faults(a);
  usage("unknown command '" + a.command + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (!a.trace_file.empty()) telemetry::Tracer::global().enable();
    // Arm the process-wide registry before any subsystem runs; a bad
    // spec fails here with the parse error, not mid-batch.
    if (!a.fault_plan.empty())
      faults::FaultRegistry::global().install(
          faults::FaultPlan::parse(a.fault_plan));
    const int rc = dispatch(a);
    finish_telemetry(a);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
