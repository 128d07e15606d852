// stream_updates — incremental re-analysis vs full recompute on an
// evolving multi-component graph.
//
// The stream claim (ISSUE 4 acceptance, tightened by the ISSUE 5
// zero-copy query path and the ISSUE 8 warm-start layer): after a small
// patch, a StreamSession re-eigensolves — and re-*extracts* — only the
// components the patch touched, and each dirty solve is *warm-started*
// from the predecessor component's retained eigenbasis, so it converges
// in a handful of LOBPCG iterations instead of a cold solve. Clean
// components resolve from the fingerprint-keyed component cache without
// materializing a subgraph or recomputing a hash (subgraph_extractions
// == dirty, fingerprint_computes == 0, warm_hits == dirty), while a
// from-scratch Engine on the final graph decomposes, hashes, extracts,
// and cold-solves every component; the bounds agree exactly (the
// decomposition is exact, and with h components the merged smallest
// values are the certified per-component zeros). The corpus is a
// disjoint union of *distinct* Erdős–Rényi DAGs (distinct seeds), so
// the scratch baseline cannot dedupe equal components and honestly pays
// one eigensolve per component. Everything gated is algorithmic
// (eigensolve/extraction/iteration counts), so the conclusions hold on
// 1 CPU. The per-phase breakdown (fingerprint / extract / solve / merge)
// shows where each side's time goes: the incremental side is pinned to
// the dirty components' (warm) solve time, which is the floor.
//
// Emits BENCH_stream.json:
//
//   {"bench": "stream_updates", "scale": ..., "components": C,
//    "component_vertices": N, "vertices": ..., "memories": [2, 8],
//    "cases": [{"patch_edges": 1, "dirty_components": 1,
//               "incremental": {"seconds": ..., "eigensolves": 1,
//                               "component_hits": C-1, "warm_hits": 1,
//                               "warm_iterations_saved": ...,
//                               "subgraph_extractions": 1,
//                               "fingerprint_computes": 0,
//                               "phases": {"fingerprint": ...,
//                                          "extract": ..., "solve": ...,
//                                          "merge": ...}},
//               "scratch": {"seconds": ..., "eigensolves": C,
//                           "subgraph_extractions": C,
//                           "fingerprint_computes": C, "phases": {...}},
//               "speedup": ..., "max_abs_diff": 0}, ...],
//    "method_cases": [{"method": "partition-dp"|"mincut"|"memsim",
//                      "kind": "partition"|"mincut"|"memsim",
//                      "computes": 1, "scratch_computes": C,
//                      "fingerprint_computes": 0,
//                      "speedup": ..., "max_abs_diff": 0,
//                      mincut only: "incremental_flows": ...,
//                      "scratch_flows": ...,
//                      "scratch_vertices_with_children": ...}, ...],
//    "restart": {"artifacts_loaded": ..., "cold_seconds": ...,
//                "warm_seconds": ..., "warm_eigensolves": 0, ...,
//                "warm_partition_runs": 0,
//                "speedup": ..., "max_abs_diff": 0},
//    "warm_start": {"dirty_components": 1, "warm_hits": 1,
//                   "cold_iterations": ..., "warm_iterations": ...,
//                   "iterations_saved": ..., "max_abs_diff": 0}}
//
// The per-method cases extend the claim beyond spectra (the store serves
// partition DP rows, min-cut sweeps and memsim rows the same way), the
// restart case certifies the disk tier (a fresh process against a warm
// --store-artifacts directory answers every method without a single
// solve of any kind), and the warm_start case isolates the eigenbasis
// payoff under forced LOBPCG: the dirty re-solve takes strictly fewer
// iterations warm than cold, at exact parity. Each claim is require()d —
// the bench fails hard, so CI gates on the executable spec, not on the
// JSON roll-up alone.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/telemetry/metrics.hpp"

namespace {

using namespace graphio;

struct SideResult {
  double seconds = 0.0;
  std::int64_t eigensolves = 0;
  std::int64_t component_hits = 0;
  std::int64_t subgraph_extractions = 0;
  std::int64_t fingerprint_computes = 0;
  std::int64_t warm_hits = 0;
  std::int64_t warm_iterations_saved = 0;
  double fingerprint_seconds = 0.0;
  double extract_seconds = 0.0;
  double solve_seconds = 0.0;
  double merge_seconds = 0.0;

  void record(const engine::ArtifactCache::Stats& cache) {
    eigensolves = cache.eigensolves;
    component_hits = cache.component_hits;
    subgraph_extractions = cache.subgraph_extractions;
    fingerprint_computes = cache.fingerprint_computes;
    warm_hits = cache.warm_hits;
    warm_iterations_saved = cache.warm_iterations_saved;
    fingerprint_seconds = cache.fingerprint_seconds;
    extract_seconds = cache.extract_seconds;
    solve_seconds = cache.solve_seconds;
    merge_seconds = cache.merge_seconds;
  }
};

struct CaseResult {
  int patch_edges = 0;
  int dirty = 0;
  int components = 0;
  SideResult inc;
  SideResult scratch;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
};

/// One non-spectral artifact kind driven through a single-edge patch:
/// the incremental side must recompute exactly the dirty component's
/// artifact (computes == dirty, fingerprint_computes == 0) while the
/// scratch baseline recomputes every component's.
struct MethodCase {
  std::string method;  ///< engine method id exercising the kind
  std::string kind;    ///< artifact kind: partition | mincut | memsim
  int dirty = 0;
  int components = 0;
  std::int64_t computes = -1;
  std::int64_t store_hits = 0;
  std::int64_t fingerprint_computes = -1;
  std::int64_t scratch_computes = 0;
  double inc_seconds = 0.0;
  double scratch_seconds = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
  // mincut only: max-flows run per side (the `mincut.flows` counter) and
  // the scratch graph's vertices with a child, the unpruned flow count.
  std::int64_t inc_flows = 0;
  std::int64_t scratch_flows = 0;
  std::int64_t scratch_vertices_with_children = 0;
};

/// Cold evaluation into a disk-backed artifact store vs a process
/// "restart" (fresh session + fresh store) against the same directory.
struct RestartCase {
  std::int64_t artifacts_loaded = 0;
  std::int64_t warm_eigensolves = -1;
  std::int64_t warm_topo_computes = -1;
  std::int64_t warm_mincut_sweeps = -1;
  std::int64_t warm_memsim_runs = -1;
  std::int64_t warm_partition_runs = -1;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
};

/// Forced-LOBPCG iteration audit: two fresh sessions — basis retention
/// on vs off — apply the same single-edge patch; the metrics registry's
/// solver.iterations delta across the dirty re-solve isolates what the
/// retained eigenbasis buys.
struct WarmStartCase {
  int dirty = 0;
  std::int64_t warm_hits = -1;
  std::int64_t cold_iterations = 0;
  std::int64_t warm_iterations = 0;
  std::int64_t iterations_saved = 0;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  double max_abs_diff = 0.0;
};

/// The per-kind compute counter the method exercises.
std::int64_t kind_computes(const std::string& kind,
                           const engine::ArtifactCache::Stats& cache) {
  if (kind == "topo") return cache.topo_computes;
  if (kind == "mincut") return cache.mincut_sweeps;
  if (kind == "partition") return cache.partition_runs;
  return cache.memsim_runs;
}

/// Hard CI gate: the bench is the executable spec of the incremental
/// claims, so a violated claim fails the run, not just the roll-up.
void require(bool ok, const std::string& what) {
  if (ok) return;
  std::cerr << "CLAIM FAILED: " << what << "\n";
  std::exit(1);
}

engine::BoundRequest make_request() {
  engine::BoundRequest req;
  req.memories = {2.0, 8.0};
  req.methods = {"spectral"};
  // Auto policy: cold solves at these component sizes resolve dense
  // (deterministic), while dirty components with a retained predecessor
  // basis take the warm LOBPCG tier. Parity stays exact either way: with
  // h = 32 and >= 32 weak components, the merged smallest-32 are the
  // per-component zero eigenvalues, and the certified lower estimate
  // max(0, theta - ||r||) pins an approximated zero to exactly 0.0 at
  // any tolerance.
  req.spectral.solver = std::nullopt;
  req.spectral.max_eigenvalues = 32;
  return req;
}

double bounds_diff(const engine::BoundReport& a,
                   const engine::BoundReport& b) {
  if (a.rows.size() != b.rows.size())
    return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows.size(); ++i)
    worst = std::max(worst, std::fabs(a.rows[i].value - b.rows[i].value));
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Stream updates: incremental re-analysis vs full recompute",
      "graphio::stream (no paper figure)", args);

  // 32 components: the zero-copy query path's win scales with the number
  // of *clean* components a patch leaves behind (each one skipped costs
  // one map lookup instead of an extract + hash + solve), so the corpus
  // carries enough of them for the skip to dominate. The floor on the
  // incremental side is the dirty components' own solve time.
  int components = 32;
  std::int64_t n = 500;
  if (args.scale == bench::BenchScale::kQuick) n = 450;
  if (args.scale == bench::BenchScale::kPaper) {
    components = 40;
    n = 600;
  }

  // Distinct seeds -> distinct components: the scratch baseline's own
  // component cache cannot collapse them.
  std::vector<Digraph> parts;
  parts.reserve(static_cast<std::size_t>(components));
  for (int c = 0; c < components; ++c)
    parts.push_back(
        builders::erdos_renyi_dag(n, 0.03, static_cast<std::uint64_t>(c + 1)));
  const Digraph corpus = disjoint_union(parts);

  // Basis retention on: the session's store keeps converged component
  // eigenbases under a 64 MiB LRU budget, so a patched component's solve
  // warm-starts from its predecessor's basis instead of a random block
  // (the auto policy picks the warm LOBPCG tier when the basis is
  // resident and, below the dense threshold, n > 3h — as here, n >= 450
  // against h = 32).
  const auto session_store = std::make_shared<store::ArtifactStore>();
  session_store->set_eigenbasis_budget(std::int64_t{64} << 20);
  stream::StreamSession session("bench-stream", session_store);
  session.load(corpus);
  // Warm pass: solve every component once; later queries only pay for
  // what their patch dirtied.
  const engine::BoundReport warm = session.evaluate(make_request());
  std::cout << "warm pass: " << warm.cache.eigensolves << " eigensolves over "
            << components << " components\n\n";

  Table table({"patch edges", "dirty", "inc solves", "inc hits", "inc extr",
               "inc s", "scratch solves", "scratch s", "speedup",
               "max |diff|"});
  std::vector<CaseResult> results;
  constexpr int kReps = 3;
  int case_index = 0;
  for (const int patch_edges : {1, 2, 4, 8}) {
    CaseResult r;
    r.patch_edges = patch_edges;
    r.inc.seconds = std::numeric_limits<double>::infinity();
    r.scratch.seconds = std::numeric_limits<double>::infinity();
    // Best-of-kReps: each rep applies a fresh equal-size patch (distinct
    // edges, same component spread), so min-over-reps measures the
    // algorithm, not scheduler noise on a shared CI core. Counters are
    // identical across reps; parity is asserted on every rep.
    for (int rep = 0; rep < kReps; ++rep) {
      // One edge into each of `patch_edges` distinct components; u < v
      // keeps the DAG acyclic, offsets differ per (case, rep) so the
      // patches accumulate without repeating an edge.
      stream::Patch patch;
      const auto jitter = static_cast<VertexId>(2 * (case_index++));
      for (int e = 0; e < patch_edges; ++e) {
        const VertexId off = static_cast<VertexId>(e) * n;
        patch.mutations.push_back(
            stream::Mutation::add_edge(off + jitter, off + jitter + 1));
      }

      WallTimer inc_timer;
      const stream::PatchReport applied = session.apply(patch);
      const engine::BoundReport inc = session.evaluate(make_request());
      const double inc_seconds = inc_timer.seconds();
      r.dirty = applied.dirty_components;
      r.components = applied.components;
      if (inc_seconds < r.inc.seconds) {
        r.inc.seconds = inc_seconds;
        r.inc.record(inc.cache);
      }

      // From-scratch baseline: a fresh Engine (cold component cache) on
      // the same final graph.
      engine::BoundRequest scratch_req = make_request();
      scratch_req.graph = session.graph();
      scratch_req.name = "scratch";
      engine::Engine scratch_engine;
      WallTimer scratch_timer;
      const engine::BoundReport scratch =
          scratch_engine.evaluate(scratch_req);
      const double scratch_seconds = scratch_timer.seconds();
      if (scratch_seconds < r.scratch.seconds) {
        r.scratch.seconds = scratch_seconds;
        r.scratch.record(scratch.cache);
      }
      r.max_abs_diff = std::max(r.max_abs_diff, bounds_diff(inc, scratch));
    }
    r.speedup =
        r.inc.seconds > 0.0 ? r.scratch.seconds / r.inc.seconds : 0.0;

    require(r.inc.warm_hits == r.dirty,
            "every dirty component's solve warm-starts from its "
            "predecessor basis");
    require(r.max_abs_diff == 0.0,
            "incremental (warm) and scratch (cold) bounds agree exactly");

    table.add_row({format_int(r.patch_edges), format_int(r.dirty),
                   format_int(r.inc.eigensolves),
                   format_int(r.inc.component_hits),
                   format_int(r.inc.subgraph_extractions),
                   format_double(r.inc.seconds, 3),
                   format_int(r.scratch.eigensolves),
                   format_double(r.scratch.seconds, 3),
                   format_double(r.speedup, 2),
                   format_double(r.max_abs_diff, 12)});
    results.push_back(r);
  }
  bench::finish(table, args);
  std::cout << "\nsingle-edge phase breakdown (incremental, seconds): "
            << "fingerprint=" << results.front().inc.fingerprint_seconds
            << " extract=" << results.front().inc.extract_seconds
            << " solve=" << results.front().inc.solve_seconds
            << " merge=" << results.front().inc.merge_seconds << "\n";

  // ------------------------------------------ per-method incremental cases
  // The same single-edge-patch claim, per non-spectral artifact kind: the
  // store resolves every clean component's topo order / min-cut sweep /
  // memsim row, so a query recomputes exactly the dirty component's.
  // memsim needs M >= the whole graph's max in-degree to be applicable.
  std::int64_t max_in = 0;
  for (VertexId v = 0; v < corpus.num_vertices(); ++v)
    max_in = std::max(
        max_in, static_cast<std::int64_t>(corpus.parents(v).size()));
  const double memsim_memory = static_cast<double>(max_in + 1);

  std::vector<MethodCase> method_cases;
  method_cases.push_back({"partition-dp", "partition"});
  method_cases.push_back({"mincut", "mincut"});
  method_cases.push_back({"memsim", "memsim"});

  std::cout << "\nPer-method incremental cases (single-edge patch)\n";
  Table mtable({"method", "kind", "dirty", "computes", "scratch computes",
                "inc s", "scratch s", "speedup", "max |diff|"});
  for (MethodCase& mc : method_cases) {
    engine::BoundRequest req;
    req.memories = {mc.kind == "memsim" ? memsim_memory : 8.0};
    req.methods = {mc.method};
    // Warm pass: every component's artifact of this kind enters the store.
    session.evaluate(req);

    stream::Patch patch;
    const auto jitter = static_cast<VertexId>(2 * (case_index++));
    patch.mutations.push_back(stream::Mutation::add_edge(jitter, jitter + 1));
    const stream::PatchReport applied = session.apply(patch);

    telemetry::Counter& flows =
        telemetry::MetricsRegistry::global().counter("mincut.flows");
    const std::int64_t inc_flows_before = flows.value();
    WallTimer inc_timer;
    const engine::BoundReport inc = session.evaluate(req);
    mc.inc_seconds = inc_timer.seconds();
    mc.inc_flows = flows.value() - inc_flows_before;
    mc.dirty = applied.dirty_components;
    mc.components = applied.components;
    mc.computes = kind_computes(mc.kind, inc.cache);
    mc.store_hits = inc.cache.hits;
    mc.fingerprint_computes = inc.cache.fingerprint_computes;

    engine::BoundRequest scratch_req = req;
    scratch_req.graph = session.graph();
    scratch_req.name = "scratch";
    engine::Engine scratch_engine;
    const std::int64_t scratch_flows_before = flows.value();
    WallTimer scratch_timer;
    const engine::BoundReport scratch = scratch_engine.evaluate(scratch_req);
    mc.scratch_seconds = scratch_timer.seconds();
    mc.scratch_flows = flows.value() - scratch_flows_before;
    const Digraph& final_graph = *scratch_req.graph;
    for (VertexId v = 0; v < final_graph.num_vertices(); ++v)
      if (final_graph.out_degree(v) > 0) ++mc.scratch_vertices_with_children;
    mc.scratch_computes = kind_computes(mc.kind, scratch.cache);
    mc.speedup =
        mc.inc_seconds > 0.0 ? mc.scratch_seconds / mc.inc_seconds : 0.0;
    mc.max_abs_diff = bounds_diff(inc, scratch);

    require(mc.computes == mc.dirty,
            mc.kind + " computes == dirty components");
    require(mc.fingerprint_computes == 0,
            mc.kind + " query never re-hashes a fingerprint");
    require(mc.scratch_computes == mc.components,
            mc.kind + " scratch recomputes every component");
    require(mc.max_abs_diff == 0.0, mc.kind + " bounds agree exactly");
    // The partition DP used to lose to scratch (0.91x): the incremental
    // side paid whole-graph materialization plus an O(n^2) whole-graph DP
    // with zero reuse. Per-component DP rows composed via the seam-refund
    // identity make the query pay for exactly the dirty component, so the
    // win must now be real, not just counter-level.
    if (mc.kind == "partition")
      require(mc.speedup > 1.0,
              "partition-dp incremental query beats from-scratch");
    // The branch-and-bound sweep flows only the vertices whose free upper
    // bound can still beat the best cut: a count, so immune to timing noise.
    if (mc.kind == "mincut")
      require(10 * mc.scratch_flows <= mc.scratch_vertices_with_children,
              "mincut scratch sweep flows <= 10% of vertices with a child");

    mtable.add_row({mc.method, mc.kind, format_int(mc.dirty),
                    format_int(mc.computes),
                    format_int(mc.scratch_computes),
                    format_double(mc.inc_seconds, 3),
                    format_double(mc.scratch_seconds, 3),
                    format_double(mc.speedup, 2),
                    format_double(mc.max_abs_diff, 12)});
  }
  mtable.print(std::cout);
  for (const MethodCase& mc : method_cases)
    if (mc.kind == "mincut")
      std::cout << "mincut flows: incremental " << mc.inc_flows
                << ", scratch " << mc.scratch_flows << " of "
                << mc.scratch_vertices_with_children
                << " vertices with a child\n";

  // --------------------------------------------- cold vs warm restart
  // Evaluate the store-backed methods into a disk tier, then "restart the
  // process" — new session, new store, same directory — and re-query: the
  // replayed JSONL answers everything (zero solves of any kind) with
  // bit-identical bounds.
  RestartCase restart;
  {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "graphio_bench_stream_store";
    std::filesystem::remove_all(dir);
    engine::BoundRequest req;
    req.memories = {memsim_memory};
    req.methods = {"spectral", "partition-dp", "mincut", "memsim"};
    req.spectral.solver = la::SolverKind::kDense;
    req.spectral.max_eigenvalues = 32;

    // Both sides time the whole restart path — store construction (for
    // the warm side, the JSONL replay), session load, query — so the
    // ratio is "process start to answers", not just the query.
    engine::BoundReport cold;
    {
      WallTimer timer;
      stream::StreamSession cold_session(
          "bench-restart", std::make_shared<store::ArtifactStore>(dir));
      cold_session.load(corpus);
      cold = cold_session.evaluate(req);
      restart.cold_seconds = timer.seconds();
    }
    // Warm restarts are milliseconds, so best-of-3 filters scheduler
    // noise out of the denominator (the CI regression gate compares the
    // ratio run-to-run).
    engine::BoundReport warm;
    restart.warm_seconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      const auto warm_store = std::make_shared<store::ArtifactStore>(dir);
      restart.artifacts_loaded = warm_store->stats().loaded;
      stream::StreamSession warm_session("bench-restart", warm_store);
      warm_session.load(corpus);
      warm = warm_session.evaluate(req);
      restart.warm_seconds = std::min(restart.warm_seconds, timer.seconds());
    }
    restart.warm_eigensolves = warm.cache.eigensolves;
    restart.warm_topo_computes = warm.cache.topo_computes;
    restart.warm_mincut_sweeps = warm.cache.mincut_sweeps;
    restart.warm_memsim_runs = warm.cache.memsim_runs;
    restart.warm_partition_runs = warm.cache.partition_runs;
    restart.speedup = restart.warm_seconds > 0.0
                          ? restart.cold_seconds / restart.warm_seconds
                          : 0.0;
    restart.max_abs_diff = bounds_diff(cold, warm);
    std::filesystem::remove_all(dir);

    require(restart.warm_eigensolves == 0 &&
                restart.warm_topo_computes == 0 &&
                restart.warm_mincut_sweeps == 0 &&
                restart.warm_memsim_runs == 0 &&
                restart.warm_partition_runs == 0,
            "cold restart answers every method from the disk tier");
    require(restart.max_abs_diff == 0.0,
            "restart bounds are bit-identical");

    std::cout << "\ncold vs warm restart (" << restart.artifacts_loaded
              << " artifacts replayed): cold "
              << format_double(restart.cold_seconds, 3) << "s, warm "
              << format_double(restart.warm_seconds, 3) << "s, speedup "
              << format_double(restart.speedup, 2) << "x\n";
  }

  // ------------------------------------------ warm-start iteration audit
  // Forcing LOBPCG on both sides isolates what the retained eigenbasis
  // buys: two fresh sessions, same corpus, same single-edge patch — one
  // retains bases (64 MiB budget), one has retention off (budget 0). The
  // only difference in the dirty re-solve is the starting block, so the
  // registry's solver.iterations delta is the claim: warm converges in
  // strictly fewer iterations than cold. Parity is exact because the
  // compared values are the certified per-component zeros.
  WarmStartCase wsc;
  {
    engine::BoundRequest req = make_request();
    req.spectral.solver = la::SolverKind::kLobpcg;

    // Patch an edge that is absent from the pristine corpus but stays
    // inside vertex 0's weak component: 0 -> (grandchild of 0 that is not
    // already a child). Edges only ever point low -> high, so the new
    // edge keeps the DAG acyclic and dirties exactly one component.
    VertexId wv = 0;
    {
      std::vector<char> is_child(static_cast<std::size_t>(n), 0);
      for (VertexId c : corpus.children(0))
        is_child[static_cast<std::size_t>(c)] = 1;
      for (VertexId c : corpus.children(0)) {
        for (VertexId g : corpus.children(c))
          if (!is_child[static_cast<std::size_t>(g)]) {
            wv = g;
            break;
          }
        if (wv != 0) break;
      }
    }
    require(wv != 0, "corpus has a non-adjacent grandchild of vertex 0");
    stream::Patch patch;
    patch.mutations.push_back(stream::Mutation::add_edge(0, wv));

    auto& iterations =
        telemetry::MetricsRegistry::global().counter("solver.iterations");
    auto& hits =
        telemetry::MetricsRegistry::global().counter("solver.warm_hits");

    const auto run = [&](std::int64_t basis_budget, double& out_seconds,
                         std::int64_t& out_iterations) {
      const auto side_store = std::make_shared<store::ArtifactStore>();
      side_store->set_eigenbasis_budget(basis_budget);
      stream::StreamSession side("bench-warm-audit", side_store);
      side.load(corpus);
      side.evaluate(req);  // warm pass: spectra (and any bases) stored
      const stream::PatchReport applied = side.apply(patch);
      wsc.dirty = applied.dirty_components;
      const std::int64_t before = iterations.value();
      WallTimer timer;
      const engine::BoundReport rep = side.evaluate(req);
      out_seconds = timer.seconds();
      out_iterations = iterations.value() - before;
      return rep;
    };

    const std::int64_t hits_before_cold = hits.value();
    const engine::BoundReport cold =
        run(0, wsc.cold_seconds, wsc.cold_iterations);
    require(hits.value() == hits_before_cold,
            "retention off: the dirty re-solve starts cold");
    const std::int64_t hits_before_warm = hits.value();
    const engine::BoundReport warmed = run(std::int64_t{64} << 20,
                                           wsc.warm_seconds,
                                           wsc.warm_iterations);
    wsc.warm_hits = hits.value() - hits_before_warm;
    wsc.iterations_saved = wsc.cold_iterations - wsc.warm_iterations;
    wsc.max_abs_diff = bounds_diff(cold, warmed);

    require(wsc.warm_hits == wsc.dirty,
            "every dirty component's solve seeds from a retained basis");
    require(wsc.warm_iterations < wsc.cold_iterations,
            "warm solves take strictly fewer iterations than cold");
    require(wsc.max_abs_diff == 0.0, "warm and cold bounds agree exactly");

    std::cout << "\nwarm-start audit (forced LOBPCG, single-edge patch): "
              << "cold " << wsc.cold_iterations << " iterations, warm "
              << wsc.warm_iterations << " (" << wsc.warm_hits
              << " warm hit), saved " << wsc.iterations_saved << "\n";
  }

  io::JsonWriter w;
  w.begin_object();
  w.key("bench").value("stream_updates");
  w.key("scale").value(to_string(args.scale));
  w.key("components").value(static_cast<std::int64_t>(components));
  w.key("component_vertices").value(n);
  w.key("vertices").value(corpus.num_vertices());
  w.key("edges").value(corpus.num_edges());
  w.key("memories").begin_array();
  for (double m : make_request().memories) w.value(m);
  w.end_array();
  w.key("cases").begin_array();
  for (const CaseResult& r : results) {
    const auto side = [&w](const char* name, const SideResult& s,
                           bool hits) {
      w.key(name).begin_object();
      w.key("seconds").value(s.seconds);
      w.key("eigensolves").value(s.eigensolves);
      if (hits) {
        w.key("component_hits").value(s.component_hits);
        w.key("warm_hits").value(s.warm_hits);
        w.key("warm_iterations_saved").value(s.warm_iterations_saved);
      }
      w.key("subgraph_extractions").value(s.subgraph_extractions);
      w.key("fingerprint_computes").value(s.fingerprint_computes);
      w.key("phases").begin_object();
      w.key("fingerprint").value(s.fingerprint_seconds);
      w.key("extract").value(s.extract_seconds);
      w.key("solve").value(s.solve_seconds);
      w.key("merge").value(s.merge_seconds);
      w.end_object();
      w.end_object();
    };
    w.begin_object();
    w.key("patch_edges").value(r.patch_edges);
    w.key("dirty_components").value(r.dirty);
    w.key("components").value(r.components);
    side("incremental", r.inc, /*hits=*/true);
    side("scratch", r.scratch, /*hits=*/false);
    w.key("speedup").value(r.speedup);
    w.key("max_abs_diff").value(r.max_abs_diff);
    w.end_object();
  }
  w.end_array();
  w.key("method_cases").begin_array();
  for (const MethodCase& mc : method_cases) {
    w.begin_object();
    w.key("method").value(mc.method);
    w.key("kind").value(mc.kind);
    w.key("dirty_components").value(static_cast<std::int64_t>(mc.dirty));
    w.key("components").value(static_cast<std::int64_t>(mc.components));
    w.key("computes").value(mc.computes);
    w.key("scratch_computes").value(mc.scratch_computes);
    w.key("store_hits").value(mc.store_hits);
    w.key("fingerprint_computes").value(mc.fingerprint_computes);
    w.key("incremental_seconds").value(mc.inc_seconds);
    w.key("scratch_seconds").value(mc.scratch_seconds);
    w.key("speedup").value(mc.speedup);
    w.key("max_abs_diff").value(mc.max_abs_diff);
    if (mc.kind == "mincut") {
      w.key("incremental_flows").value(mc.inc_flows);
      w.key("scratch_flows").value(mc.scratch_flows);
      w.key("scratch_vertices_with_children")
          .value(mc.scratch_vertices_with_children);
    }
    w.end_object();
  }
  w.end_array();
  w.key("restart").begin_object();
  w.key("artifacts_loaded").value(restart.artifacts_loaded);
  w.key("cold_seconds").value(restart.cold_seconds);
  w.key("warm_seconds").value(restart.warm_seconds);
  w.key("warm_eigensolves").value(restart.warm_eigensolves);
  w.key("warm_topo_computes").value(restart.warm_topo_computes);
  w.key("warm_mincut_sweeps").value(restart.warm_mincut_sweeps);
  w.key("warm_memsim_runs").value(restart.warm_memsim_runs);
  w.key("warm_partition_runs").value(restart.warm_partition_runs);
  w.key("speedup").value(restart.speedup);
  w.key("max_abs_diff").value(restart.max_abs_diff);
  w.end_object();
  w.key("warm_start").begin_object();
  w.key("dirty_components").value(static_cast<std::int64_t>(wsc.dirty));
  w.key("warm_hits").value(wsc.warm_hits);
  w.key("cold_iterations").value(wsc.cold_iterations);
  w.key("warm_iterations").value(wsc.warm_iterations);
  w.key("iterations_saved").value(wsc.iterations_saved);
  w.key("cold_seconds").value(wsc.cold_seconds);
  w.key("warm_seconds").value(wsc.warm_seconds);
  w.key("max_abs_diff").value(wsc.max_abs_diff);
  w.end_object();
  w.end_object();

  std::ofstream json_out("BENCH_stream.json");
  json_out << w.str() << "\n";
  std::cout << "wrote BENCH_stream.json\n";
  return 0;
}
