#include "graphio/engine/engine.hpp"

#include <algorithm>
#include <utility>

#include "graphio/engine/graph_spec.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/timer.hpp"
#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/trace.hpp"

namespace graphio::engine {

namespace {

const char* laplacian_provenance_name(LaplacianKind kind) {
  return kind == LaplacianKind::kPlain ? "plain" : "norm";
}

/// Fills report.provenance: the spectra the evaluation used (`uses`) —
/// those it computed first, in first-use order, then those it was served,
/// in kind order — the registry deltas the computed ones reconcile
/// against, and the final rows. Deterministic: no wall-clock.
void assemble_provenance(BoundReport& report, const ArtifactCache& cache,
                         std::vector<ArtifactCache::SpectrumUse> uses,
                         std::int64_t warm_delta, std::int64_t iter_delta) {
  audit::ProvenanceRecord& prov = report.provenance;
  prov.kind = "bound";
  prov.graph = report.graph;
  prov.registry.warm_hits = warm_delta;
  prov.registry.iterations = iter_delta;
  const auto served = std::ranges::stable_partition(
      uses, &ArtifactCache::SpectrumUse::computed);
  std::ranges::sort(served, {}, &ArtifactCache::SpectrumUse::kind);
  for (const ArtifactCache::SpectrumUse& use : uses) {
    const PipelineResult& spectrum = cache.cached_spectra().at(use.kind);
    audit::SpectrumProvenance sp;
    sp.laplacian = laplacian_provenance_name(use.kind);
    sp.requested = spectrum.requested;
    sp.computed = use.computed;
    sp.merged_values = static_cast<std::int64_t>(spectrum.values.size());
    sp.components.reserve(spectrum.per_component.size());
    for (const ComponentSolve& solve : spectrum.per_component)
      sp.components.push_back(audit::component_provenance(solve));
    prov.spectra.push_back(std::move(sp));
  }
  prov.rows.reserve(report.rows.size());
  for (const MethodRow& row : report.rows)
    prov.rows.push_back(row_lineage(row, "computed"));
}

}  // namespace

BoundReport Engine::evaluate_with_cache(const BoundRequest& request,
                                        ArtifactCache& cache) {
  GIO_EXPECTS_MSG(!request.memories.empty(),
                  "request needs at least one memory size");
  for (double m : request.memories)
    GIO_EXPECTS_MSG(m >= 0.0, "memory size must be non-negative");
  GIO_EXPECTS(request.processors >= 1);
  const std::vector<const BoundMethod*> selected = select_methods(request);

  WallTimer timer;
  const ArtifactCache::Stats before = cache.stats();
  // Provenance bracket: registry counters (process-wide — the record's
  // `exclusive` flag says whether the deltas are attributable solely to
  // this evaluation).
  struct SolverCounters {
    telemetry::Counter& warm_hits;
    telemetry::Counter& iterations;
  };
  static SolverCounters solver_counters{
      telemetry::MetricsRegistry::global().counter("solver.warm_hits"),
      telemetry::MetricsRegistry::global().counter("solver.iterations")};
  const std::int64_t warm_before = solver_counters.warm_hits.value();
  const std::int64_t iter_before = solver_counters.iterations.value();

  BoundReport report;
  report.graph = request.display_name();
  report.vertices = cache.num_vertices();
  report.edges = cache.num_edges();
  report.processors = request.processors;
  report.memories = request.memories;

  // Family metadata for the closed-form method: the spec, or a spec-shaped
  // display name attached to an explicit graph.
  std::optional<GraphSpec> spec;
  if (!request.spec.empty()) spec = GraphSpec::try_parse(request.spec);
  else if (!request.name.empty()) spec = GraphSpec::try_parse(request.name);

  MethodContext ctx{cache, request, spec.has_value() ? &*spec : nullptr, {},
                    {.clock = {}, .seconds = request.deadline_seconds}};
  for (const BoundMethod* method : selected) {
    telemetry::Span method_span("engine.method");
    method_span.attr("method", method->id())
        .attr("graph", report.graph)
        .attr("memories", request.memories.size());
    std::vector<MethodRow> rows;
    try {
      rows = method->evaluate(ctx, request.memories);
    } catch (const std::exception& e) {
      // A method must never sink the whole report; surface the failure as
      // inapplicable rows instead. converged=false distinguishes "threw"
      // (possibly transient) from a method's own deterministic
      // inapplicability verdict — the serve ResultStore only persists
      // converged rows.
      rows.clear();
      for (double m : request.memories) {
        MethodRow row;
        row.method = std::string(method->id());
        row.memory = m;
        row.kind = method->kind();
        row.applicable = false;
        row.converged = false;
        row.note = e.what();
        rows.push_back(std::move(row));
      }
    }
    report.rows.insert(report.rows.end(),
                       std::make_move_iterator(rows.begin()),
                       std::make_move_iterator(rows.end()));
  }

  report.cache = telemetry::difference(cache.stats(), before);
  assemble_provenance(report, cache, std::move(ctx.spectra),
                      solver_counters.warm_hits.value() - warm_before,
                      solver_counters.iterations.value() - iter_before);
  report.seconds = timer.seconds();
  return report;
}

ArtifactCache& Engine::ensure_cache(const std::string& spec) {
  GIO_EXPECTS_MSG(!spec.empty(),
                  "request needs a graph spec or an explicit graph");
  auto it = caches_.find(spec);
  if (it == caches_.end()) {
    it = caches_
             .emplace(spec, std::make_unique<ArtifactCache>(
                                GraphSpec::parse(spec).build(), store_,
                                &totals_))
             .first;
  }
  return *it->second;
}

BoundReport Engine::evaluate(const BoundRequest& request) {
  if (request.graph.has_value()) {
    // Explicit graphs get a private artifact cache (the Engine cannot
    // tell whether two Digraph values are the same computation), but
    // share the artifact store — content addressing makes that safe and
    // lets explicit graphs reuse spec-built component artifacts.
    ArtifactCache cache(*request.graph, store_, &totals_);
    return evaluate_with_cache(request, cache);
  }
  return evaluate_with_cache(request, ensure_cache(request.spec));
}

const Digraph& Engine::graph(const std::string& spec) {
  return ensure_cache(spec).graph();
}

void Engine::install_graph(const std::string& name, LazyGraph graph,
                           ComponentSeed seed) {
  GIO_EXPECTS_MSG(!name.empty(), "installed graph needs a name");
  GIO_EXPECTS_MSG(!GraphSpec::try_parse(name).has_value(),
                  "installed graph name '" + name +
                      "' collides with a family spec or graph file");
  caches_.insert_or_assign(
      name, std::make_unique<ArtifactCache>(std::move(graph), store_,
                                            std::move(seed), &totals_));
}

std::uint64_t Engine::fingerprint(const std::string& spec) {
  return ensure_cache(spec).fingerprint();
}

const ArtifactCache* Engine::cache(const std::string& spec) const {
  const auto it = caches_.find(spec);
  return it == caches_.end() ? nullptr : it->second.get();
}

void Engine::clear() {
  caches_.clear();
  store_->clear();
}

}  // namespace graphio::engine
