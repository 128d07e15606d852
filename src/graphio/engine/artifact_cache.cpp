#include "graphio/engine/artifact_cache.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <utility>

#include "graphio/core/partition_dp.hpp"
#include "graphio/core/spectral_pipeline.hpp"
#include "graphio/engine/fingerprint.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/timer.hpp"
#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/trace.hpp"

namespace graphio::engine {

namespace {

// The registry side of Stats (`cache.<key>`, by its counter table) and
// the min-cut sweep's registry-only counters, resolved together on first
// use; every event after that is one relaxed atomic add. Registry totals
// are monotone: they survive cache destruction and graph reinstalls.
struct Registry {
  telemetry::Mirror<ArtifactCache::Stats> stats{"cache."};
  telemetry::Counter& mincut_flows =
      telemetry::MetricsRegistry::global().counter("mincut.flows");
  telemetry::Counter& mincut_pruned =
      telemetry::MetricsRegistry::global().counter("mincut.pruned");
};

const Registry& registry() {
  static const Registry r;
  return r;
}

using store::ArtifactKind;

/// Whether a stored artifact can serve a component of n vertices: a topo
/// order must cover exactly them.
bool fits(const auto&, std::size_t) { return true; }
bool fits(const store::TopoOrderArtifact& topo, std::size_t n) {
  return topo.order.size() == n;
}

/// Whether a computed artifact is published: a time-budget-cut min-cut
/// sweep is a valid but degraded bound that no later request may reuse.
bool publishable(const auto&) { return true; }
bool publishable(const store::MincutSweepArtifact& sweep) {
  return sweep.completed;
}

}  // namespace

template <auto Member, class T>
void ArtifactCache::bump(T delta) {
  registry().stats.add<Member>(stats_, delta);
  if (totals_ != nullptr) totals_->*Member += delta;
}

ArtifactCache::ArtifactCache(Digraph graph,
                             std::shared_ptr<store::ArtifactStore> store,
                             Stats* totals)
    : graph_(std::move(graph)), store_(std::move(store)), totals_(totals) {
  if (store_ == nullptr) store_ = std::make_shared<store::ArtifactStore>();
}

ArtifactCache::ArtifactCache(LazyGraph lazy,
                             std::shared_ptr<store::ArtifactStore> store,
                             ComponentSeed seed, Stats* totals)
    : materialized_(false),
      lazy_(std::move(lazy)),
      store_(std::move(store)),
      seed_(std::move(seed)),
      totals_(totals) {
  GIO_EXPECTS_MSG(lazy_->materialize && lazy_->component &&
                      lazy_->max_out_degree && lazy_->max_in_degree,
                  "lazy graph must provide every callback");
  if (store_ == nullptr) store_ = std::make_shared<store::ArtifactStore>();
}

const Digraph& ArtifactCache::graph() {
  if (!materialized_) {
    graph_ = lazy_->materialize();
    GIO_EXPECTS_MSG(graph_.num_vertices() == lazy_->vertices &&
                        graph_.num_edges() == lazy_->edges,
                    "lazy graph materialized to different counts than "
                    "declared");
    materialized_ = true;
  }
  return graph_;
}

std::int64_t ArtifactCache::num_vertices() const noexcept {
  return materialized_ ? graph_.num_vertices() : lazy_->vertices;
}

std::int64_t ArtifactCache::num_edges() const noexcept {
  return materialized_ ? graph_.num_edges() : lazy_->edges;
}

std::int64_t ArtifactCache::max_out_degree() {
  return lazy_.has_value() ? lazy_->max_out_degree()
                           : graph_.max_out_degree();
}

std::int64_t ArtifactCache::max_in_degree() {
  return lazy_.has_value() ? lazy_->max_in_degree()
                           : graph_.max_in_degree();
}

ArtifactCache::Decomposition& ArtifactCache::decomposition() {
  if (decomp_.has_value()) return *decomp_;
  Decomposition d;
  if (seed_.has_value()) {
    // Adopt the seeded decomposition after validating that it partitions
    // the graph — a wrong seed would silently serve wrong spectra, so the
    // O(n) check is worth one pass. Components are renumbered to the
    // deterministic smallest-vertex order of weakly_connected_components;
    // source_index remembers each one's position in the caller's seed so
    // LazyGraph::component can be asked for the right extraction.
    std::vector<int> order(seed_->components.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [this](int a, int b) {
      const auto& ca = seed_->components[static_cast<std::size_t>(a)];
      const auto& cb = seed_->components[static_cast<std::size_t>(b)];
      GIO_EXPECTS_MSG(!ca.vertices.empty() && !cb.vertices.empty(),
                      "component seed entries must not be empty");
      return ca.vertices.front() < cb.vertices.front();
    });
    const std::int64_t n = num_vertices();
    d.wc.count = static_cast<int>(seed_->components.size());
    d.wc.component_of.assign(static_cast<std::size_t>(n), -1);
    d.wc.local_id.assign(static_cast<std::size_t>(n), 0);
    std::int64_t covered = 0;
    std::int64_t edge_total = 0;
    for (int c = 0; c < d.wc.count; ++c) {
      const int src = order[static_cast<std::size_t>(c)];
      ComponentSeed::Component& comp =
          seed_->components[static_cast<std::size_t>(src)];
      GIO_EXPECTS_MSG(!comp.vertices.empty(),
                      "component seed entries must not be empty");
      for (std::size_t i = 0; i < comp.vertices.size(); ++i) {
        const VertexId v = comp.vertices[i];
        GIO_EXPECTS_MSG(v >= 0 && v < n,
                        "component seed names vertex " + std::to_string(v) +
                            " outside the graph");
        GIO_EXPECTS_MSG(i == 0 || comp.vertices[i - 1] < v,
                        "component seed vertex lists must ascend");
        GIO_EXPECTS_MSG(d.wc.component_of[static_cast<std::size_t>(v)] == -1,
                        "component seed assigns vertex " + std::to_string(v) +
                            " twice");
        d.wc.component_of[static_cast<std::size_t>(v)] = c;
        d.wc.local_id[static_cast<std::size_t>(v)] =
            static_cast<VertexId>(i);
      }
      covered += static_cast<std::int64_t>(comp.vertices.size());
      edge_total += comp.edges;
      GIO_EXPECTS_MSG(comp.external_ids.empty() ||
                          comp.external_ids.size() == comp.vertices.size(),
                      "component seed external ids must align with vertices");
      d.wc.vertices.push_back(std::move(comp.vertices));
      d.edges.push_back(comp.edges);
      d.fingerprints.push_back(comp.fingerprint);
      d.known.push_back(true);
      d.source_index.push_back(src);
      d.external_ids.push_back(std::move(comp.external_ids));
    }
    GIO_EXPECTS_MSG(covered == n,
                    "component seed must cover every vertex of the graph");
    GIO_EXPECTS_MSG(edge_total == num_edges(),
                    "component seed edge counts must sum to the graph's");
    seed_.reset();
  } else {
    d.wc = weakly_connected_components(graph());
    d.edges.reserve(static_cast<std::size_t>(d.wc.count));
    for (int c = 0; c < d.wc.count; ++c)
      d.edges.push_back(d.wc.edges_in(graph_, c));
    d.fingerprints.assign(static_cast<std::size_t>(d.wc.count), 0);
    d.known.assign(static_cast<std::size_t>(d.wc.count), false);
    d.external_ids.resize(static_cast<std::size_t>(d.wc.count));
  }
  decomp_ = std::move(d);
  return *decomp_;
}

std::uint64_t ArtifactCache::component_fingerprint(int c) {
  const auto timed = [this](auto&& hash) {
    telemetry::Span fp_span("fingerprint");
    const std::uint64_t fp = hash();
    fp_span.end();
    bump<&Stats::fingerprint_computes>(1);
    bump<&Stats::fingerprint_seconds>(fp_span.seconds());
    return fp;
  };
  if (c == kWholeGraph) {
    // Memoized for fingerprint() too, without counting as its hit/miss.
    if (!fingerprint_.has_value())
      fingerprint_ = timed([this] { return graph_fingerprint(graph()); });
    return *fingerprint_;
  }
  Decomposition& d = decomposition();
  const auto i = static_cast<std::size_t>(c);
  if (d.known[i]) return d.fingerprints[i];
  // In-place hash of the still-unextracted component; memoized so every
  // later artifact kind pays zero.
  d.fingerprints[i] =
      timed([&] { return subgraph_fingerprint(graph(), d.wc, c); });
  d.known[i] = true;
  return d.fingerprints[i];
}

const Digraph& ArtifactCache::component_graph(int c, Digraph& scratch) {
  if (c == kWholeGraph) return graph();
  Decomposition& d = decomposition();
  if (d.wc.count == 1 && materialized_) return graph_;
  const auto i = static_cast<std::size_t>(c);
  telemetry::Span extract_span("extract");
  extract_span.attr("vertices", d.wc.vertices[i].size())
      .attr("edges", d.edges[i]);
  scratch = lazy_.has_value() ? lazy_->component(d.source_index[i])
                              : d.wc.subgraph(graph_, c);
  extract_span.end();
  GIO_EXPECTS_MSG(
      scratch.num_vertices() ==
              static_cast<std::int64_t>(d.wc.vertices[i].size()) &&
          scratch.num_edges() == d.edges[i],
      "extracted component shape does not match the decomposition");
  bump<&Stats::subgraph_extractions>(1);
  bump<&Stats::extract_seconds>(extract_span.seconds());
  return scratch;
}

std::uint64_t ArtifactCache::fingerprint() {
  if (fingerprint_.has_value()) {
    bump<&Stats::hits>(1);
    return *fingerprint_;
  }
  bump<&Stats::misses>(1);
  fingerprint_ = graph_fingerprint(graph());
  return *fingerprint_;
}

template <ArtifactKind K, class Compute>
store::ArtifactStore::Artifact<K> ArtifactCache::resolve(int c,
                                                         const Digraph* sub,
                                                         Compute&& compute) {
  const store::ArtifactStore::Key<K> key{component_fingerprint(c)};
  auto stored = store_->lookup<K>(key);
  if (stored.has_value() &&
      fits(*stored, decomp_->wc.vertices[static_cast<std::size_t>(c)].size()))
    return std::move(*stored);
  Digraph extracted;
  auto artifact =
      compute(c, sub != nullptr ? *sub : component_graph(c, extracted));
  if (publishable(artifact)) store_->insert<K>(key, artifact);
  return artifact;
}

template <ArtifactKind K, class Compute, class Use>
void ArtifactCache::resolve_each(Compute&& compute, Use&& use) {
  const Decomposition& d = decomposition();
  for (int c = 0; c < d.wc.count; ++c)
    if (d.edges[static_cast<std::size_t>(c)] != 0)
      use(c, resolve<K>(c, nullptr, compute));
}

template <ArtifactKind K, class Memory, class Compute, class Use,
          class... Options>
void ArtifactCache::resolve_each_memory(const std::vector<Memory>& memories,
                                        Compute&& compute, Use&& use,
                                        const Options&... options) {
  using Artifact = store::ArtifactStore::Artifact<K>;
  const Decomposition& d = decomposition();
  std::vector<std::optional<Artifact>> rows(memories.size());
  std::vector<Memory> missed;
  for (int c = 0; c < d.wc.count; ++c) {
    if (d.edges[static_cast<std::size_t>(c)] == 0) continue;
    const std::uint64_t fp = component_fingerprint(c);
    missed.clear();
    for (std::size_t i = 0; i < memories.size(); ++i) {
      rows[i] = store_->lookup<K>({fp, memories[i], options...});
      if (!rows[i].has_value()) missed.push_back(memories[i]);
    }
    if (!missed.empty()) {
      Digraph extracted;
      std::vector<Artifact> computed =
          compute(c, component_graph(c, extracted), missed);
      GIO_ASSERT(computed.size() == missed.size());
      for (std::size_t i = 0, j = 0; i < memories.size(); ++i) {
        if (rows[i].has_value()) continue;
        store_->insert<K>({fp, memories[i], options...}, computed[j]);
        rows[i] = std::move(computed[j++]);
      }
    }
    for (std::size_t i = 0; i < memories.size(); ++i) use(c, i, *rows[i]);
  }
}

store::TopoOrderArtifact ArtifactCache::kahn(int, const Digraph& sub) {
  telemetry::Span topo_span("topo");
  topo_span.attr("vertices", sub.num_vertices())
      .attr("edges", sub.num_edges());
  auto order = topological_order(sub);
  topo_span.end();
  GIO_EXPECTS_MSG(order.has_value(), "graph is cyclic");
  bump<&Stats::topo_computes>(1);
  return {std::move(*order)};
}

const std::vector<VertexId>& ArtifactCache::topo_order() {
  if (topo_.has_value()) {
    bump<&Stats::hits>(1);
    return *topo_;
  }
  bump<&Stats::misses>(1);
  const Decomposition& d = decomposition();
  const auto count = static_cast<std::size_t>(d.wc.count);
  // Per-component orders in local ids. Edgeless components keep an empty
  // one: their min-first Kahn order is the ascending local numbering —
  // cheaper to regenerate than to fingerprint and store.
  std::vector<std::vector<VertexId>> orders(count);
  resolve_each<ArtifactKind::kTopoOrder>(
      std::bind_front(&ArtifactCache::kahn, this),
      [&orders](int c, store::TopoOrderArtifact topo) {
        orders[static_cast<std::size_t>(c)] = std::move(topo.order);
      });
  const auto vertex_at = [&](std::size_t i, std::size_t pos) {
    return d.wc.vertices[i][orders[i].empty()
                                ? pos
                                : static_cast<std::size_t>(orders[i][pos])];
  };
  // Merge by smallest next global id. Each component's min-first Kahn
  // order is the restriction of the whole-graph order (readiness never
  // crosses components), and ascending-extraction numbering makes
  // local→global monotone within a component, so the globally smallest
  // ready vertex is always some component's next element — the merge
  // replays whole-graph Kahn exactly.
  std::vector<std::size_t> pos(count, 0);
  std::vector<VertexId> merged;
  merged.reserve(static_cast<std::size_t>(num_vertices()));
  using Item = std::pair<VertexId, std::size_t>;  // (global id, component)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (std::size_t i = 0; i < count; ++i) heap.push({vertex_at(i, 0), i});
  while (!heap.empty()) {
    const auto [global, i] = heap.top();
    heap.pop();
    merged.push_back(global);
    if (++pos[i] < d.wc.vertices[i].size())
      heap.push({vertex_at(i, pos[i]), i});
  }
  topo_ = std::move(merged);
  return *topo_;
}

void ArtifactCache::merge_component_spectrum(SpectrumMerge& merge, int c,
                                             LaplacianKind kind,
                                             const SpectralOptions& options) {
  const bool whole = c == kWholeGraph;
  const auto i = static_cast<std::size_t>(c);
  const std::int64_t n =
      whole ? num_vertices()
            : static_cast<std::int64_t>(decomp_->wc.vertices[i].size());
  const std::int64_t edges = whole ? num_edges() : decomp_->edges[i];
  // Edgeless components never touch the store — recomputing zeros is
  // cheaper than fingerprinting them — and past the deadline nothing is
  // solved.
  if (merge.add_unsolved(n, edges)) return;
  const std::uint64_t fp = component_fingerprint(c);
  const int h = merge.request(n);
  if (std::optional<ComponentSolve> hit =
          store_->lookup_spectrum(fp, kind, h, options)) {
    hit->fingerprint = fp;
    hit->fingerprinted = true;
    merge.add(*std::move(hit));
    return;
  }

  // Miss: this component must extract and solve. The warm-start layer
  // engages only where a warm solve would read a basis, i.e. where
  // la::choose_solver's warm choice (the one home of the crossover) is
  // an iterative tier. A dense warm choice — a forced dense policy, or
  // "auto" on a dense-sized component with h large against n — never
  // reads one, so the component neither looks one up, nor accumulates
  // eigenvectors, nor publishes one, and answers exactly as it would
  // with retention off — as does every component off a stream session's
  // graph (the lazy cache Engine::install_graph makes) or of a store with
  // no eigenbasis budget. The basis is looked up under the component's
  // own fingerprint before extracting: a stream patch re-keys the
  // predecessor's basis to the successor fingerprint
  // (ArtifactStore::adopt_eigenbasis), which is the one handoff.
  std::optional<Eigenbasis> basis;
  std::optional<WarmStart> warm;
  if (lazy_.has_value() && store_->eigenbasis_budget() > 0 &&
      la::choose_solver(options.solver, {n, n + 2 * edges, h, /*warm=*/true})
              .kind != la::SolverKind::kDense) {
    basis = store_->lookup_eigenbasis(fp, kind);
    warm.emplace();
    warm->fingerprint = fp;
    warm->basis = basis ? &*basis : nullptr;
    if (!whole) warm->external_ids = decomp_->external_ids[i];
  }
  Digraph scratch;
  ComponentSolve solve =
      solve_component_spectrum(component_graph(c, scratch), kind, h, options,
                               warm ? &*warm : nullptr);
  solve.fingerprint = fp;
  solve.fingerprinted = true;
  if (solve.warm_started) {
    bump<&Stats::warm_hits>(1);
    bump<&Stats::warm_iterations_saved>(warm->iterations_saved);
  }
  if (!merge.add(solve)) return;
  if (warm && warm->retained)
    store_->store_eigenbasis(fp, kind, *std::move(warm->retained));
  store_->store_spectrum(fp, kind, h, options, solve);
}

const PipelineResult& ArtifactCache::spectrum(
    LaplacianKind kind, int count, const SpectralOptions& options,
    std::vector<SpectrumUse>* uses, const Deadline& deadline) {
  GIO_EXPECTS(count >= 0);
  count = static_cast<int>(std::min<std::int64_t>(count, num_vertices()));
  const bool used =
      uses != nullptr && std::ranges::any_of(*uses, [kind](SpectrumUse use) {
        return use.kind == kind;
      });
  const auto it = spectra_.find(kind);
  // Hit only on a converged record. One that a deadline skipped, a fault
  // tripped or a solve failed to converge merges again: served, it would
  // pin every later request on this cache to its weaker answer, while the
  // re-merge pays only for the skipped or tripped components, since the
  // store kept every other solve. Within one evaluation the first record
  // stands either way, so all of its rows agree.
  if (it != spectra_.end() && it->second.requested >= count &&
      (it->second.converged || used) &&
      solver_options_equal(spectra_options_.at(kind), options)) {
    bump<&Stats::hits>(1);
    if (uses != nullptr && !used) uses->push_back({kind, false});
    return it->second;
  }
  bump<&Stats::misses>(1);

  // Lookup-then-extract, per component: clean components answer straight
  // from the fingerprint-keyed store (zero allocations), and only misses
  // extract their subgraph and eigensolve. Equal components (within this
  // graph or, via an Engine-shared store, across specs and — with a disk
  // tier — across restarts) eigensolve once. A monolithic request is one
  // component, the whole graph, solved in place; its store entries stay
  // distinct from decomposed ones (solver_options_equal keys the
  // decompose switch).
  const int parts = options.decompose ? decomposition().wc.count : 1;
  SpectrumMerge merge(parts, num_vertices(), count, deadline);
  for (int c = 0; c < parts && merge.h() > 0; ++c)
    merge_component_spectrum(merge, options.decompose ? c : kWholeGraph, kind,
                             options);
  PipelineResult result = merge.finish();
  bump<&Stats::eigensolves>(result.eigensolves);
  bump<&Stats::component_hits>(result.component_cache_hits);
  bump<&Stats::solve_seconds>(result.solve_seconds);
  bump<&Stats::merge_seconds>(result.merge_seconds);
  spectra_options_.insert_or_assign(kind, options);
  if (uses != nullptr && !used) uses->push_back({kind, true});
  return spectra_.insert_or_assign(kind, std::move(result)).first->second;
}

const ArtifactCache::WavefrontArtifact& ArtifactCache::max_wavefront_cut(
    const flow::ConvexMinCutOptions& options) {
  if (max_cut_) {
    bump<&Stats::hits>(1);
    return *max_cut_;
  }
  bump<&Stats::misses>(1);
  const Decomposition& d = decomposition();
  WavefrontArtifact artifact;
  artifact.components = d.wc.count;
  artifact.cuts.resize(static_cast<std::size_t>(d.wc.count), 0);
  // Edgeless components have no descendants anywhere: C(v) = 0.
  resolve_each<ArtifactKind::kMincutSweep>(
      [&](int, const Digraph& sub) {
        bump<&Stats::mincut_sweeps>(1);
        // Memory 0 keeps every cut relevant; per-M bounds derive from the
        // per-component best cuts.
        telemetry::Span mincut_span("mincut");
        mincut_span.attr("vertices", sub.num_vertices())
            .attr("edges", sub.num_edges());
        const flow::ConvexMinCutResult result =
            flow::convex_mincut_bound(sub, 0.0, options);
        registry().mincut_flows.add(result.flows);
        registry().mincut_pruned.add(result.pruned);
        mincut_span.attr("flows", result.flows).attr("pruned", result.pruned);
        return store::MincutSweepArtifact{result.best_cut, result.best_vertex,
                                          result.vertices_processed,
                                          result.completed};
      },
      [&](int c, const store::MincutSweepArtifact& sweep) {
        const auto i = static_cast<std::size_t>(c);
        artifact.cuts[i] = sweep.best_cut;
        artifact.completed = artifact.completed && sweep.completed;
        if (sweep.best_cut > artifact.best_cut) {
          artifact.best_cut = sweep.best_cut;
          artifact.best_vertex =
              sweep.best_vertex >= 0
                  ? d.wc.vertices[i][static_cast<std::size_t>(
                        sweep.best_vertex)]
                  : VertexId{-1};
        }
      });
  return max_cut_.emplace(std::move(artifact));
}

template <class Memory, class Row, class Compute>
std::vector<Row> ArtifactCache::memoized_rows(
    const std::vector<Memory>& memories, std::map<Memory, Row>& memo,
    Compute&& compute) {
  std::vector<Memory> missed;
  for (const Memory& memory : memories) {
    if (memo.contains(memory) ||
        std::find(missed.begin(), missed.end(), memory) != missed.end()) {
      bump<&Stats::hits>(1);
    } else {
      bump<&Stats::misses>(1);
      missed.push_back(memory);
    }
  }
  if (!missed.empty()) {
    std::vector<Row> rows = compute(missed);
    for (std::size_t i = 0; i < missed.size(); ++i)
      memo.emplace(missed[i], rows[i]);
  }
  std::vector<Row> result;
  result.reserve(memories.size());
  for (const Memory& memory : memories) result.push_back(memo.at(memory));
  return result;
}

std::vector<ArtifactCache::MemsimArtifact> ArtifactCache::memsim_rows(
    const std::vector<std::int64_t>& memories, int random_orders) {
  auto compute = [&](const std::vector<std::int64_t>& missed) {
    std::vector<MemsimArtifact> rows(
        missed.size(), MemsimArtifact{0, 0, decomposition().wc.count});
    // Isolated vertices are sources and sinks at once: all their I/O is
    // trivial and excluded from reads/writes by the simulator.
    resolve_each_memory<ArtifactKind::kMemsimRow>(
        missed,
        [&](int, const Digraph& sub, const std::vector<std::int64_t>& todo) {
          bump<&Stats::memsim_runs>(static_cast<std::int64_t>(todo.size()));
          telemetry::Span memsim_span("memsim");
          memsim_span.attr("vertices", sub.num_vertices())
              .attr("memories", todo.size())
              .attr("random_orders", random_orders);
          std::vector<store::MemsimRowArtifact> computed;
          computed.reserve(todo.size());
          for (const sim::BestSchedule& best :
               sim::best_schedule(sub, todo, random_orders))
            computed.push_back({best.result.reads, best.result.writes});
          return computed;
        },
        [&rows](int, std::size_t i, const store::MemsimRowArtifact& row) {
          rows[i].reads += row.reads;
          rows[i].writes += row.writes;
        },
        random_orders);
    return rows;
  };
  return memoized_rows(memories, memsims_[random_orders], compute);
}

std::vector<ArtifactCache::PartitionArtifact> ArtifactCache::partition_rows(
    const std::vector<double>& memories) {
  auto compute = [&](const std::vector<double>& missed) {
    const Decomposition& d = decomposition();
    std::vector<double> totals(missed.size(), 0.0);
    std::vector<std::int64_t> segments(missed.size(), 0);
    // Edgeless: the component's own optimum is one empty segment (−2M),
    // exactly cancelled by the seam refund of counting it — skip both.
    const auto nontrivial = static_cast<int>(
        std::count_if(d.edges.begin(), d.edges.end(),
                      [](std::int64_t edges) { return edges != 0; }));
    resolve_each_memory<ArtifactKind::kPartitionRow>(
        missed,
        [&](int c, const Digraph& sub, const std::vector<double>& todo) {
          // The DP walks the component's own natural order — the
          // restriction of the merged whole-graph Kahn order, resolved as
          // topo_order resolves it.
          const store::TopoOrderArtifact topo =
              resolve<ArtifactKind::kTopoOrder>(
                  c, &sub, std::bind_front(&ArtifactCache::kahn, this));
          bump<&Stats::partition_runs>(static_cast<std::int64_t>(todo.size()));
          telemetry::Span dp_span("partition_dp");
          dp_span.attr("vertices", sub.num_vertices())
              .attr("edges", sub.num_edges())
              .attr("memories", todo.size());
          std::vector<store::PartitionRowArtifact> computed;
          computed.reserve(todo.size());
          for (const OptimalPartitionResult& r :
               optimal_lemma1_bound(sub, topo.order, todo))
            computed.push_back({r.objective, r.objective_segments});
          return computed;
        },
        [&](int, std::size_t i, const store::PartitionRowArtifact& row) {
          totals[i] += row.objective;
          segments[i] += row.segments;
        });
    std::vector<PartitionArtifact> rows(missed.size(),
                                        PartitionArtifact{0.0, 0, d.wc.count});
    for (std::size_t i = 0; i < missed.size(); ++i) {
      const double objective =
          totals[i] + 2.0 * missed[i] * static_cast<double>(nontrivial - 1);
      if (nontrivial > 0 && objective > 0.0) {
        rows[i].bound = objective;
        rows[i].segments = segments[i] - (nontrivial - 1);
      }
    }
    return rows;
  };
  return memoized_rows(memories, partitions_, compute);
}

}  // namespace graphio::engine
